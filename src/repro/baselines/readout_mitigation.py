"""Tensor-product readout-error mitigation (the paper's Google baseline).

The Google QAOA dataset the paper post-processes already applies a
"post-measurement correction scheme to reduce the readout bias" — the
standard tensored-calibration technique: measure each qubit's 2x2 assignment
(confusion) matrix, invert the tensor product and apply it to the measured
histogram, clipping negative quasi-probabilities and renormalising.

The corrected quasi-probability of an observed outcome ``x`` is the full
tensored inverse ``(M_0 ⊗ … ⊗ M_{n-1})^{-1}`` applied to the measured
probability vector and read at ``x``.  Because the correction factorises over
qubits the ``2^n x 2^n`` matrix is never materialised, and because outcomes
never measured carry zero probability, the sum over all ``2^n`` outcomes
equals the sum over the observed support.  Two exact paths compute it and
differ only in summation order:

* registers of at most :data:`~repro.core.kernels.DENSE_CHS_MAX_BITS` bits
  scatter the probabilities into a zero-padded vector of length ``2^n``,
  apply each qubit's 2x2 inverse along that qubit's axis in ``O(n * 2^n)``
  and read the result back at the support — the tensored mitigation of
  qiskit-ignis' ``TensoredMeasFitter``;
* wider registers, whose ``2^n`` vector would not fit, loop over the
  observed support in ``O(N^2 * n)`` for ``N`` outcomes.  The loop is also
  the reference the hypercube path is tested against.

Which path ran is counted as ``mitigation.plan.hypercube`` or
``mitigation.plan.support``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.distribution import Distribution
from repro.core.kernels import DENSE_CHS_MAX_BITS
from repro.core.pipeline import PostProcessingStage
from repro.exceptions import NoiseModelError
from repro.obs.metrics import counter_add
from repro.quantum.noise import ReadoutError

__all__ = ["ReadoutCalibration", "apply_per_qubit", "mitigate_readout", "ReadoutMitigationStage"]


def _check_column_sums(matrices) -> None:
    """Every column of every 2x2 confusion matrix must sum to 1 (one check over the stack)."""
    if matrices and not np.allclose(np.stack(matrices).sum(axis=1), 1.0, atol=1e-6):
        raise NoiseModelError("confusion matrix columns must each sum to 1")


@dataclass(frozen=True)
class ReadoutCalibration:
    """Per-qubit readout confusion matrices for an ``num_qubits``-wide register."""

    confusion_matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        matrices = self.confusion_matrices
        for index, matrix in enumerate(matrices):
            if matrix.shape != (2, 2):
                # A matrix before this one with bad columns is reported first.
                _check_column_sums(matrices[:index])
                raise NoiseModelError("each confusion matrix must be 2x2")
        _check_column_sums(matrices)

    @property
    def num_qubits(self) -> int:
        """Register width the calibration describes."""
        return len(self.confusion_matrices)

    @classmethod
    def from_readout_error(cls, readout_error: ReadoutError, num_qubits: int) -> "ReadoutCalibration":
        """Build a calibration from a uniform per-qubit :class:`ReadoutError`."""
        matrix = readout_error.confusion_matrix()
        return cls(confusion_matrices=tuple(matrix.copy() for _ in range(num_qubits)))

    @classmethod
    def from_flip_probabilities(cls, p10, p01) -> "ReadoutCalibration":
        """Build a calibration from per-qubit flip-probability arrays."""
        p10 = np.asarray(p10, dtype=float)
        p01 = np.asarray(p01, dtype=float)
        if p10.shape != p01.shape or p10.ndim != 1:
            raise NoiseModelError("p10 and p01 must be 1-D arrays of equal length")
        matrices = np.empty((p10.shape[0], 2, 2))
        matrices[:, 0, 0] = 1.0 - p10
        matrices[:, 0, 1] = p01
        matrices[:, 1, 0] = p10
        matrices[:, 1, 1] = 1.0 - p01
        return cls(confusion_matrices=tuple(matrices))

    @classmethod
    def from_noise_model(cls, noise_model, num_qubits: int) -> "ReadoutCalibration":
        """Per-qubit calibration from a noise model (heterogeneous when calibrated).

        Uses :meth:`NoiseModel.readout_flip_probabilities
        <repro.quantum.noise.NoiseModel.readout_flip_probabilities>`, so a
        model carrying a :class:`~repro.calibration.snapshot.CalibrationSnapshot`
        yields one distinct confusion matrix per qubit while a uniform model
        reproduces :meth:`from_readout_error` exactly.
        """
        p10, p01 = noise_model.readout_flip_probabilities(num_qubits)
        return cls.from_flip_probabilities(p10, p01)

    def inverse_matrices(self) -> list[np.ndarray]:
        """Per-qubit inverses of the confusion matrices.

        One ``np.linalg.det`` and one ``np.linalg.inv`` over the ``(n, 2, 2)``
        stack; each result equals the per-matrix call's.
        """
        if not self.confusion_matrices:
            return []
        stack = np.stack(self.confusion_matrices)
        if np.any(np.abs(np.linalg.det(stack)) < 1e-9):
            raise NoiseModelError("confusion matrix is singular; cannot invert")
        return list(np.linalg.inv(stack))


def apply_per_qubit(matrices: Sequence[np.ndarray], dense: np.ndarray) -> np.ndarray:
    """``(M_0 ⊗ … ⊗ M_{n-1}) · v`` for a dense vector ``v`` of length ``2^n``.

    Index ``i`` of ``v`` is the outcome whose string position ``k`` is bit
    ``n-1-k`` of ``i`` (the one-word packed key), so in the C-ordered
    ``(2,) * n`` view of the vector string position ``k`` is axis ``k``: each
    matrix is one batched 2x2 product over a ``(2^k, 2, 2^(n-1-k))``
    reshape, ``O(n * 2^n)`` in all.
    """
    for position, matrix in enumerate(matrices):
        dense = np.matmul(matrix, dense.reshape(1 << position, 2, -1)).reshape(-1)
    return dense


def _tensored_inverse_on_hypercube(packed, inverses: list[np.ndarray]) -> np.ndarray:
    """``(M_0^{-1} ⊗ … ⊗ M_{n-1}^{-1}) · P`` on the dense ``2^n`` vector, at the support."""
    indices = packed.words[:, 0].astype(np.intp)
    dense = np.zeros(1 << packed.num_bits, dtype=float)
    dense[indices] = packed.probabilities
    return apply_per_qubit(inverses, dense)[indices]


def _tensored_inverse_on_support(packed, inverses: list[np.ndarray]) -> np.ndarray:
    """The same quantity as a loop over the observed support, ``O(N^2 * n)``."""
    probabilities = packed.probabilities
    bits = packed.bit_matrix()
    num_outcomes = packed.num_outcomes

    corrected = np.zeros(num_outcomes, dtype=float)
    for target_index in range(num_outcomes):
        # Π_k (M_k^{-1})[target_k, y_k] for every observed y, vectorised over y.
        factors = np.ones(num_outcomes, dtype=float)
        for qubit, inverse in enumerate(inverses):
            factors *= inverse[bits[target_index, qubit], bits[:, qubit]]
        corrected[target_index] = float(np.dot(factors, probabilities))
    return corrected


def mitigate_readout(distribution: Distribution, calibration: ReadoutCalibration) -> Distribution:
    """Apply tensored readout-error inversion, read at the observed support.

    The corrected quasi-probability of an observed outcome ``x`` is

        q(x) = Σ_y  Π_k  (M_k^{-1})[x_k, y_k]  ·  P(y)

    summed over every outcome ``y``; those never measured have ``P(y) = 0``,
    so only the observed support contributes.  Registers of at most
    :data:`~repro.core.kernels.DENSE_CHS_MAX_BITS` bits compute it on the
    dense ``2^n`` hypercube in ``O(n * 2^n)``, wider ones by a loop over the
    support (see the module docstring); the path is counted as
    ``mitigation.plan.<plan>``.  Negative entries are clipped to zero and the
    result renormalised — the same pragmatic choice production mitigation
    code makes.
    """
    if calibration.num_qubits != distribution.num_bits:
        raise NoiseModelError(
            f"calibration is for {calibration.num_qubits} qubits but the distribution has "
            f"{distribution.num_bits} bits"
        )
    inverses = calibration.inverse_matrices()
    packed = distribution.packed()
    if packed.num_bits <= DENSE_CHS_MAX_BITS:
        corrected = _tensored_inverse_on_hypercube(packed, inverses)
        counter_add("mitigation.plan.hypercube")
    else:
        corrected = _tensored_inverse_on_support(packed, inverses)
        counter_add("mitigation.plan.support")

    corrected = np.clip(corrected, 0.0, None)
    total = corrected.sum()
    if total <= 0:
        return distribution.normalized()
    kept = np.nonzero(corrected > 0)[0]
    if kept.size == 0:
        return distribution.normalized()
    # Keep the surviving support as a slice of the existing packed words so a
    # downstream HAMMER stage reuses the packing instead of rebuilding it.
    survivors = packed.subset(kept)
    return Distribution.from_packed(
        survivors.with_probabilities(corrected[kept] / corrected[kept].sum())
    )


class ReadoutMitigationStage(PostProcessingStage):
    """Pipeline stage applying :func:`mitigate_readout` with a fixed calibration."""

    name = "readout-mitigation"

    def __init__(self, calibration: ReadoutCalibration) -> None:
        self.calibration = calibration

    def apply(self, distribution: Distribution) -> Distribution:
        return mitigate_readout(distribution, self.calibration)
