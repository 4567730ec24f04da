"""Per-distance weight schemes for the HAMMER neighbourhood score.

Step 2 of HAMMER (Section 4.3) assigns a weight ``W[d]`` to every Hamming
distance ``d`` before aggregating neighbourhood contributions.  The paper's
scheme inverts the average Cumulative Hamming Strength and zeroes weights at
and beyond ``n/2``.  This module provides that scheme plus alternatives used
by the ablation benchmarks (uniform weights, exponential decay, and a
distance-one-only scheme) behind a single :class:`WeightScheme` interface.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import DistributionError

__all__ = [
    "WeightScheme",
    "InverseChsWeights",
    "UniformWeights",
    "ExponentialDecayWeights",
    "NearestNeighborWeights",
    "NoiseAwareWeights",
    "resolve_weight_scheme",
]


class WeightScheme(abc.ABC):
    """Strategy that turns an average CHS vector into per-distance weights.

    :meth:`ExecutionEngine.hammer <repro.engine.engine.ExecutionEngine.hammer>`
    caches reconstructions under a key that reads a scheme's class and its
    instance fields, so a scheme handed to the engine-backed studies must
    keep its parameters as plain fields: ``None``, strings, numbers, NumPy
    numeric arrays, and tuples, lists, dicts or other schemes of these.  A
    field holding anything else (a callable, say) makes the engine raise
    :class:`~repro.exceptions.EngineError`; :func:`repro.core.hammer.hammer`
    itself takes any scheme.
    """

    #: registry name used by :func:`resolve_weight_scheme`
    name: str = "abstract"

    @abc.abstractmethod
    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        """Return a weight vector with the same length as ``average_chs``.

        Parameters
        ----------
        average_chs:
            Average Cumulative Hamming Strength of the input distribution.
        num_bits:
            Output width of the program.
        cutoff:
            First distance whose weight must be zero (the paper uses
            ``n // 2``); every entry at index >= cutoff is zeroed by the
            caller as well, but schemes should respect it to keep the
            semantics self-contained.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightScheme):
            return NotImplemented
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class InverseChsWeights(WeightScheme):
    """The paper's weight scheme: ``W[d] = 1 / CHS_avg[d]`` (Figure 7(c)).

    Bins with zero cumulative strength keep weight 0, as do bins at or beyond
    the cutoff distance.
    """

    name = "inverse_chs"

    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        weights = np.zeros_like(average_chs, dtype=float)
        limit = min(cutoff, len(average_chs))
        for distance in range(limit):
            strength = average_chs[distance]
            if strength > 0:
                weights[distance] = 1.0 / strength
        return weights


class UniformWeights(WeightScheme):
    """Ablation: every distance below the cutoff gets the same weight of 1."""

    name = "uniform"

    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        weights = np.zeros_like(average_chs, dtype=float)
        limit = min(cutoff, len(average_chs))
        weights[:limit] = 1.0
        return weights


class ExponentialDecayWeights(WeightScheme):
    """Ablation: ``W[d] = decay**d`` for distances below the cutoff."""

    name = "exponential"

    def __init__(self, decay: float = 0.5) -> None:
        if not 0.0 < decay <= 1.0:
            raise DistributionError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay

    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        weights = np.zeros_like(average_chs, dtype=float)
        limit = min(cutoff, len(average_chs))
        for distance in range(limit):
            weights[distance] = self.decay**distance
        return weights


class NearestNeighborWeights(WeightScheme):
    """Ablation: only distance-0 and distance-1 neighbours contribute."""

    name = "nearest_neighbor"

    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        weights = np.zeros_like(average_chs, dtype=float)
        limit = min(cutoff, len(average_chs), 2)
        for distance in range(limit):
            strength = average_chs[distance]
            weights[distance] = 1.0 / strength if strength > 0 else 0.0
        return weights


class NoiseAwareWeights(WeightScheme):
    """Calibration-aware weights: invert the *analytic* Hamming spectrum.

    The paper derives weights from the measured average CHS.  When the
    device's per-qubit bit-flip probabilities are known (via
    :meth:`NoiseModel.accumulated_bitflip_probabilities
    <repro.quantum.noise.NoiseModel.accumulated_bitflip_probabilities>`,
    which consumes a per-qubit/per-edge calibration when one is attached),
    the expected distance-from-correct mass is available in closed form: the
    number of flipped bits follows a Poisson-binomial distribution over the
    per-qubit flip probabilities.  This scheme sets ``W[d] = 1 / pmf[d]`` —
    the same inversion principle as :class:`InverseChsWeights`, but against
    the noise model's prediction instead of the (shot-noisy) empirical
    spectrum, and sensitive to *which* qubits are bad, not just how many.

    Constructed without flip probabilities (e.g. resolved from the registry
    by name) it falls back to the paper's inverse-CHS behaviour.
    """

    name = "noise_aware"

    def __init__(self, flip_probabilities=None) -> None:
        if flip_probabilities is None:
            self.flip_probabilities: tuple[float, ...] | None = None
            return
        array = np.asarray(flip_probabilities, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise DistributionError("flip_probabilities must be a non-empty 1-D array")
        if not np.all((array >= 0.0) & (array <= 1.0)):
            raise DistributionError("flip probabilities must lie in [0, 1]")
        # Stored as a tuple so the base class's __eq__/__hash__ keep working.
        self.flip_probabilities = tuple(float(p) for p in array)

    @classmethod
    def from_noise_model(cls, noise_model, circuit) -> "NoiseAwareWeights":
        """Build from a noise model's accumulated per-qubit flip probabilities."""
        return cls(noise_model.accumulated_bitflip_probabilities(circuit))

    @staticmethod
    def flip_distance_pmf(flip_probabilities) -> np.ndarray:
        """Poisson-binomial pmf of the number of flipped bits (length n+1)."""
        probabilities = np.asarray(flip_probabilities, dtype=float)
        pmf = np.zeros(probabilities.size + 1, dtype=float)
        pmf[0] = 1.0
        for p in probabilities:
            pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
            pmf[0] *= 1.0 - p
        return pmf

    def compute(self, average_chs: np.ndarray, num_bits: int, cutoff: int) -> np.ndarray:
        if self.flip_probabilities is None:
            return InverseChsWeights().compute(average_chs, num_bits, cutoff)
        pmf = self.flip_distance_pmf(self.flip_probabilities)
        weights = np.zeros_like(average_chs, dtype=float)
        limit = min(cutoff, len(average_chs))
        for distance in range(limit):
            if distance < len(pmf) and pmf[distance] > 1e-12:
                weights[distance] = 1.0 / pmf[distance]
        return weights


_SCHEMES: dict[str, type[WeightScheme]] = {
    InverseChsWeights.name: InverseChsWeights,
    UniformWeights.name: UniformWeights,
    ExponentialDecayWeights.name: ExponentialDecayWeights,
    NearestNeighborWeights.name: NearestNeighborWeights,
    NoiseAwareWeights.name: NoiseAwareWeights,
}


def resolve_weight_scheme(scheme: "WeightScheme | str") -> WeightScheme:
    """Return a :class:`WeightScheme` instance from an instance or registry name."""
    if isinstance(scheme, WeightScheme):
        return scheme
    if isinstance(scheme, str):
        key = scheme.lower()
        if key not in _SCHEMES:
            raise DistributionError(
                f"unknown weight scheme {scheme!r}; available: {sorted(_SCHEMES)}"
            )
        return _SCHEMES[key]()
    raise DistributionError(f"cannot interpret {scheme!r} as a weight scheme")
