"""Noise channels and device noise models.

The paper evaluates HAMMER with histograms measured on real IBM/Google
devices.  We substitute those devices with a gate-level stochastic noise
model that reproduces the statistical character of their output histograms:

* **Depolarizing gate errors** — after every gate, with probability equal to
  the gate's error rate a uniformly random (non-identity) Pauli error is
  applied to the gate's qubits.  Two-qubit gates are 10-20x noisier than
  single-qubit gates, matching the 1-2% CNOT error rates quoted in the paper.
* **Idle (decoherence) errors** — qubits accumulate a small error probability
  proportional to circuit depth, standing in for T1/T2 decay during idle
  periods.
* **Readout errors** — independent per-qubit assignment errors with an
  asymmetric bias (reading ``1`` as ``0`` is more likely than the reverse on
  superconducting hardware).

One consumer samples these models: the bit-flip sampler
(:mod:`repro.quantum.sampler`) converts accumulated error probabilities into
per-qubit flip probabilities applied to ideal measurement samples, plus a
scramble probability for trials whose errors spread through the whole
register.  Readout mitigation and HAMMER's noise-aware weights read the same
per-qubit arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import NoiseModelError
from repro.quantum.circuit import Instruction, InstructionTable, QuantumCircuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (calibration -> device -> noise)
    from repro.calibration.snapshot import CalibrationSnapshot

__all__ = ["ReadoutError", "PauliNoise", "NoiseModel"]


@dataclass(frozen=True)
class ReadoutError:
    """Independent per-qubit measurement assignment error.

    Attributes
    ----------
    prob_1_given_0:
        Probability of reading ``1`` when the pre-measurement state is ``0``.
    prob_0_given_1:
        Probability of reading ``0`` when the pre-measurement state is ``1``.
    """

    prob_1_given_0: float
    prob_0_given_1: float

    def __post_init__(self) -> None:
        for value in (self.prob_1_given_0, self.prob_0_given_1):
            if not 0.0 <= value <= 1.0:
                raise NoiseModelError(f"readout probabilities must be in [0, 1], got {value}")

    def flip_probability(self, bit: str) -> float:
        """Probability that measuring the given ideal bit reports the other value."""
        return self.prob_1_given_0 if bit == "0" else self.prob_0_given_1

    def confusion_matrix(self) -> np.ndarray:
        """2x2 column-stochastic confusion matrix ``M[measured, prepared]``."""
        return np.array(
            [
                [1.0 - self.prob_1_given_0, self.prob_0_given_1],
                [self.prob_1_given_0, 1.0 - self.prob_0_given_1],
            ]
        )

    @classmethod
    def symmetric(cls, error: float) -> "ReadoutError":
        """Readout error with the same flip probability in both directions."""
        return cls(prob_1_given_0=error, prob_0_given_1=error)


@dataclass(frozen=True)
class PauliNoise:
    """A stochastic Pauli channel: apply X/Y/Z with the given probabilities."""

    prob_x: float
    prob_y: float
    prob_z: float

    def __post_init__(self) -> None:
        total = self.prob_x + self.prob_y + self.prob_z
        for value in (self.prob_x, self.prob_y, self.prob_z):
            if value < 0:
                raise NoiseModelError("Pauli probabilities must be non-negative")
        if total > 1.0 + 1e-9:
            raise NoiseModelError(f"Pauli probabilities sum to {total} > 1")

    @property
    def bitflip_probability(self) -> float:
        """Probability of a bit-flipping error (X or Y)."""
        return self.prob_x + self.prob_y

    @classmethod
    def depolarizing(cls, error: float) -> "PauliNoise":
        """Single-qubit depolarizing channel with total error probability ``error``."""
        if not 0.0 <= error <= 1.0:
            raise NoiseModelError(f"error probability must be in [0, 1], got {error}")
        return cls(prob_x=error / 3.0, prob_y=error / 3.0, prob_z=error / 3.0)


@dataclass(frozen=True)
class NoiseModel:
    """Device-level noise description consumed by the bit-flip sampler.

    Attributes
    ----------
    single_qubit_error:
        Depolarizing error probability after every single-qubit gate.
    two_qubit_error:
        Depolarizing error probability (per qubit) after every two-qubit gate.
    readout_error:
        Per-qubit measurement assignment error.
    idle_error_per_layer:
        Error probability accumulated by each qubit per layer of circuit
        depth, modelling decoherence during idling.
    crosstalk_error:
        Extra error probability added to *spectator* qubits adjacent to a
        two-qubit gate (0 disables crosstalk).  Only the bit-flip sampler
        uses this term.
    calibration:
        Optional per-qubit / per-edge
        :class:`~repro.calibration.snapshot.CalibrationSnapshot`.  When
        present, every consumer (gate errors, accumulated flip
        probabilities, readout flips) reads the heterogeneous rates and the
        scalar fields above only serve as documentation of the medians.
        When ``None`` (the default) the scalars are used directly — the
        zero-copy uniform fast path, bit-identical to historical releases.
    """

    single_qubit_error: float = 0.001
    two_qubit_error: float = 0.015
    readout_error: ReadoutError = field(default_factory=lambda: ReadoutError(0.015, 0.03))
    idle_error_per_layer: float = 0.0005
    crosstalk_error: float = 0.0
    calibration: "CalibrationSnapshot | None" = None

    def __post_init__(self) -> None:
        for name in ("single_qubit_error", "two_qubit_error", "idle_error_per_layer", "crosstalk_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise NoiseModelError(f"{name} must be in [0, 1], got {value}")

    # ------------------------------------------------------------------
    # Calibration plumbing
    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """True when per-qubit/per-edge calibration arrays are attached."""
        return self.calibration is not None

    def with_calibration(self, calibration: "CalibrationSnapshot | None") -> "NoiseModel":
        """Copy of this model with the given calibration attached (or removed)."""
        return replace(self, calibration=calibration)

    def require_width(self, num_qubits: int) -> None:
        """Raise when a circuit of the given width exceeds the calibration."""
        if self.calibration is not None and not self.calibration.supports_width(num_qubits):
            raise NoiseModelError(
                f"circuit needs {num_qubits} qubits but the calibration of device "
                f"{self.calibration.device_name!r} covers only {self.calibration.num_qubits}"
            )

    def single_qubit_rates(self, num_qubits: int) -> np.ndarray:
        """Per-qubit single-qubit gate error array (uniform fill or calibrated)."""
        if self.calibration is None:
            return np.full(num_qubits, self.single_qubit_error)
        self.require_width(num_qubits)
        return np.asarray(self.calibration.single_qubit_error[:num_qubits])

    def idle_rates(self, num_qubits: int) -> np.ndarray:
        """Per-qubit idle error array (uniform fill or calibrated)."""
        if self.calibration is None:
            return np.full(num_qubits, self.idle_error_per_layer)
        self.require_width(num_qubits)
        return np.asarray(self.calibration.idle_error_per_layer[:num_qubits])

    # ------------------------------------------------------------------
    # Per-gate errors
    # ------------------------------------------------------------------
    def gate_error(self, instruction: Instruction) -> float:
        """Depolarizing error probability associated with one instruction."""
        if self.calibration is not None:
            self.require_width(max(instruction.qubits) + 1)
            if instruction.num_qubits == 2:
                return self.calibration.edge_error(*instruction.qubits)
            return float(self.calibration.single_qubit_error[instruction.qubits[0]])
        return self.two_qubit_error if instruction.num_qubits == 2 else self.single_qubit_error

    # ------------------------------------------------------------------
    # Aggregate (analytic) error strengths for the fast sampler
    # ------------------------------------------------------------------
    def accumulated_bitflip_probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Per-qubit probability of at least one bit-flipping error.

        Combines gate errors (2/3 of a depolarizing error flips the bit),
        idle errors and crosstalk into a single independent flip probability
        per qubit.  This is the error model the fast bit-flip sampler and the
        dataset emulators use.

        The gate part reads the circuit's instruction table: one error per
        gate (:meth:`_gate_errors`), and the survival product multiplies each
        qubit's factors in instruction order (``np.multiply.at`` applies its
        indices in order), exactly as a walk over the instructions would.
        """
        num_qubits = circuit.num_qubits
        self.require_width(num_qubits)
        two_qubit_neighbors = circuit.two_qubit_gates_per_qubit()
        table = circuit.table
        errors = self._gate_errors(table)
        # The gates a walk over the instructions raises at: a rate outside
        # [0, 1], a qubit outside the survival array, and (calibrated) a
        # gate without qubits.  The first one raises what the walk raised.
        failing = ~((errors >= 0.0) & (errors <= 1.0))
        outside = (table.qubits >= num_qubits) | (table.qubits < -num_qubits)
        if outside.any():
            failing[np.repeat(np.arange(len(table)), table.arity)[outside]] = True
        if self.calibration is not None:
            failing |= table.arity == 0
        if failing.any():
            self._raise_for_gate(table.instructions()[int(np.argmax(failing))], num_qubits)
        third = errors / 3.0
        survival = np.ones(num_qubits, dtype=float)
        np.multiply.at(survival, table.qubits, np.repeat(1.0 - (third + third), table.arity))
        depth = circuit.depth()
        if self.calibration is None:
            if self.idle_error_per_layer > 0 and depth > 0:
                idle_flip = PauliNoise.depolarizing(
                    min(1.0, self.idle_error_per_layer * depth)
                ).bitflip_probability
                survival *= 1.0 - idle_flip
        elif depth > 0:
            idle = np.minimum(1.0, self.idle_rates(num_qubits) * depth)
            survival *= 1.0 - (2.0 / 3.0) * idle
        if self.crosstalk_error > 0:
            for qubit in range(num_qubits):
                crosstalk_exposure = min(1.0, self.crosstalk_error * two_qubit_neighbors[qubit])
                survival[qubit] *= 1.0 - (2.0 / 3.0) * crosstalk_exposure
        return 1.0 - survival

    def _gate_errors(self, table: InstructionTable) -> np.ndarray:
        """:meth:`gate_error` of every gate of an instruction table, in gate order.

        Two-qubit gates read :meth:`CalibrationSnapshot.edge_errors
        <repro.calibration.snapshot.CalibrationSnapshot.edge_errors>` (the
        median for unlisted pairs), every other gate its first qubit's
        single-qubit error.  Checks nothing: a gate :meth:`gate_error` would
        reject gets an arbitrary value here.
        """
        two_qubit = table.arity == 2
        if self.calibration is None:
            return np.where(two_qubit, self.two_qubit_error, self.single_qubit_error)
        errors = np.empty(len(table))
        first = table.first_qubit_offsets()
        if table.qubits.size:
            covered = self.calibration.num_qubits
            leading = table.qubits[np.minimum(first, table.qubits.size - 1)]
            errors[:] = self.calibration.single_qubit_error[np.clip(leading, -covered, covered - 1)]
        errors[two_qubit] = self.calibration.edge_errors(*table.two_qubit_pairs())
        return errors

    def _raise_for_gate(self, instruction: Instruction, num_qubits: int) -> None:
        """Raise what a per-instruction walk raises at this gate.

        The walk looks the gate's error up (:meth:`gate_error`: calibration
        width, then the rate), checks it lies in [0, 1] and then indexes a
        per-qubit survival array with each of the gate's qubits.
        """
        PauliNoise.depolarizing(self.gate_error(instruction))
        survival = np.ones(num_qubits)
        for qubit in instruction.qubits:
            survival[qubit] *= 1.0

    def scramble_probability(self, circuit: QuantumCircuit) -> float:
        """Probability that a trial is fully scrambled (uniform-error background).

        Deep circuits let errors propagate through entangling gates until the
        output is essentially uniform.  We model this with a per-two-qubit-gate
        scrambling probability; the result feeds the uniform background
        component of the bit-flip sampler, which is what makes the EHD grow
        with circuit size in the characterisation experiments (Figure 12).
        With a calibration attached, the per-gate survival factors multiply
        one after another in instruction order.
        """
        if self.calibration is not None:
            errors = self.calibration.edge_errors(*circuit.table.two_qubit_pairs())
            return float(1.0 - math.prod((1.0 - 0.5 * errors).tolist()))
        num_two_qubit = circuit.num_two_qubit_gates()
        per_gate = self.two_qubit_error * 0.5
        return float(1.0 - (1.0 - per_gate) ** num_two_qubit)

    def readout_flip_probabilities(self, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of per-qubit flip probabilities ``p(read 1 | 0)`` and ``p(read 0 | 1)``.

        With a calibration attached, the snapshot's per-qubit vectors are
        returned (sliced to the register width); otherwise the uniform
        scalars are broadcast.
        """
        if self.calibration is not None:
            self.require_width(num_qubits)
            return (
                np.asarray(self.calibration.p10[:num_qubits]),
                np.asarray(self.calibration.p01[:num_qubits]),
            )
        p10 = np.full(num_qubits, self.readout_error.prob_1_given_0)
        p01 = np.full(num_qubits, self.readout_error.prob_0_given_1)
        return p10, p01

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with all error rates multiplied by ``factor``.

        Every field — the uniform scalars and, when a calibration is
        attached, each per-qubit / per-edge entry — is capped at 1.0
        individually.  ``factor == 0`` on a calibrated model yields an
        all-zero calibration, equivalent to :meth:`noiseless` in every
        consumer.
        """
        if factor < 0:
            raise NoiseModelError(f"scale factor must be >= 0, got {factor}")

        def cap(value: float) -> float:
            return min(1.0, value * factor)

        return NoiseModel(
            single_qubit_error=cap(self.single_qubit_error),
            two_qubit_error=cap(self.two_qubit_error),
            readout_error=ReadoutError(
                cap(self.readout_error.prob_1_given_0),
                cap(self.readout_error.prob_0_given_1),
            ),
            idle_error_per_layer=cap(self.idle_error_per_layer),
            crosstalk_error=cap(self.crosstalk_error),
            calibration=None if self.calibration is None else self.calibration.scaled(factor),
        )

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """A noise model with every error rate set to zero."""
        return cls(
            single_qubit_error=0.0,
            two_qubit_error=0.0,
            readout_error=ReadoutError(0.0, 0.0),
            idle_error_per_layer=0.0,
            crosstalk_error=0.0,
        )
