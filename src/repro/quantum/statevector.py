"""Dense statevector simulation of :class:`~repro.quantum.circuit.QuantumCircuit`.

The simulator stores the state as a complex tensor of shape ``(2,) * n`` and
applies gates with :func:`numpy.tensordot`, which keeps per-gate cost at
``O(2^n)`` and comfortably handles the circuit sizes used in the paper
(up to ~20 qubits).

Bit-ordering convention: qubit 0 corresponds to the most-significant bit of
the measured bitstring, so ``Statevector.probabilities()[k]`` is the
probability of the bitstring ``format(k, "0nb")`` — the same convention used
throughout :mod:`repro.core`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.distribution import Distribution
from repro.exceptions import CircuitError
from repro.quantum.circuit import Instruction, QuantumCircuit

__all__ = ["Statevector", "simulate_statevector", "ideal_distribution"]

_MAX_DENSE_QUBITS = 24


class Statevector:
    """A pure quantum state on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, data: np.ndarray | None = None) -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > _MAX_DENSE_QUBITS:
            raise CircuitError(
                f"dense simulation limited to {_MAX_DENSE_QUBITS} qubits, got {num_qubits}"
            )
        self.num_qubits = num_qubits
        if data is None:
            tensor = np.zeros((2,) * num_qubits, dtype=complex)
            tensor[(0,) * num_qubits] = 1.0
            self._tensor = tensor
        else:
            array = np.asarray(data, dtype=complex)
            if array.size != (1 << num_qubits):
                raise CircuitError(
                    f"state size {array.size} does not match 2**{num_qubits}"
                )
            self._tensor = array.reshape((2,) * num_qubits).copy()

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """Return the flat amplitude vector of length ``2**num_qubits``."""
        return self._tensor.reshape(-1)

    def amplitude(self, bitstring: str) -> complex:
        """Amplitude of a specific computational-basis outcome."""
        if len(bitstring) != self.num_qubits:
            raise CircuitError("bitstring width does not match qubit count")
        index = tuple(int(bit) for bit in bitstring)
        return complex(self._tensor[index])

    def probabilities(self) -> np.ndarray:
        """Probability of every computational-basis outcome (length ``2**n``)."""
        return np.abs(self.vector) ** 2

    def probability(self, bitstring: str) -> float:
        """Probability of a specific outcome."""
        return float(abs(self.amplitude(bitstring)) ** 2)

    def norm(self) -> float:
        """L2 norm of the state (should stay 1 under unitary evolution)."""
        return float(np.linalg.norm(self.vector))

    def copy(self) -> "Statevector":
        """Return an independent copy of the state."""
        return Statevector(self.num_qubits, self.vector.copy())

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a unitary acting on the listed qubits (in gate order)."""
        qubits = [int(q) for q in qubits]
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(f"qubit {qubit} out of range")
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (1 << k, 1 << k):
            raise CircuitError(
                f"matrix shape {matrix.shape} does not match {k}-qubit gate"
            )
        gate_tensor = matrix.reshape((2,) * (2 * k))
        # Contract the gate's input legs with the state's qubit axes.
        self._tensor = np.tensordot(gate_tensor, self._tensor, axes=(list(range(k, 2 * k)), qubits))
        # tensordot moves the contracted axes to the front; restore ordering.
        self._tensor = np.moveaxis(self._tensor, list(range(k)), qubits)

    def apply_instruction(self, instruction: Instruction) -> None:
        """Apply one circuit instruction."""
        self.apply_matrix(instruction.matrix(), instruction.qubits)

    def apply_circuit(self, circuit: QuantumCircuit) -> None:
        """Apply every instruction of a circuit in order."""
        if circuit.num_qubits != self.num_qubits:
            raise CircuitError("circuit and state have different qubit counts")
        for instruction in circuit.instructions:
            self.apply_instruction(instruction)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measurement_distribution(self, cutoff: float = 1e-12) -> Distribution:
        """Return the Born-rule outcome distribution as a :class:`Distribution`."""
        return Distribution.from_statevector_probabilities(
            self.probabilities(), self.num_qubits, cutoff=cutoff
        )


def simulate_statevector(circuit: QuantumCircuit) -> Statevector:
    """Run a circuit on the all-zero initial state and return the final state."""
    state = Statevector(circuit.num_qubits)
    state.apply_circuit(circuit)
    return state


def ideal_distribution(circuit: QuantumCircuit, cutoff: float = 1e-12) -> Distribution:
    """Noise-free measurement distribution of a circuit."""
    return simulate_statevector(circuit).measurement_distribution(cutoff=cutoff)
