"""Entanglement entropy of pure states (Section 7 characterisation).

The paper's Section 7 benchmarks (H·U_R·U_R†·H circuits) quantify the degree
of entanglement generated by the random sub-circuit as the entanglement
entropy of the state after ``H·U_R``, computed from ideal simulation.  We
implement the standard bipartite von Neumann entropy via the reduced density
matrix of a qubit subset.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum.statevector import Statevector

__all__ = [
    "reduced_density_matrix",
    "von_neumann_entropy",
    "entanglement_entropy",
]


def reduced_density_matrix(state: Statevector, keep_qubits: Sequence[int]) -> np.ndarray:
    """Partial trace of a pure state keeping only ``keep_qubits``.

    Returns the reduced density matrix of dimension ``2**len(keep_qubits)``.
    """
    keep = sorted(set(int(q) for q in keep_qubits))
    if not keep:
        raise CircuitError("keep_qubits must not be empty")
    for qubit in keep:
        if not 0 <= qubit < state.num_qubits:
            raise CircuitError(f"qubit {qubit} out of range")
    if len(keep) >= state.num_qubits:
        vector = state.vector
        return np.outer(vector, vector.conj())
    traced = [q for q in range(state.num_qubits) if q not in keep]
    tensor = state.vector.reshape((2,) * state.num_qubits)
    # Move kept axes to the front, then flatten into (kept, traced) blocks.
    ordered = np.moveaxis(tensor, keep + traced, range(state.num_qubits))
    matrix = ordered.reshape(2 ** len(keep), 2 ** len(traced))
    return matrix @ matrix.conj().T


def von_neumann_entropy(density_matrix: np.ndarray, base: float = 2.0) -> float:
    """Von Neumann entropy ``-Tr(rho log rho)`` of a density matrix."""
    density_matrix = np.asarray(density_matrix, dtype=complex)
    if density_matrix.ndim != 2 or density_matrix.shape[0] != density_matrix.shape[1]:
        raise CircuitError("density matrix must be square")
    eigenvalues = np.linalg.eigvalsh(density_matrix)
    eigenvalues = np.clip(eigenvalues.real, 0.0, 1.0)
    nonzero = eigenvalues[eigenvalues > 1e-12]
    if nonzero.size == 0:
        return 0.0
    return float(-np.sum(nonzero * np.log(nonzero) / np.log(base)))


def entanglement_entropy(
    state: Statevector, partition: Sequence[int] | None = None
) -> float:
    """Bipartite entanglement entropy of a pure state.

    Parameters
    ----------
    partition:
        Qubits forming one side of the bipartition; defaults to the first
        half of the register (the convention used by the Section 7 study).
    """
    if partition is None:
        partition = list(range(state.num_qubits // 2)) or [0]
    reduced = reduced_density_matrix(state, partition)
    return von_neumann_entropy(reduced)
