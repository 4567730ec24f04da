"""Dense statevector backend (any gate set, unchanged numerics).

Thin adapter over :mod:`repro.quantum.statevector`.  The engine's ideal
phase historically ran ``simulate_statevector(circuit).measurement_distribution()``
verbatim; this backend performs exactly that call, so every pre-backend
study row stays bit-identical on it.  It runs every non-Clifford job under
``"auto"`` and any job that names ``backend="statevector"``.
"""

from __future__ import annotations

from repro.backends.base import SimulatorBackend
from repro.core.distribution import Distribution
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import _MAX_DENSE_QUBITS, simulate_statevector

__all__ = ["StatevectorBackend"]


class StatevectorBackend(SimulatorBackend):
    """Dense ``O(2^n)`` simulation of arbitrary gate sets (≤ 24 qubits)."""

    name = "statevector"
    description = "dense tensor simulation, any gate set, up to 24 qubits"

    def max_qubits(self) -> int | None:
        return _MAX_DENSE_QUBITS

    def ideal_distribution(self, circuit: QuantumCircuit) -> Distribution:
        return simulate_statevector(circuit).measurement_distribution()
