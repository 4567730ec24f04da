"""Multi-backend ideal-simulation layer.

A :class:`~repro.backends.base.SimulatorBackend` turns a circuit into its
noise-free measurement distribution.  Two implementations register here at
import time — the dense :class:`StatevectorBackend` (any gate set,
bit-identical numerics) and the packed-tableau :class:`StabilizerBackend`
(exact and fast for Clifford circuits at device-scale widths) — plus the
``"auto"`` dispatch rule that picks the stabilizer whenever the (transpiled)
circuit is Clifford, which is what a bit-flip job that names no backend
uses.  The execution engine routes its ideal phase through this registry
and folds the resolved backend into its cache keys.
"""

from repro.backends.base import (
    AUTO_BACKEND,
    SimulatorBackend,
    available_backends,
    backend_rows,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.clifford import (
    first_non_clifford,
    is_clifford_circuit,
    is_clifford_instruction,
)
from repro.backends.stabilizer import (
    StabilizerState,
    simulate_stabilizer,
    stabilizer_distribution,
)
from repro.backends.stabilizer_backend import StabilizerBackend
from repro.backends.statevector_backend import StatevectorBackend

register_backend(StatevectorBackend())
register_backend(StabilizerBackend())

__all__ = [
    "AUTO_BACKEND",
    "SimulatorBackend",
    "StatevectorBackend",
    "StabilizerBackend",
    "StabilizerState",
    "available_backends",
    "backend_rows",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "is_clifford_circuit",
    "is_clifford_instruction",
    "first_non_clifford",
    "simulate_stabilizer",
    "stabilizer_distribution",
]
