"""Benchmark circuit generators: BV, GHZ, QAOA, random identity."""

from repro.circuits.bv import bernstein_vazirani, bv_correct_outcome, bv_secret_key, random_bv_key
from repro.circuits.ghz import ghz_circuit, ghz_correct_outcomes
from repro.circuits.qaoa import QaoaParameters, default_qaoa_parameters, qaoa_circuit
from repro.circuits.random_identity import (
    RandomIdentitySpec,
    identity_correct_outcome,
    random_identity_circuit,
    random_unitary_circuit,
)

__all__ = [
    "bernstein_vazirani",
    "bv_correct_outcome",
    "bv_secret_key",
    "random_bv_key",
    "ghz_circuit",
    "ghz_correct_outcomes",
    "QaoaParameters",
    "default_qaoa_parameters",
    "qaoa_circuit",
    "RandomIdentitySpec",
    "identity_correct_outcome",
    "random_identity_circuit",
    "random_unitary_circuit",
]
