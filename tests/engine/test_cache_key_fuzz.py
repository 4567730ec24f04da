"""Fuzz test: job pairs differing in exactly one dimension never collide.

The engine's content-addressed cache must keep two jobs apart whenever they
differ in any one of: circuit, backend, coupling map, calibration
fingerprint, or seed entropy.  Hypothesis draws a base job configuration and
a single dimension to perturb; the perturbed job's keys must differ from the
base exactly where that dimension participates (and a re-derivation of the
base keys must stay stable).
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.calibration import synthetic_snapshot
from repro.circuits.bv import bernstein_vazirani
from repro.engine.hashing import (
    circuit_fingerprint,
    ideal_key,
    noise_fingerprint,
    sample_key,
    transpile_key,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.coupling import linear_coupling, ring_coupling
from repro.quantum.device import DeviceProfile
from repro.quantum.noise import NoiseModel

_GATES_1Q = ("h", "s", "x", "z")
_BASIS = ("rz", "sx", "x", "cx")


@st.composite
def small_circuits(draw) -> QuantumCircuit:
    num_qubits = draw(st.integers(3, 5))
    circuit = QuantumCircuit(num_qubits, name="fuzz")
    for _ in range(draw(st.integers(1, 10))):
        if num_qubits >= 2 and draw(st.booleans()):
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            circuit.append("cx", [a, b])
        else:
            circuit.append(draw(st.sampled_from(_GATES_1Q)), [draw(st.integers(0, num_qubits - 1))])
    return circuit


@lru_cache(maxsize=None)
def _calibrated(num_qubits: int, seed: int) -> NoiseModel:
    profile = DeviceProfile(
        name=f"fuzz-{num_qubits}",
        num_qubits=num_qubits,
        coupling_map=linear_coupling(num_qubits),
        noise_model=NoiseModel(),
    )
    return NoiseModel().with_calibration(synthetic_snapshot(profile, seed=seed, spread=0.3))


def _job_keys(circuit, noise_model, coupling, entropy, backend):
    """The three cache keys the engine derives for one job."""
    return (
        transpile_key(circuit, coupling, _BASIS),
        ideal_key(circuit, backend=backend),
        sample_key(circuit, noise_model, 1024, "bitflip", entropy, backend=backend),
    )


class TestSingleDimensionDivergence:
    @given(
        base=small_circuits(),
        other=small_circuits(),
        dimension=st.sampled_from(
            ["circuit", "backend", "coupling", "calibration", "entropy"]
        ),
        seed_pair=st.tuples(st.integers(0, 50), st.integers(0, 50)),
        entropy=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 1023)),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_perturbing_one_dimension_changes_the_right_key(
        self, base, other, dimension, seed_pair, entropy
    ):
        noise_model = _calibrated(base.num_qubits, seed_pair[0])
        coupling = linear_coupling(base.num_qubits)
        keys = _job_keys(base, noise_model, coupling, entropy, "statevector")
        # Stability: deriving the same keys twice is bit-identical.
        assert keys == _job_keys(base, noise_model, coupling, entropy, "statevector")

        if dimension == "circuit":
            assume(circuit_fingerprint(other) != circuit_fingerprint(base))
            perturbed = _job_keys(other, _calibrated(other.num_qubits, seed_pair[0]),
                                  linear_coupling(other.num_qubits), entropy, "statevector")
            assert perturbed[0] != keys[0]
            assert perturbed[1] != keys[1]
            assert perturbed[2] != keys[2]
        elif dimension == "backend":
            perturbed = _job_keys(base, noise_model, coupling, entropy, "stabilizer")
            assert perturbed[0] == keys[0]  # transpilation is backend-free
            assert perturbed[1] != keys[1]
            assert perturbed[2] != keys[2]
        elif dimension == "coupling":
            perturbed = _job_keys(base, noise_model, ring_coupling(base.num_qubits),
                                  entropy, "statevector")
            assert perturbed[0] != keys[0]
        elif dimension == "calibration":
            assume(seed_pair[0] != seed_pair[1])
            recalibrated = _calibrated(base.num_qubits, seed_pair[1])
            assume(
                noise_fingerprint(recalibrated) != noise_fingerprint(noise_model)
            )
            perturbed = _job_keys(base, recalibrated, coupling, entropy, "statevector")
            assert perturbed[2] != keys[2]
            assert perturbed[0] == keys[0] and perturbed[1] == keys[1]
        else:  # entropy
            shifted = (entropy[0], entropy[1] + 1)
            perturbed = _job_keys(base, noise_model, coupling, shifted, "statevector")
            assert perturbed[2] != keys[2]
            assert perturbed[0] == keys[0] and perturbed[1] == keys[1]


class TestKnownCollisionTraps:
    def test_uniform_vs_calibrated_with_identical_medians(self):
        uniform = NoiseModel()
        calibrated = _calibrated(4, 0)
        circuit = QuantumCircuit(4).h(0).cx(0, 1)
        assert sample_key(circuit, uniform, 1024, "bitflip", (0, 0)) != sample_key(
            circuit, calibrated, 1024, "bitflip", (0, 0)
        )

    def test_backends_split_the_ideal_namespace(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1)
        assert ideal_key(circuit, backend="statevector") != ideal_key(
            circuit, backend="stabilizer"
        )

    def test_entropy_tuple_length_matters(self):
        # (1, 2) vs (1,) then 2 folded elsewhere must not alias.
        circuit = QuantumCircuit(3).h(0)
        model = NoiseModel()
        assert sample_key(circuit, model, 64, "bitflip", (1, 2)) != sample_key(
            circuit, model, 64, "bitflip", (1,)
        )

    def test_method_and_shots_still_split_keys(self):
        circuit = QuantumCircuit(3).h(0)
        model = NoiseModel()
        base = sample_key(circuit, model, 64, "bitflip", (0, 0))
        assert base != sample_key(circuit, model, 128, "bitflip", (0, 0))
        assert base != sample_key(circuit, model, 64, "trajectory", (0, 0))


class TestPinnedSampleKeys:
    def test_sample_key_digests_are_stable(self):
        """Persistent ``--cache-dir`` entries stay valid: the digests never move."""
        circuit = bernstein_vazirani("10110")
        args = (circuit, NoiseModel(), 1_024, "bitflip", (0, 0))
        assert sample_key(*args) == (
            "8d3f400ecb99cddf1c1a912a32270cf34db7730c319e48ba1ed6d52784f11e1a"
        )
        assert sample_key(*args, shard_shots=256) == (
            "f9b103e3d934f25fc73cf0f0de2af9a7dba367e7888bf01be1b6bbf2a32d0e70"
        )
