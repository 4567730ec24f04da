"""Unit tests for the packed-tableau stabilizer simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from strategies import clifford_circuits  # tests/backends/strategies.py

from repro.backends import (
    StabilizerBackend,
    StabilizerState,
    StatevectorBackend,
    get_backend,
    resolve_backend,
    simulate_stabilizer,
    stabilizer_distribution,
)
from repro.circuits.bv import bernstein_vazirani, bv_secret_key
from repro.circuits.ghz import ghz_circuit, ghz_correct_outcomes
from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import ideal_distribution


class TestKnownStates:
    def test_all_zero_state(self):
        circuit = QuantumCircuit(3)
        dist = stabilizer_distribution(circuit)
        assert dist.probabilities() == {"000": 1.0}

    @pytest.mark.parametrize("key", ["1", "101", "1111", "1001101"])
    def test_bv_recovers_the_key_exactly(self, key):
        dist = stabilizer_distribution(bernstein_vazirani(key))
        assert dist.probabilities() == {key: 1.0}

    @pytest.mark.parametrize("num_qubits", [2, 5, 10])
    def test_ghz_two_outcome_support(self, num_qubits):
        dist = stabilizer_distribution(ghz_circuit(num_qubits))
        assert dist.outcomes() == ghz_correct_outcomes(num_qubits)
        assert dist.probability("0" * num_qubits) == pytest.approx(0.5)
        assert dist.probability("1" * num_qubits) == pytest.approx(0.5)

    def test_plus_state_is_uniform(self):
        circuit = QuantumCircuit(2).h(0).h(1)
        dist = stabilizer_distribution(circuit)
        assert dist.num_outcomes == 4
        assert all(p == pytest.approx(0.25) for p in dist.probabilities().values())

    def test_support_is_in_ascending_order(self):
        # Matches the statevector constructor's order — the property that
        # keeps downstream sampling streams aligned between backends.
        circuit = QuantumCircuit(4).h(0).h(2).cx(0, 1)
        dist = stabilizer_distribution(circuit)
        values = [int(outcome, 2) for outcome in dist.outcomes()]
        assert values == sorted(values)


class TestSupportDimension:
    """``support_dimension`` counts the measurement's random bits."""

    @pytest.mark.parametrize(
        ("circuit", "dimension"),
        [
            (bernstein_vazirani("1011"), 0),
            (ghz_circuit(6), 1),
            (QuantumCircuit(5).h(0).h(2).h(4), 3),
        ],
        ids=["bv", "ghz", "three-plus"],
    )
    def test_known_states(self, circuit, dimension):
        assert simulate_stabilizer(circuit).support_dimension() == dimension

    @given(clifford_circuits())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_measured_support(self, circuit):
        state = simulate_stabilizer(circuit)
        dimension = state.support_dimension()
        dist = state.measurement_distribution()
        assert dist.num_outcomes == 2**dimension
        assert all(p == pytest.approx(2.0**-dimension) for p in dist.probabilities().values())


class TestWideRegisters:
    def test_bv_across_the_word_boundary(self):
        # 70 qubits spans two uint64 words; the packing layout (right-aligned
        # final word) must match core.bitstring exactly.
        key = ("10" * 35)[:70]
        dist = stabilizer_distribution(bernstein_vazirani(key))
        assert dist.probabilities() == {key: 1.0}

    def test_ghz_127(self):
        dist = stabilizer_distribution(ghz_circuit(127))
        assert dist.outcomes() == ["0" * 127, "1" * 127]

    def test_width_limit_is_enforced(self):
        with pytest.raises(BackendError, match="4096"):
            StabilizerState(5000)


class TestErrors:
    def test_non_clifford_gate_raises(self):
        circuit = QuantumCircuit(2).h(0).t(0)
        with pytest.raises(BackendError, match="non-Clifford"):
            stabilizer_distribution(circuit)

    def test_non_quarter_rotation_raises(self):
        circuit = QuantumCircuit(1).rz(0.3, 0)
        with pytest.raises(BackendError):
            stabilizer_distribution(circuit)

    def test_support_enumeration_limit(self):
        wide_uniform = QuantumCircuit(30)
        for qubit in range(30):
            wide_uniform.h(qubit)
        with pytest.raises(BackendError, match="enumeration"):
            stabilizer_distribution(wide_uniform, max_free_bits=8)

    def test_width_mismatch_raises(self):
        state = StabilizerState(2)
        with pytest.raises(BackendError):
            state.apply_circuit(QuantumCircuit(3).h(0))


class TestBackendRegistry:
    def test_registry_exposes_both_backends(self):
        assert isinstance(get_backend("statevector"), StatevectorBackend)
        assert isinstance(get_backend("stabilizer"), StabilizerBackend)
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("density-matrix")

    def test_auto_dispatch_picks_stabilizer_for_clifford(self):
        # BV is Clifford at any width, so auto picks the tableau narrow or
        # wide, where the dense backend (at most 24 qubits) cannot follow.
        keys = ["1011", bv_secret_key(14, "alternating"), bv_secret_key(50, "alternating")]
        for key in keys:
            clifford = bernstein_vazirani(key)
            backend = resolve_backend("auto", clifford)
            assert backend.name == "stabilizer"
            assert backend.ideal_distribution(clifford).probabilities() == {key: 1.0}
        dense = get_backend("statevector").ideal_distribution(bernstein_vazirani(keys[1]))
        assert dense.probabilities() == {keys[1]: 1.0}

    def test_auto_dispatch_falls_back_for_non_clifford(self):
        circuit = QuantumCircuit(3).h(0).t(0)
        assert resolve_backend("auto", circuit).name == "statevector"

    def test_auto_dispatch_fails_cleanly_when_nothing_fits(self):
        wide_t = QuantumCircuit(30).h(0).t(0)
        with pytest.raises(BackendError, match="no backend"):
            resolve_backend("auto", wide_t)

    def test_auto_falls_back_to_dense_for_wide_superpositions(self):
        # 16-qubit all-H is Clifford but measures into 2**16 outcomes —
        # beyond the tableau's enumeration limit.  Auto must notice (the
        # support-dimension check is one cheap Gaussian elimination) and
        # hand the circuit to the dense backend instead of crashing.
        superposition = QuantumCircuit(16)
        for qubit in range(16):
            superposition.h(qubit)
        assert resolve_backend("auto", superposition).name == "statevector"
        with pytest.raises(BackendError, match="enumeration"):
            resolve_backend("stabilizer", superposition)

    def test_auto_reports_enumeration_limit_when_nothing_fits(self):
        wide_superposition = QuantumCircuit(30)
        for qubit in range(30):
            wide_superposition.h(qubit)
        with pytest.raises(BackendError, match="no backend.*enumeration"):
            resolve_backend("auto", wide_superposition)

    def test_explicit_stabilizer_validates_gate_set(self):
        circuit = QuantumCircuit(2).h(0).rz(0.7, 1)
        with pytest.raises(BackendError, match="non-Clifford"):
            resolve_backend("stabilizer", circuit)

    def test_statevector_backend_matches_direct_simulation(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        via_backend = get_backend("statevector").ideal_distribution(circuit)
        assert via_backend == ideal_distribution(circuit)

    def test_probe_and_ideal_share_one_tableau_pass(self, monkeypatch):
        # The dispatch probe (support-dimension check) and ideal_distribution
        # must reuse one simulation, and duplicate-content jobs in a batch
        # must resolve once — not one tableau pass per job.
        import repro.backends.stabilizer as stabilizer_module
        from repro.engine import CircuitJob, ExecutionEngine
        from repro.quantum.noise import NoiseModel

        passes = []
        original = stabilizer_module.StabilizerState.apply_circuit

        def counting(self, circuit):
            passes.append(circuit.name)
            return original(self, circuit)

        monkeypatch.setattr(stabilizer_module.StabilizerState, "apply_circuit", counting)
        jobs = [
            CircuitJob(job_id=f"dup-{i}", circuit=bernstein_vazirani("1" * 40),
                       shots=64, noise_model=NoiseModel(), backend="stabilizer")
            for i in range(3)
        ]
        ExecutionEngine().run(jobs, seed=0)
        assert len(passes) == 1
