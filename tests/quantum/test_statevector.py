"""Tests for the statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError
from repro.quantum import QuantumCircuit, Statevector, ideal_distribution, simulate_statevector


class TestInitialState:
    def test_starts_in_all_zero(self):
        state = Statevector(3)
        assert state.probability("000") == pytest.approx(1.0)
        assert state.norm() == pytest.approx(1.0)

    def test_custom_initial_data(self):
        state = Statevector(1, data=np.array([0, 1]))
        assert state.probability("1") == pytest.approx(1.0)

    def test_rejects_bad_size(self):
        with pytest.raises(CircuitError):
            Statevector(2, data=np.ones(3))

    def test_rejects_too_many_qubits(self):
        with pytest.raises(CircuitError):
            Statevector(30)


class TestKnownCircuits:
    def test_x_flips_bit(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = simulate_statevector(circuit)
        assert state.probability("10") == pytest.approx(1.0)

    def test_bell_state(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        probabilities = simulate_statevector(circuit).probabilities()
        assert probabilities[0b00] == pytest.approx(0.5)
        assert probabilities[0b11] == pytest.approx(0.5)

    def test_ghz_state(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        for qubit in range(3):
            circuit.cx(qubit, qubit + 1)
        dist = ideal_distribution(circuit)
        assert set(dist.outcomes()) == {"0000", "1111"}
        assert dist.probability("1111") == pytest.approx(0.5)

    def test_cx_respects_qubit_order(self):
        # Control = qubit 1, target = qubit 0.
        circuit = QuantumCircuit(2)
        circuit.x(1)
        circuit.cx(1, 0)
        state = simulate_statevector(circuit)
        assert state.probability("11") == pytest.approx(1.0)

    def test_superposition_phase_interference(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).z(0).h(0)
        state = simulate_statevector(circuit)
        assert state.probability("1") == pytest.approx(1.0)

    def test_amplitude_access(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        state = simulate_statevector(circuit)
        assert abs(state.amplitude("00")) == pytest.approx(1 / np.sqrt(2))

    def test_amplitude_rejects_wrong_width(self):
        with pytest.raises(CircuitError):
            Statevector(2).amplitude("0")


class TestUnitarity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_circuits_preserve_norm(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 5))
        circuit = QuantumCircuit(num_qubits)
        for _ in range(15):
            if rng.random() < 0.6:
                gate = rng.choice(["h", "x", "rx", "rz", "ry", "t", "sx"])
                qubit = int(rng.integers(0, num_qubits))
                if gate in ("rx", "rz", "ry"):
                    circuit.append(gate, [qubit], [float(rng.uniform(0, 2 * np.pi))])
                else:
                    circuit.append(gate, [qubit])
            else:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                circuit.append(rng.choice(["cx", "cz", "swap"]), [int(a), int(b)])
        state = simulate_statevector(circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-9)


class TestMeasurement:
    def test_measurement_distribution_matches_probabilities(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        dist = simulate_statevector(circuit).measurement_distribution()
        assert dist.probability("00") == pytest.approx(0.5)
        assert dist.probability("10") == pytest.approx(0.5)

    def test_uniform_superposition_measures_uniformly(self):
        circuit = QuantumCircuit(3)
        for qubit in range(3):
            circuit.h(qubit)
        dist = simulate_statevector(circuit).measurement_distribution()
        assert dist.outcomes() == [format(value, "03b") for value in range(8)]
        assert all(p == pytest.approx(1 / 8) for p in dist.probabilities().values())

    def test_cutoff_drops_negligible_outcomes(self):
        circuit = QuantumCircuit(2)
        circuit.rx(1e-7, 1)  # P(01) = sin^2(5e-8) ~ 2.5e-15
        state = simulate_statevector(circuit)
        assert state.measurement_distribution().outcomes() == ["00"]
        assert state.measurement_distribution(cutoff=0.0).outcomes() == ["00", "01"]

    def test_apply_circuit_rejects_width_mismatch(self):
        state = Statevector(2)
        with pytest.raises(CircuitError):
            state.apply_circuit(QuantumCircuit(3))

    def test_apply_matrix_rejects_bad_shape(self):
        state = Statevector(2)
        with pytest.raises(CircuitError):
            state.apply_matrix(np.eye(3), [0])
