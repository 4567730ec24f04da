"""Tests for entanglement entropy utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError
from repro.quantum import (
    QuantumCircuit,
    Statevector,
    entanglement_entropy,
    reduced_density_matrix,
    simulate_statevector,
    von_neumann_entropy,
)


def bell_state() -> Statevector:
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1)
    return simulate_statevector(circuit)


def product_state(num_qubits: int = 3) -> Statevector:
    circuit = QuantumCircuit(num_qubits)
    circuit.h(0).x(1)
    return simulate_statevector(circuit)


class TestReducedDensityMatrix:
    def test_bell_reduced_state_is_maximally_mixed(self):
        rho = reduced_density_matrix(bell_state(), [0])
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)

    def test_product_state_reduced_is_pure(self):
        rho = reduced_density_matrix(product_state(), [1])
        assert np.allclose(rho, np.array([[0, 0], [0, 1]]), atol=1e-10)

    def test_keep_all_qubits(self):
        state = product_state(2)
        rho = reduced_density_matrix(state, [0, 1])
        assert rho.shape == (4, 4)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_trace_is_one(self):
        rho = reduced_density_matrix(bell_state(), [1])
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_rejects_empty_subset(self):
        with pytest.raises(CircuitError):
            reduced_density_matrix(bell_state(), [])

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(CircuitError):
            reduced_density_matrix(bell_state(), [5])


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert von_neumann_entropy(rho) == pytest.approx(0.0)

    def test_maximally_mixed_qubit_has_one_bit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(CircuitError):
            von_neumann_entropy(np.ones((2, 3)))


class TestEntanglementEntropy:
    def test_bell_state_has_one_bit(self):
        assert entanglement_entropy(bell_state(), [0]) == pytest.approx(1.0)

    def test_product_state_has_zero(self):
        assert entanglement_entropy(product_state(), [0]) == pytest.approx(0.0, abs=1e-9)

    def test_default_partition(self):
        ghz = QuantumCircuit(4)
        ghz.h(0)
        for qubit in range(3):
            ghz.cx(qubit, qubit + 1)
        state = simulate_statevector(ghz)
        assert entanglement_entropy(state) == pytest.approx(1.0)

    def test_entropy_grows_with_entangling_gates(self):
        shallow = QuantumCircuit(4)
        shallow.h(0)
        deep = QuantumCircuit(4)
        deep.h(0).h(1).h(2).h(3).cx(0, 1).cx(2, 3).cz(1, 2).rx(0.7, 0).cx(0, 2)
        entropy_shallow = entanglement_entropy(simulate_statevector(shallow))
        entropy_deep = entanglement_entropy(simulate_statevector(deep))
        assert entropy_deep > entropy_shallow

    @pytest.mark.parametrize("partition", [[0], [0, 1], [1, 3], [0, 2, 3]])
    def test_ghz_has_one_bit_across_every_cut(self, partition):
        ghz = QuantumCircuit(4)
        ghz.h(0)
        for qubit in range(3):
            ghz.cx(qubit, qubit + 1)
        assert entanglement_entropy(simulate_statevector(ghz), partition) == pytest.approx(1.0)


def random_state(seed: int, num_qubits: int = 4) -> Statevector:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(12):
        qubit = int(rng.integers(num_qubits))
        circuit.ry(float(rng.uniform(0, np.pi)), qubit).rz(float(rng.uniform(0, np.pi)), qubit)
        circuit.cx(qubit, (qubit + 1) % num_qubits)
    return simulate_statevector(circuit)


class TestPureStateBipartitions:
    @given(st.integers(0, 10_000), st.sets(st.integers(0, 3), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_complementary_sides_have_equal_entropy(self, seed, side):
        state = random_state(seed)
        other = sorted(set(range(4)) - side)
        assert entanglement_entropy(state, sorted(side)) == pytest.approx(
            entanglement_entropy(state, other), abs=1e-8
        )

    @given(st.integers(0, 10_000), st.sets(st.integers(0, 3), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_entropy_is_bounded_by_the_smaller_side(self, seed, side):
        entropy = entanglement_entropy(random_state(seed), sorted(side))
        assert -1e-9 <= entropy <= min(len(side), 4 - len(side)) + 1e-9
