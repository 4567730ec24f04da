"""Tests for the gate library: unitarity, registry behaviour, known matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError
from repro.quantum.gates import (
    GATE_REGISTRY,
    controlled_gate_matrix,
    gate_definition,
    gate_matrix,
    is_parametric_gate,
    is_two_qubit_gate,
)

angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)


def _is_unitary(matrix: np.ndarray) -> bool:
    return np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]), atol=1e-10)


class TestRegistry:
    def test_all_fixed_gates_are_unitary(self):
        for name, definition in GATE_REGISTRY.items():
            if definition.num_params == 0:
                assert _is_unitary(definition.matrix()), f"{name} is not unitary"

    @given(angles)
    @settings(max_examples=25)
    def test_parametric_single_qubit_gates_are_unitary(self, theta):
        for name in ("rx", "ry", "rz", "p"):
            assert _is_unitary(gate_matrix(name, [theta]))

    @given(angles, angles, angles)
    @settings(max_examples=20)
    def test_u3_is_unitary(self, theta, phi, lam):
        assert _is_unitary(gate_matrix("u3", [theta, phi, lam]))

    @given(angles)
    @settings(max_examples=20)
    def test_two_qubit_parametric_gates_are_unitary(self, theta):
        assert _is_unitary(gate_matrix("rzz", [theta]))
        assert _is_unitary(gate_matrix("cp", [theta]))

    def test_unknown_gate_rejected(self):
        with pytest.raises(CircuitError):
            gate_definition("toffoli")

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(CircuitError):
            gate_matrix("rx", [])
        with pytest.raises(CircuitError):
            gate_matrix("h", [0.3])

    def test_case_insensitive_lookup(self):
        assert gate_definition("CX").name == "cx"


class TestKnownMatrices:
    def test_x_matrix(self):
        assert np.allclose(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_h_squares_to_identity(self):
        h = gate_matrix("h")
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)

    def test_sx_squares_to_x(self):
        sx = gate_matrix("sx")
        assert np.allclose(sx @ sx, gate_matrix("x"), atol=1e-12)

    def test_s_squares_to_z(self):
        s = gate_matrix("s")
        assert np.allclose(s @ s, gate_matrix("z"), atol=1e-12)

    def test_rz_pi_equals_z_up_to_phase(self):
        rz = gate_matrix("rz", [np.pi])
        z = gate_matrix("z")
        phase = rz[0, 0] / z[0, 0]
        assert np.allclose(rz, phase * z, atol=1e-12)

    def test_cx_action(self):
        cx = gate_matrix("cx")
        # |10> (control=1, target=0) -> |11>
        state = np.zeros(4)
        state[2] = 1.0
        assert np.allclose(cx @ state, [0, 0, 0, 1])

    def test_cz_is_diagonal(self):
        assert np.allclose(gate_matrix("cz"), np.diag([1, 1, 1, -1]))

    def test_swap_action(self):
        swap = gate_matrix("swap")
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert np.allclose(swap @ state, [0, 0, 1, 0])  # -> |10>

    def test_cp_phases_only_the_one_one_state(self):
        theta = 0.8
        assert np.allclose(gate_matrix("cp", [theta]), np.diag([1, 1, 1, np.exp(1j * theta)]))

    def test_rzz_diagonal_phases(self):
        theta = 0.8
        rzz = gate_matrix("rzz", [theta])
        assert np.allclose(np.diag(rzz), [
            np.exp(-1j * theta / 2),
            np.exp(1j * theta / 2),
            np.exp(1j * theta / 2),
            np.exp(-1j * theta / 2),
        ])


class TestHelpers:
    def test_is_two_qubit_gate(self):
        assert is_two_qubit_gate("cx")
        assert not is_two_qubit_gate("h")

    def test_is_parametric_gate(self):
        assert is_parametric_gate("rx")
        assert not is_parametric_gate("x")

    def test_controlled_gate_matrix(self):
        cx_built = controlled_gate_matrix(gate_matrix("x"))
        assert np.allclose(cx_built, gate_matrix("cx"))

    def test_controlled_gate_matrix_rejects_bad_shape(self):
        with pytest.raises(CircuitError):
            controlled_gate_matrix(np.eye(4))
