"""``StabilizerState.apply_circuit`` on bit columns against the per-primitive methods.

``apply_circuit`` runs the lowered primitives on Python-int columns and
writes them back into the packed rows; ``_per_primitive`` applies the same
primitives one at a time through the single-gate methods (``h``, ``s``,
``cx``, …), the path ``apply_circuit`` took before.  The tableaux must be
identical (``x``, ``z`` and ``r`` compared with ``np.array_equal``), for one
and several uint64 words per row and for a state that already ran a circuit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends.clifford import lower_to_primitives
from repro.backends.stabilizer import StabilizerState
from repro.exceptions import BackendError
from repro.quantum.circuit import Instruction, QuantumCircuit
from strategies import EXTENDED_CLIFFORD_1Q, EXTENDED_CLIFFORD_2Q, clifford_circuits  # tests/backends/strategies.py

_SETTINGS = dict(deadline=None, derandomize=True)


_METHODS = {
    "h": StabilizerState.h,
    "s": StabilizerState.s,
    "x": StabilizerState.x_gate,
    "y": StabilizerState.y_gate,
    "z": StabilizerState.z_gate,
    "cx": StabilizerState.cx,
}


def _per_primitive(state: StabilizerState, circuit: QuantumCircuit) -> None:
    for instruction in circuit.instructions:
        for primitive in lower_to_primitives(instruction):
            _METHODS[primitive[0]](state, *primitive[1:])


def _assert_same_tableau(left: StabilizerState, right: StabilizerState) -> None:
    assert np.array_equal(left.x, right.x)
    assert np.array_equal(left.z, right.z)
    assert np.array_equal(left.r, right.r)


def _both(circuit: QuantumCircuit) -> tuple[StabilizerState, StabilizerState]:
    columns = StabilizerState(circuit.num_qubits)
    columns.apply_circuit(circuit)
    reference = StabilizerState(circuit.num_qubits)
    _per_primitive(reference, circuit)
    return columns, reference


_WIDE = dict(
    single_gates=EXTENDED_CLIFFORD_1Q,
    two_gates=EXTENDED_CLIFFORD_2Q,
    include_rotations=True,
)


class TestColumnsMatchPrimitives:
    @given(circuit=clifford_circuits(min_qubits=1, max_qubits=8, max_gates=60, **_WIDE))
    @settings(max_examples=80, **_SETTINGS)
    def test_one_word_rows(self, circuit):
        _assert_same_tableau(*_both(circuit))

    @given(circuit=clifford_circuits(min_qubits=60, max_qubits=130, max_gates=120, **_WIDE))
    @settings(max_examples=25, **_SETTINGS)
    def test_up_to_three_word_rows(self, circuit):
        _assert_same_tableau(*_both(circuit))

    @given(
        first=clifford_circuits(min_qubits=65, max_qubits=65, max_gates=60, **_WIDE),
        second=clifford_circuits(min_qubits=65, max_qubits=65, max_gates=60, **_WIDE),
    )
    @settings(max_examples=15, **_SETTINGS)
    def test_a_state_that_already_ran_a_circuit(self, first, second):
        columns, reference = _both(first)
        columns.apply_circuit(second)
        _per_primitive(reference, second)
        _assert_same_tableau(columns, reference)

    def test_the_fig8_cold_circuits(self, workload_runs):
        circuits = [result.executed_circuit for result in workload_runs["fig8-cold"].results]
        assert len(circuits) == 9
        for circuit in circuits:
            columns, reference = _both(circuit)
            _assert_same_tableau(columns, reference)
            # Twice on the same state: the columns are re-read from the written rows.
            columns.apply_circuit(circuit)
            _per_primitive(reference, circuit)
            _assert_same_tableau(columns, reference)
            assert columns.measurement_distribution() == reference.measurement_distribution()


class TestErrors:
    def test_cx_control_must_differ_from_target(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1)
        circuit.instructions.append(Instruction("cx", (2, 2)))
        columns = StabilizerState(3)
        with pytest.raises(BackendError, match="cx control and target must differ"):
            columns.apply_circuit(circuit)
        # The primitives before the bad one were applied, as the per-gate path applies them.
        reference = StabilizerState(3)
        reference.h(0)
        reference.cx(0, 1)
        _assert_same_tableau(columns, reference)
        with pytest.raises(BackendError, match="cx control and target must differ"):
            StabilizerState(3).cx(1, 1)

    @pytest.mark.parametrize(
        "instruction", [Instruction("h", (5,)), Instruction("cx", (0, 7)), Instruction("x", (-1,))]
    )
    def test_out_of_range_qubits(self, instruction):
        circuit = QuantumCircuit(3).x(1)
        circuit.instructions.append(instruction)
        with pytest.raises(BackendError) as columns_error:
            StabilizerState(3).apply_circuit(circuit)
        with pytest.raises(BackendError) as reference_error:
            _per_primitive(StabilizerState(3), circuit)
        assert str(columns_error.value) == str(reference_error.value)
