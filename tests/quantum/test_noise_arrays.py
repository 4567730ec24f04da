"""Per-gate noise arrays read from the instruction table, against the instruction walk.

``_reference_flips`` and ``_reference_scramble`` are the walks over
``circuit.instructions`` that ``NoiseModel.accumulated_bitflip_probabilities``
and ``scramble_probability`` replaced.  The table-built arrays must equal
them exactly (``np.array_equal`` for the flips, ``==`` for the scramble
probability): the survival products multiply in the same order, so the
bit-flip sampler draws the same histograms.  Errors must match too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import CalibrationSnapshot, synthetic_snapshot
from repro.exceptions import NoiseModelError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.coupling import linear_coupling
from repro.quantum.device import DeviceProfile
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError

_SETTINGS = dict(deadline=None, derandomize=True)
_ONE_QUBIT = ("h", "x", "sx", "rz", "t", "u3")
_TWO_QUBIT = ("cx", "cz", "swap", "rzz")


def _reference_flips(model: NoiseModel, circuit: QuantumCircuit) -> np.ndarray:
    num_qubits = circuit.num_qubits
    model.require_width(num_qubits)
    survival = np.ones(num_qubits, dtype=float)
    two_qubit_neighbors = [0] * num_qubits
    for instruction in circuit.instructions:
        if instruction.num_qubits == 2:
            for qubit in instruction.qubits:
                two_qubit_neighbors[qubit] += 1
    for instruction in circuit.instructions:
        flip = PauliNoise.depolarizing(model.gate_error(instruction)).bitflip_probability
        for qubit in instruction.qubits:
            survival[qubit] *= 1.0 - flip
    frontier = [0] * num_qubits
    for instruction in circuit.instructions:
        level = max(frontier[q] for q in instruction.qubits) + 1
        for qubit in instruction.qubits:
            frontier[qubit] = level
    depth = max(frontier) if frontier else 0
    if model.calibration is None:
        if model.idle_error_per_layer > 0 and depth > 0:
            idle_flip = PauliNoise.depolarizing(
                min(1.0, model.idle_error_per_layer * depth)
            ).bitflip_probability
            survival *= 1.0 - idle_flip
    elif depth > 0:
        idle = np.minimum(1.0, model.idle_rates(num_qubits) * depth)
        survival *= 1.0 - (2.0 / 3.0) * idle
    if model.crosstalk_error > 0:
        for qubit in range(num_qubits):
            exposure = min(1.0, model.crosstalk_error * two_qubit_neighbors[qubit])
            survival[qubit] *= 1.0 - (2.0 / 3.0) * exposure
    return 1.0 - survival


def _reference_scramble(model: NoiseModel, circuit: QuantumCircuit) -> float:
    if model.calibration is not None:
        survival = 1.0
        for instruction in circuit.instructions:
            if instruction.num_qubits == 2:
                survival *= 1.0 - 0.5 * model.calibration.edge_error(*instruction.qubits)
        return float(1.0 - survival)
    count = sum(1 for instruction in circuit.instructions if instruction.num_qubits == 2)
    return float(1.0 - (1.0 - model.two_qubit_error * 0.5) ** count)


def _calibrated(num_qubits: int, seed: int, spread: float, edges=None) -> NoiseModel:
    coupling = linear_coupling(num_qubits) if edges is None else edges
    profile = DeviceProfile(
        name=f"arrays-{num_qubits}", num_qubits=num_qubits, coupling_map=coupling, noise_model=NoiseModel()
    )
    return NoiseModel().with_calibration(synthetic_snapshot(profile, seed=seed, spread=spread))


def _assert_same(model, circuit):
    assert np.array_equal(
        model.accumulated_bitflip_probabilities(circuit), _reference_flips(model, circuit)
    )
    assert model.scramble_probability(circuit) == _reference_scramble(model, circuit)


@st.composite
def circuits(draw) -> QuantumCircuit:
    num_qubits = draw(st.integers(1, 9))
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(0, 80))):
        if num_qubits > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.integers(0, num_qubits - 1), min_size=2, max_size=2, unique=True))
            name = draw(st.sampled_from(_TWO_QUBIT))
            circuit.append(name, [a, b], [0.3] if name == "rzz" else [])
        else:
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = {"rz": [0.1], "u3": [0.1, 0.2, 0.3]}.get(name, [])
            circuit.append(name, [draw(st.integers(0, num_qubits - 1))], params)
    return circuit


_RATES = st.floats(0.0, 1.0, allow_nan=False)


class TestAgainstTheInstructionWalk:
    @given(
        circuit=circuits(),
        single=_RATES,
        two=_RATES,
        idle=st.floats(0.0, 0.05),
        crosstalk=st.sampled_from([0.0, 0.003, 0.5]),
    )
    @settings(max_examples=120, **_SETTINGS)
    def test_uniform_models(self, circuit, single, two, idle, crosstalk):
        model = NoiseModel(
            single_qubit_error=single,
            two_qubit_error=two,
            readout_error=ReadoutError(0.01, 0.02),
            idle_error_per_layer=idle,
            crosstalk_error=crosstalk,
        )
        _assert_same(model, circuit)

    @given(
        circuit=circuits(),
        extra=st.integers(0, 4),
        seed=st.integers(0, 50),
        spread=st.sampled_from([0.0, 0.3, 0.9]),
        scale=st.sampled_from([1.0, 7.0, 80.0]),
        crosstalk=st.sampled_from([0.0, 0.004]),
    )
    @settings(max_examples=120, **_SETTINGS)
    def test_calibrated_models(self, circuit, extra, seed, spread, scale, crosstalk):
        # Linear couplers only: gates on other pairs take the median fallback.
        model = _calibrated(circuit.num_qubits + extra, seed, spread).scaled(scale)
        model = dataclasses.replace(model, crosstalk_error=crosstalk)
        _assert_same(model, circuit)

    @pytest.mark.parametrize("workload", ["fig8-cold", "zoo-warm"])
    def test_every_benchmark_circuit(self, workload_runs, workload):
        run = workload_runs[workload]
        for job, result in zip(run.jobs, run.results):
            for model in (job.noise_model, job.noise_model.with_calibration(None)):
                _assert_same(model, result.executed_circuit)

    def test_an_edgeless_calibration(self):
        snapshot = CalibrationSnapshot(
            device_name="bare",
            num_qubits=3,
            p10=[0.01] * 3,
            p01=[0.02] * 3,
            single_qubit_error=[0.001, 0.002, 0.003],
            idle_error_per_layer=[0.0] * 3,
            edges=(),
            two_qubit_error=[],
        )
        model = NoiseModel().with_calibration(snapshot)
        _assert_same(model, QuantumCircuit(3).h(0).cx(0, 1).cz(2, 1).rz(0.2, 2))


def _raised(fn, *args):
    """``(exception type, message)`` of a call, or ``(None, result)`` when it returns."""
    try:
        result = fn(*args)
    except Exception as error:  # noqa: BLE001 - every error type is compared
        return type(error), str(error)
    return None, result.tolist()


def _hand_built(num_qubits, instructions):
    circuit = QuantumCircuit(num_qubits)
    circuit.instructions = list(instructions)
    return circuit


class TestErrorsMatch:
    @pytest.mark.parametrize(
        "circuit",
        [
            QuantumCircuit(6).h(0).cx(0, 5),
            _hand_built(4, [Instruction("h", (0,)), Instruction("x", (7,)), Instruction("cx", (0, 9))]),
            _hand_built(4, [Instruction("cx", (0, 1)), Instruction("rz", (5,), (0.1,))]),
            _hand_built(4, [Instruction("cx", (0, 6))]),
            _hand_built(4, [Instruction("h", (0,)), Instruction("barrier", ())]),
            _hand_built(4, [Instruction("h", (-9,))]),
        ],
        ids=["wider-than-calibration", "one-qubit-gate-outside", "after-a-good-gate", "two-qubit-gate-outside",
             "no-qubits", "far-negative"],
    )
    def test_out_of_width_qubits(self, circuit):
        narrow = _calibrated(4, seed=1, spread=0.2)
        assert _raised(_reference_flips, narrow, circuit)[0] is not None
        for model in (narrow, NoiseModel()):
            expected = _raised(_reference_flips, model, circuit)
            assert _raised(model.accumulated_bitflip_probabilities, circuit) == expected

    def test_out_of_range_rates(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).x(2)
        for field, value in (("two_qubit_error", 1.5), ("single_qubit_error", -0.25),
                             ("two_qubit_error", float("nan"))):
            model = NoiseModel()
            object.__setattr__(model, field, value)
            expected = _raised(_reference_flips, model, circuit)
            assert expected[0] is NoiseModelError
            assert _raised(model.accumulated_bitflip_probabilities, circuit) == expected

    def test_out_of_range_calibrated_rates(self):
        model = _calibrated(3, seed=2, spread=0.1)
        rates = np.array(model.calibration.single_qubit_error)
        rates[1] = 2.0
        object.__setattr__(model.calibration, "single_qubit_error", rates)
        circuit = QuantumCircuit(3).h(0).cx(0, 1).x(1).x(2)
        expected = _raised(_reference_flips, model, circuit)
        assert expected == (NoiseModelError, "error probability must be in [0, 1], got 2.0")
        assert _raised(model.accumulated_bitflip_probabilities, circuit) == expected


def test_edge_error_lookups_match_the_coupler_dict():
    snapshot = _calibrated(7, seed=9, spread=0.5).calibration
    listed = {edge: float(rate) for edge, rate in zip(snapshot.edges, snapshot.two_qubit_error)}
    pairs = [(a, b) for a in range(-2, 9) for b in range(-2, 9)]
    expected = [listed.get((min(a, b), max(a, b)), snapshot.median_two_qubit_error) for a, b in pairs]
    assert [snapshot.edge_error(a, b) for a, b in pairs] == expected
    first = np.array([a for a, _ in pairs])
    second = np.array([b for _, b in pairs])
    assert snapshot.edge_errors(first, second).tolist() == expected
