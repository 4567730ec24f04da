"""The circuit's instruction table: its encoding, its memo and its pickles.

Every comparison is exact.  ``_reference_bytes`` is the per-instruction key
encoder the table replaced, kept here as the reference the table's
canonical bytes must equal byte for byte; the ``_reference_*`` structure
functions are the instruction walks the structural queries replaced.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import synthetic_snapshot
from repro.engine.hashing import circuit_fingerprint, ideal_key, sample_key, transpile_key
from repro.obs import Observation
from repro.quantum.circuit import Instruction, InstructionTable, QuantumCircuit
from repro.quantum.coupling import linear_coupling
from repro.quantum.device import DeviceProfile
from repro.quantum.gates import GATE_REGISTRY
from repro.quantum.noise import NoiseModel

_SETTINGS = dict(deadline=None, derandomize=True)


def _reference_bytes(circuit: QuantumCircuit) -> bytes:
    """The per-instruction encoder every cache key digested before the table."""
    parts = [struct.pack("<q", circuit.num_qubits), struct.pack("<q", len(circuit.instructions))]
    for instruction in circuit.instructions:
        name = instruction.name.encode("utf-8")
        parts.append(struct.pack("<q", len(name)))
        parts.append(name)
        parts.append(struct.pack("<q", len(instruction.qubits)))
        parts.append(struct.pack(f"<{len(instruction.qubits)}q", *instruction.qubits))
        parts.append(struct.pack("<q", len(instruction.params)))
        if instruction.params:
            parts.append(struct.pack(f"<{len(instruction.params)}d", *instruction.params))
    return b"".join(parts)


def _reference_depth(circuit):
    frontier = [0] * circuit.num_qubits
    for instruction in circuit.instructions:
        level = max(frontier[q] for q in instruction.qubits) + 1
        for qubit in instruction.qubits:
            frontier[qubit] = level
    return max(frontier) if frontier else 0


def _reference_structure(circuit):
    n = circuit.num_qubits
    counts: dict[str, int] = {}
    per_qubit = [0] * n
    two_per_qubit = [0] * n
    pairs = set()
    for instruction in circuit.instructions:
        counts[instruction.name] = counts.get(instruction.name, 0) + 1
        for qubit in instruction.qubits:
            per_qubit[qubit] += 1
            if len(instruction.qubits) == 2:
                two_per_qubit[qubit] += 1
        if len(instruction.qubits) == 2:
            a, b = instruction.qubits
            pairs.add((min(a, b), max(a, b)))
    return {
        "depth": _reference_depth(circuit),
        "gate_counts": list(counts.items()),
        "num_two_qubit_gates": sum(1 for i in circuit.instructions if len(i.qubits) == 2),
        "num_single_qubit_gates": sum(1 for i in circuit.instructions if len(i.qubits) == 1),
        "gates_per_qubit": per_qubit,
        "two_qubit_gates_per_qubit": two_per_qubit,
        "qubits_used": {q for i in circuit.instructions for q in i.qubits},
        "interaction_pairs": pairs,
    }


def _structure(circuit):
    return {
        "depth": circuit.depth(),
        "gate_counts": list(circuit.gate_counts().items()),
        "num_two_qubit_gates": circuit.num_two_qubit_gates(),
        "num_single_qubit_gates": circuit.num_single_qubit_gates(),
        "gates_per_qubit": circuit.gates_per_qubit(),
        "two_qubit_gates_per_qubit": circuit.two_qubit_gates_per_qubit(),
        "qubits_used": circuit.qubits_used(),
        "interaction_pairs": circuit.interaction_pairs(),
    }


_PARAMS = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi, 1e-300, float("inf")]),
    st.integers(-(2**40), 2**40),
)


@st.composite
def registry_circuits(draw, max_qubits: int = 8, max_gates: int = 40) -> QuantumCircuit:
    """Valid circuits over the whole gate registry, built through ``append``."""
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    names = sorted(GATE_REGISTRY)
    for _ in range(draw(st.integers(0, max_gates))):
        definition = GATE_REGISTRY[draw(st.sampled_from(names))]
        qubits = draw(
            st.lists(
                st.integers(0, num_qubits - 1),
                min_size=definition.num_qubits,
                max_size=definition.num_qubits,
                unique=True,
            )
        )
        params = draw(st.lists(_PARAMS, min_size=definition.num_params, max_size=definition.num_params))
        circuit.append(definition.name, qubits, params)
    return circuit


@st.composite
def unchecked_circuits(draw) -> QuantumCircuit:
    """Instruction lists assigned directly: any name, arity 0-3, int and float params."""
    num_qubits = draw(st.integers(3, 6))
    circuit = QuantumCircuit(num_qubits)
    names = st.one_of(st.sampled_from(sorted(GATE_REGISTRY)), st.text(min_size=0, max_size=6))
    circuit.instructions = draw(
        st.lists(
            st.builds(
                Instruction,
                names,
                st.lists(st.integers(0, num_qubits - 1), max_size=3).map(tuple),
                st.lists(_PARAMS, max_size=4).map(tuple),
            ),
            max_size=30,
        )
    )
    return circuit


class TestEncoding:
    @given(circuit=st.one_of(registry_circuits(), unchecked_circuits()))
    @settings(max_examples=150, **_SETTINGS)
    def test_table_bytes_equal_the_per_instruction_encoder(self, circuit):
        assert circuit.canonical_bytes() == _reference_bytes(circuit)

    def test_directly_built_instructions(self):
        circuit = QuantumCircuit(4)
        circuit.instructions = [
            Instruction("ccx", (0, 1, 2)),
            Instruction("rz", (3,), (1,)),
            Instruction("ü-gate", (), (2, -0.0, 0.5)),
            Instruction("", (1, 0)),
        ]
        assert circuit.canonical_bytes() == _reference_bytes(circuit)
        assert circuit.instructions == circuit.table.instructions()

    def test_empty_circuit(self):
        assert QuantumCircuit(3).canonical_bytes() == _reference_bytes(QuantumCircuit(3))

    @given(circuit=registry_circuits())
    @settings(max_examples=40, **_SETTINGS)
    def test_every_key_digests_the_same_bytes_as_before(self, circuit):
        expected = hashlib.sha256(b"repro-circuit-v1" + _reference_bytes(circuit)).hexdigest()
        assert circuit_fingerprint(circuit) == expected


class TestTable:
    @given(circuit=st.one_of(registry_circuits(), unchecked_circuits()))
    @settings(max_examples=100, **_SETTINGS)
    def test_instructions_round_trip(self, circuit):
        table = InstructionTable.from_instructions(circuit.instructions)
        assert table.instructions() == circuit.instructions
        restored = pickle.loads(pickle.dumps(table))
        assert restored.instructions() == circuit.instructions
        assert restored.names == table.names
        for field in ("codes", "arity", "num_params", "qubits", "params"):
            assert np.array_equal(getattr(restored, field), getattr(table, field), equal_nan=True)

    def test_wide_tables_pickle_their_counts_at_full_width(self):
        circuit = QuantumCircuit(300)
        circuit.instructions = [Instruction("wide", tuple(range(300)))] + [
            Instruction(f"g{k}", (k,)) for k in range(299)
        ]
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.instructions == circuit.instructions
        assert restored.canonical_bytes() == _reference_bytes(circuit)

    @given(circuit=registry_circuits())
    @settings(max_examples=100, **_SETTINGS)
    def test_structural_queries_match_the_instruction_walks(self, circuit):
        assert _structure(circuit) == _reference_structure(circuit)

    @given(circuit=registry_circuits())
    @settings(max_examples=40, **_SETTINGS)
    def test_a_pickled_circuit_answers_from_its_table(self, circuit):
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored._instructions is None
        assert restored.name == circuit.name and restored.num_qubits == circuit.num_qubits
        assert len(restored) == len(circuit)
        assert restored.canonical_bytes() == _reference_bytes(circuit)
        assert _structure(restored) == _reference_structure(circuit)
        copied = restored.copy()
        assert restored.instructions == circuit.instructions
        assert copied.instructions == circuit.instructions

    def test_circuits_stay_weak_referenceable_and_hashed_by_identity(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        twin = pickle.loads(pickle.dumps(circuit))
        assert weakref.ref(twin)() is twin
        assert hash(circuit) == object.__hash__(circuit)
        assert circuit != twin and len({circuit, twin}) == 2


def _noise_models(num_qubits):
    profile = DeviceProfile(
        name=f"table-{num_qubits}",
        num_qubits=num_qubits,
        coupling_map=linear_coupling(num_qubits),
        noise_model=NoiseModel(),
    )
    uniform = NoiseModel(crosstalk_error=0.002)
    return uniform, uniform.with_calibration(synthetic_snapshot(profile, seed=4, spread=0.5))


def _answers(circuit):
    """Everything memoised on, or derived from, the table."""
    uniform, calibrated = _noise_models(circuit.num_qubits)
    return {
        "bytes": circuit.canonical_bytes(),
        "fingerprint": circuit_fingerprint(circuit),
        "transpile": transpile_key(circuit, None, ("rz", "sx", "x", "cx")),
        "ideal": ideal_key(circuit),
        "sample": sample_key(circuit, calibrated, 128, (1, 2)),
        "structure": _structure(circuit),
        "flips": [m.accumulated_bitflip_probabilities(circuit).tolist() for m in (uniform, calibrated)],
        "scramble": [m.scramble_probability(circuit) for m in (uniform, calibrated)],
        "len": len(circuit),
    }


def _fresh(circuit):
    rebuilt = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for instruction in circuit.instructions:
        rebuilt.append(instruction.name, instruction.qubits, instruction.params)
    return rebuilt


def _base():
    circuit = QuantumCircuit(4, name="memo")
    circuit.h(0).cx(0, 1).rz(0.0, 2).cx(1, 2).sx(3).cz(2, 3).x(1)
    return circuit


#: Every way of changing a circuit's gates, each a function of the circuit.
_MUTATIONS = {
    "append-method": lambda c: c.cx(3, 0),
    "assign-instructions": lambda c: setattr(c, "instructions", c.instructions[::-1]),
    "item-assignment": lambda c: c.instructions.__setitem__(2, Instruction("rz", (2,), (0.5,))),
    "item-assignment-signed-zero": lambda c: c.instructions.__setitem__(
        2, Instruction("rz", (2,), (-0.0,))
    ),
    "item-assignment-same-length-swap": lambda c: c.instructions.__setitem__(
        slice(0, 2), [c.instructions[1], c.instructions[0]]
    ),
    "list-append": lambda c: c.instructions.append(Instruction("h", (3,))),
    "list-extend": lambda c: c.instructions.extend([Instruction("s", (0,)), Instruction("cx", (2, 0))]),
    "list-insert": lambda c: c.instructions.insert(1, Instruction("y", (2,))),
    "list-del": lambda c: c.instructions.__delitem__(3),
    "list-pop": lambda c: c.instructions.pop(),
    "list-remove": lambda c: c.instructions.remove(c.instructions[1]),
    "list-reverse": lambda c: c.instructions.reverse(),
    "list-sort": lambda c: c.instructions.sort(key=lambda i: i.name),
    "list-clear": lambda c: c.instructions.clear(),
    "list-iadd": lambda c: c.instructions.__iadd__([Instruction("z", (1,))]),
    "slice-assignment": lambda c: c.instructions.__setitem__(slice(None), c.instructions[:4]),
}


class TestMemoNeverGoesStale:
    @pytest.mark.parametrize("pickled", [False, True], ids=["built", "unpickled"])
    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_keys_depth_and_flips_follow_every_edit(self, mutation, pickled):
        circuit = _base()
        if pickled:
            circuit = pickle.loads(pickle.dumps(circuit))
        before = _answers(circuit)
        assert before == _answers(_fresh(circuit))
        _MUTATIONS[mutation](circuit)
        after = _answers(circuit)
        assert after == _answers(_fresh(circuit))
        assert after["bytes"] == _reference_bytes(circuit)
        assert after["bytes"] != before["bytes"]

    def test_one_encoding_per_circuit_until_it_changes(self):
        circuit = _base()
        with Observation() as observation:
            counters = observation.registry.counters
            for _ in range(3):
                ideal_key(circuit)
                sample_key(circuit, NoiseModel(), 64, (0, 0))
                circuit_fingerprint(circuit)
            assert counters["circuit.encodings"] == 1
            circuit.instructions[0] = Instruction("x", (0,))
            ideal_key(circuit)
            ideal_key(circuit)
            assert counters["circuit.encodings"] == 2
