"""Quantum circuit representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
over a fixed number of qubits.  It supports the gate set registered in
:mod:`repro.quantum.gates`, structural queries (depth, gate counts, two-qubit
gate count) used by the noise model and the Section-7 studies, circuit
inversion (for the H·U·U†·H benchmark family) and composition.

Every circuit also has one :class:`InstructionTable`: the same gates as flat
arrays (name codes, qubits, parameters), compiled once and read by the
consumers that would otherwise walk the ``Instruction`` objects in Python —
the cache keys (:meth:`QuantumCircuit.canonical_bytes`), the noise model's
per-gate error arrays and the structural queries.  The table is memoised on
the circuit together with the canonical key encoding and the depth, and it
is rebuilt whenever the instruction list changes (:attr:`QuantumCircuit.table`
checks the memo against a snapshot of the list it was built from, so
``append``, assigning ``instructions`` and in-place list edits are all
seen).  A pickled circuit carries only its table; the ``Instruction`` list
of a circuit read back from a cache file or the wire is built when something
first iterates it.

The circuit is purely a description; execution lives in
:mod:`repro.quantum.statevector` and :mod:`repro.quantum.sampler`.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CircuitError
from repro.obs.metrics import counter_add
from repro.quantum.gates import gate_definition

__all__ = ["Instruction", "InstructionTable", "QuantumCircuit"]

#: Gates whose inverse is themselves with negated parameters.
_PARAM_NEGATE_INVERSE = {"rx", "ry", "rz", "p", "rzz", "cp"}
#: Fixed-gate inverses that are a different registry gate.
_FIXED_INVERSE = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "iswap": "iswap"}


@dataclass(frozen=True)
class Instruction:
    """A single gate application.

    Attributes
    ----------
    name:
        Registry name of the gate (lower case).
    qubits:
        Qubit indices the gate acts on, in gate order (control first for
        controlled gates).
    params:
        Real gate parameters (empty for fixed gates).
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default_factory=tuple)

    @property
    def num_qubits(self) -> int:
        """Arity of the instruction."""
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """Unitary matrix of this instruction."""
        return gate_definition(self.name).matrix(self.params)

    def inverse(self) -> "Instruction":
        """Return the instruction implementing the inverse unitary."""
        if self.name in _PARAM_NEGATE_INVERSE:
            return Instruction(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name in _FIXED_INVERSE:
            if self.name == "iswap":
                raise CircuitError("iswap inverse is not in the gate registry")
            return Instruction(_FIXED_INVERSE[self.name], self.qubits, self.params)
        definition = gate_definition(self.name)
        if definition.hermitian:
            return Instruction(self.name, self.qubits, self.params)
        if self.name == "u3":
            theta, phi, lam = self.params
            return Instruction("u3", self.qubits, (-theta, -lam, -phi))
        if self.name == "sx":
            # sx† = rz-free decomposition: sx·sx = x, so sx† = sx·x... keep it simple:
            # use the parametric rx(-pi/2) up to global phase.
            return Instruction("rx", self.qubits, (-np.pi / 2,))
        raise CircuitError(f"no inverse rule for gate {self.name!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class InstructionTable:
    """A gate list as flat arrays, compiled once per circuit.

    Attributes
    ----------
    names:
        The distinct gate names, in order of first use.
    codes:
        ``(gates,)`` int64 index of each gate's name in ``names``.
    arity / num_params:
        ``(gates,)`` int64 qubit and parameter count of each gate.
    qubits:
        int64 qubit indices of every gate, gate after gate (``arity.sum()``
        entries).
    params:
        float64 parameters of every gate, gate after gate
        (``num_params.sum()`` entries).

    The registry's gates have at most 2 qubits and 3 parameters, but
    :class:`Instruction` is unchecked, so the table stores any arity and
    parameter count, and :meth:`instructions` rebuilds an equal list.  The
    arrays are read-only.  Pickles hold the arrays as raw little-endian
    bytes (:meth:`__getstate__`).
    """

    __slots__ = ("names", "codes", "arity", "num_params", "qubits", "params")

    def __init__(
        self,
        names: Iterable[str],
        codes: Sequence[int] | np.ndarray,
        arity: Sequence[int] | np.ndarray,
        num_params: Sequence[int] | np.ndarray,
        qubits: Sequence[int] | np.ndarray,
        params: Sequence[float] | np.ndarray,
    ) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.codes = _read_only(np.asarray(codes, dtype=np.int64))
        self.arity = _read_only(np.asarray(arity, dtype=np.int64))
        self.num_params = _read_only(np.asarray(num_params, dtype=np.int64))
        self.qubits = _read_only(np.asarray(qubits, dtype=np.int64))
        self.params = _read_only(np.asarray(params, dtype=np.float64))

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]) -> "InstructionTable":
        """Compile an instruction sequence (one Python pass over it)."""
        index: dict[str, int] = {}
        codes: list[int] = []
        arity: list[int] = []
        num_params: list[int] = []
        qubits: list[int] = []
        params: list[float] = []
        for instruction in instructions:
            codes.append(index.setdefault(instruction.name, len(index)))
            arity.append(len(instruction.qubits))
            qubits.extend(instruction.qubits)
            num_params.append(len(instruction.params))
            params.extend(instruction.params)
        return cls(tuple(index), codes, arity, num_params, qubits, params)

    def __len__(self) -> int:
        return len(self.codes)

    # ------------------------------------------------------------------
    # Pickling: raw buffers, not one object per gate
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        meta = np.stack([self.codes, self.arity, self.num_params], axis=1)
        meta_dtype = "|u1" if meta.size == 0 or int(meta.max()) < 256 else "<i8"
        return (
            self.names,
            meta_dtype,
            meta.astype(meta_dtype).tobytes(),
            self.qubits.astype("<i8").tobytes(),
            self.params.astype("<f8").tobytes(),
        )

    def __setstate__(self, state: tuple) -> None:
        names, meta_dtype, meta, qubits, params = state
        meta = np.frombuffer(meta, dtype=meta_dtype).reshape(-1, 3)
        self.__init__(
            names,
            meta[:, 0],
            meta[:, 1],
            meta[:, 2],
            np.frombuffer(qubits, dtype="<i8"),
            np.frombuffer(params, dtype="<f8"),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def first_qubit_offsets(self) -> np.ndarray:
        """Index into :attr:`qubits` of each gate's first qubit."""
        return np.cumsum(self.arity) - self.arity

    def two_qubit_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second qubit of every two-qubit gate, in gate order."""
        first = self.first_qubit_offsets()[self.arity == 2]
        return self.qubits[first], self.qubits[first + 1]

    def instructions(self) -> list[Instruction]:
        """The gates as a new list of :class:`Instruction` objects."""
        qubits = self.qubits.tolist()
        params = self.params.tolist()
        built: list[Instruction] = []
        qubit_at = param_at = 0
        for code, count, num_params in zip(
            self.codes.tolist(), self.arity.tolist(), self.num_params.tolist()
        ):
            built.append(
                Instruction(
                    self.names[code],
                    tuple(qubits[qubit_at : qubit_at + count]),
                    tuple(params[param_at : param_at + num_params]),
                )
            )
            qubit_at += count
            param_at += num_params
        return built

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def canonical_bytes(self, num_qubits: int) -> bytes:
        """The canonical binary encoding the engine's cache keys digest.

        Little-endian and fixed-width: ``<q num_qubits``, ``<q gates``, then
        per gate ``<q len(name)``, the UTF-8 name, ``<q arity``, one ``<q``
        per qubit, ``<q num_params`` and one ``<d`` per parameter.  Built in
        one pass over the arrays: each gate's record is laid out at the
        table's widest arity and parameter count and the padding is masked
        out.
        """
        count = len(self.codes)
        head = struct.pack("<qq", num_qubits, count)
        if count == 0:
            return head
        blocks = [struct.pack("<q", len(raw)) + raw for raw in (n.encode("utf-8") for n in self.names)]
        lengths = np.array([len(block) for block in blocks])
        width = int(lengths.max())
        name_bytes = np.frombuffer(
            b"".join(block.ljust(width, b"\0") for block in blocks), dtype=np.uint8
        ).reshape(len(blocks), width)
        name_mask = np.arange(width) < lengths[:, None]
        max_arity = int(self.arity.max())
        max_params = int(self.num_params.max())
        # One row of 8-byte words per gate: arity, qubits, parameter count, parameters.
        words = np.zeros((count, 2 + max_arity + max_params), dtype="<i8")
        word_mask = np.ones(words.shape, dtype=bool)
        qubit_mask = np.arange(max_arity) < self.arity[:, None]
        param_mask = np.arange(max_params) < self.num_params[:, None]
        words[:, 0] = self.arity
        words[:, 1 : 1 + max_arity][qubit_mask] = self.qubits
        words[:, 1 + max_arity] = self.num_params
        words[:, 2 + max_arity :][param_mask] = self.params.astype("<f8").view("<i8")
        word_mask[:, 1 : 1 + max_arity] = qubit_mask
        word_mask[:, 2 + max_arity :] = param_mask
        record = np.concatenate([name_bytes[self.codes], words.view(np.uint8)], axis=1)
        mask = np.concatenate([name_mask[self.codes], np.repeat(word_mask, 8, axis=1)], axis=1)
        return head + record[mask].tobytes()

    def depth(self, num_qubits: int) -> int:
        """Longest gate dependency chain (the walk of :meth:`QuantumCircuit.depth`).

        One- and two-qubit gates, nearly every gate of a transpiled circuit,
        take straight-line branches; the generic step slices the qubits and
        takes a ``max`` per gate, several times the cost.
        """
        frontier = [0] * num_qubits
        qubits = self.qubits.tolist()
        at = 0
        for count in self.arity.tolist():
            if count == 1:
                frontier[qubits[at]] += 1
            elif count == 2:
                a, b = qubits[at], qubits[at + 1]
                level = max(frontier[a], frontier[b]) + 1
                frontier[a] = level
                frontier[b] = level
            else:
                gate_qubits = qubits[at : at + count]
                level = max(frontier[q] for q in gate_qubits) + 1
                for qubit in gate_qubits:
                    frontier[qubit] = level
            at += count
        return max(frontier) if frontier else 0

    def qubit_counts(self, num_qubits: int, two_qubit_only: bool = False) -> list[int]:
        """Gates (or two-qubit gates) touching each qubit, as the old list walk counted."""
        counts = np.zeros(num_qubits, dtype=np.int64)
        qubits = self.qubits
        if two_qubit_only:
            qubits = qubits[np.repeat(self.arity == 2, self.arity)]
        if qubits.size and (qubits.max() >= num_qubits or qubits.min() < -num_qubits):
            raise IndexError("list index out of range")
        np.add.at(counts, qubits, 1)
        return counts.tolist()


class QuantumCircuit:
    """An ordered sequence of gate instructions on ``num_qubits`` qubits.

    Circuits hash and compare by identity (the stabilizer backend memoises
    tableau passes per circuit object in a ``WeakKeyDictionary``).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        self.instructions = []

    # ------------------------------------------------------------------
    # The instruction list and its table
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> list[Instruction]:
        """The gate list; a circuit read back from a pickle builds it on first use."""
        if self._instructions is None:
            self._instructions = self._table.instructions()
            self._table_source = list(self._instructions)
        return self._instructions

    @instructions.setter
    def instructions(self, instructions: list[Instruction]) -> None:
        self._instructions = instructions
        self._table: InstructionTable | None = None
        self._table_source: list[Instruction] | None = None
        self._facts: dict = {}

    @property
    def table(self) -> InstructionTable:
        """The gates as an :class:`InstructionTable`, compiled once and memoised.

        The memo is checked against a snapshot of the list it was built
        from, element by element by identity, so any edit of the list —
        ``append``, item assignment, ``insert``, ``del`` — rebuilds it (and
        the memoised key encoding and depth) on the next read.
        """
        instructions = self._instructions
        if instructions is not None:
            source = self._table_source
            if (
                source is None
                or len(source) != len(instructions)
                or not all(map(operator.is_, source, instructions))
            ):
                self._table = InstructionTable.from_instructions(instructions)
                self._table_source = list(instructions)
                self._facts = {}
        return self._table

    def canonical_bytes(self) -> bytes:
        """The canonical key encoding of the circuit (see :meth:`InstructionTable.canonical_bytes`).

        Memoised with the table; each computation counts ``circuit.encodings``.
        """
        table = self.table
        key = ("encoding", self.num_qubits)
        encoding = self._facts.get(key)
        if encoding is None:
            counter_add("circuit.encodings")
            encoding = self._facts[key] = table.canonical_bytes(self.num_qubits)
        return encoding

    def __getstate__(self) -> dict:
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("_instructions", "_table", "_table_source", "_facts")
        }
        state["table"] = self.table
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        # Pickles written before the table existed carry the list itself.
        instructions = state.pop("instructions", None)
        table = state.pop("table", None)
        self.__dict__.update(state)
        self.instructions = instructions
        if instructions is None:
            self._table = table

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "QuantumCircuit":
        """Append a gate by registry name; returns ``self`` for chaining."""
        definition = gate_definition(name)
        qubit_tuple = tuple(int(q) for q in qubits)
        if len(qubit_tuple) != definition.num_qubits:
            raise CircuitError(
                f"gate {name!r} acts on {definition.num_qubits} qubit(s), got {len(qubit_tuple)}"
            )
        if len(set(qubit_tuple)) != len(qubit_tuple):
            raise CircuitError(f"gate {name!r} applied to duplicate qubits {qubit_tuple}")
        for qubit in qubit_tuple:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit index {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )
        param_tuple = tuple(float(p) for p in params)
        if len(param_tuple) != definition.num_params:
            raise CircuitError(
                f"gate {name!r} expects {definition.num_params} parameter(s), got {len(param_tuple)}"
            )
        self.instructions.append(Instruction(definition.name, qubit_tuple, param_tuple))
        return self

    # Convenience wrappers for common gates --------------------------------
    def id(self, qubit: int) -> "QuantumCircuit":
        """Identity (used to mark idle periods)."""
        return self.append("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli-X gate."""
        return self.append("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self.append("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self.append("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard gate."""
        return self.append("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        """Phase gate S."""
        return self.append("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse phase gate S†."""
        return self.append("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate."""
        return self.append("t", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Square-root-of-X gate."""
        return self.append("sx", [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """X-rotation by ``theta``."""
        return self.append("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Y-rotation by ``theta``."""
        return self.append("ry", [qubit], [theta])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Z-rotation by ``theta``."""
        return self.append("rz", [qubit], [theta])

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Phase gate by angle ``lam``."""
        return self.append("p", [qubit], [lam])

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """General single-qubit rotation."""
        return self.append("u3", [qubit], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-NOT gate."""
        return self.append("cx", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z gate."""
        return self.append("cz", [control, target])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """SWAP gate."""
        return self.append("swap", [qubit_a, qubit_b])

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Two-qubit ZZ interaction ``exp(-i theta/2 Z⊗Z)``."""
        return self.append("rzz", [qubit_a, qubit_b], [theta])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled phase gate."""
        return self.append("cp", [control, target], [lam])

    def barrier(self) -> "QuantumCircuit":
        """No-op structural marker (kept for API familiarity; not stored)."""
        return self

    # ------------------------------------------------------------------
    # Composition and transformation
    # ------------------------------------------------------------------
    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` followed by ``other``."""
        if other.num_qubits != self.num_qubits:
            raise CircuitError("cannot compose circuits with different qubit counts")
        combined = QuantumCircuit(self.num_qubits, name=f"{self.name}+{other.name}")
        combined.instructions = list(self.instructions) + list(other.instructions)
        return combined

    def inverse(self) -> "QuantumCircuit":
        """Return the circuit implementing the inverse unitary (U†)."""
        inverted = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        inverted.instructions = [inst.inverse() for inst in reversed(self.instructions)]
        return inverted

    def copy(self) -> "QuantumCircuit":
        """Return a shallow copy of the circuit."""
        duplicate = QuantumCircuit(self.num_qubits, name=self.name)
        duplicate.instructions = list(self.instructions)
        return duplicate

    def remapped(self, layout: Sequence[int]) -> "QuantumCircuit":
        """Return a copy with qubit ``i`` relabelled to ``layout[i]``."""
        if sorted(layout) != list(range(self.num_qubits)):
            raise CircuitError("layout must be a permutation of the circuit's qubits")
        remapped = QuantumCircuit(self.num_qubits, name=self.name)
        for instruction in self.instructions:
            remapped.append(
                instruction.name,
                [layout[q] for q in instruction.qubits],
                instruction.params,
            )
        return remapped

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._instructions is None:
            return len(self._table)
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"gates={len(self)}, depth={self.depth()})"
        )

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate names used in the circuit, in order of first use."""
        table = self.table
        counts = np.bincount(table.codes, minlength=len(table.names)).tolist()
        return {name: count for name, count in zip(table.names, counts) if count}

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (the dominant error source on hardware)."""
        return int(np.count_nonzero(self.table.arity == 2))

    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit gates."""
        return int(np.count_nonzero(self.table.arity == 1))

    def depth(self) -> int:
        """Circuit depth: length of the longest gate dependency chain (memoised)."""
        table = self.table
        key = ("depth", self.num_qubits)
        depth = self._facts.get(key)
        if depth is None:
            depth = self._facts[key] = table.depth(self.num_qubits)
        return depth

    def qubits_used(self) -> set[int]:
        """Set of qubit indices touched by at least one gate."""
        return set(self.table.qubits.tolist())

    def gates_per_qubit(self) -> list[int]:
        """Number of gates touching each qubit (index = qubit)."""
        return self.table.qubit_counts(self.num_qubits)

    def two_qubit_gates_per_qubit(self) -> list[int]:
        """Number of two-qubit gates touching each qubit."""
        return self.table.qubit_counts(self.num_qubits, two_qubit_only=True)

    def interaction_pairs(self) -> set[tuple[int, int]]:
        """Unordered qubit pairs coupled by at least one two-qubit gate."""
        first, second = self.table.two_qubit_pairs()
        low = np.minimum(first, second).tolist()
        high = np.maximum(first, second).tolist()
        return set(zip(low, high))
