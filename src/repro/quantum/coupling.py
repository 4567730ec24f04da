"""Device coupling maps (which qubit pairs support two-qubit gates).

The transpiler routes logical circuits onto these maps by inserting SWAP
gates; the paper's observation that grid-native QAOA instances need no SWAPs
(and therefore retain more Hamming structure) is reproduced by comparing
routed depth on these topologies.  A map keeps its own adjacency, so routing
loads no graph library.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import DeviceError

__all__ = [
    "CouplingMap",
    "linear_coupling",
    "ring_coupling",
    "grid_coupling",
    "heavy_hex_like_coupling",
    "sycamore_like_coupling",
    "full_coupling",
]


class CouplingMap:
    """An undirected graph of physical qubits; edges are allowed 2-qubit gates."""

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]], name: str = "custom") -> None:
        if num_qubits <= 0:
            raise DeviceError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        # Each qubit's neighbours in first-insertion order, the order in which
        # a networkx Graph built from the same edges iterates them: it fixes
        # shortest_path's tie-break, and so the SWAPs that routing inserts.
        self._adjacency: dict[int, dict[int, None]] = {qubit: {} for qubit in range(num_qubits)}
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise DeviceError(f"edge ({a}, {b}) references a qubit outside 0..{num_qubits - 1}")
            if a == b:
                raise DeviceError(f"self-loop edge on qubit {a} is not allowed")
            self._adjacency[a][b] = None
            self._adjacency[b][a] = None
        reached = {0}
        queue = [0]
        for qubit in queue:
            for neighbour in self._adjacency[qubit]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    queue.append(neighbour)
        if len(reached) < num_qubits:
            raise DeviceError(f"coupling map {name!r} is not connected")

    # ------------------------------------------------------------------
    def _require(self, *qubits: int) -> None:
        for qubit in qubits:
            if qubit not in self._adjacency:
                raise DeviceError(
                    f"qubit {qubit} is not on coupling map {self.name!r} "
                    f"(qubits 0..{self.num_qubits - 1})"
                )

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of coupled qubit pairs."""
        return sorted((a, b) for a, neighbours in self._adjacency.items() for b in neighbours if a < b)

    def are_coupled(self, qubit_a: int, qubit_b: int) -> bool:
        """True when a two-qubit gate can act directly on the pair."""
        return qubit_b in self._adjacency.get(qubit_a, ())

    def neighbors(self, qubit: int) -> list[int]:
        """Physical neighbours of a qubit."""
        self._require(qubit)
        return sorted(self._adjacency[qubit])

    def distance(self, qubit_a: int, qubit_b: int) -> int:
        """Shortest-path distance between two physical qubits."""
        return len(self.shortest_path(qubit_a, qubit_b)) - 1

    def shortest_path(self, qubit_a: int, qubit_b: int) -> list[int]:
        """A shortest path of physical qubits connecting the pair.

        A port of networkx 3.6.1's ``bidirectional_shortest_path``: with
        neighbours in the same order, it returns the path networkx's
        ``shortest_path`` returns, so routing inserts the same SWAPs.
        """
        self._require(qubit_a, qubit_b)
        pred, succ, meet = _bidirectional_pred_succ(self._adjacency, qubit_a, qubit_b)
        path = []
        step = meet
        while step is not None:
            path.append(step)
            step = pred[step]
        path.reverse()
        step = succ[path[-1]]
        while step is not None:
            path.append(step)
            step = succ[step]
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CouplingMap(name={self.name!r}, qubits={self.num_qubits}, edges={len(self.edges())})"


def _bidirectional_pred_succ(
    adjacency: dict[int, dict[int, None]], source: int, target: int
) -> tuple[dict[int, int | None], dict[int, int | None], int]:
    """networkx's helper of the same name, on an undirected map.

    Breadth-first searches from both ends, each step expanding the smaller
    fringe (the forward one on a tie), stop at the first qubit that both
    have reached.  Returns ``(pred, succ, meet)``: ``pred`` leads from
    ``meet`` back to ``source`` and ``succ`` on to ``target``.
    """
    if target == source:
        return {target: None}, {source: None}, source
    pred: dict[int, int | None] = {source: None}
    succ: dict[int, int | None] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise DeviceError(f"no path between qubits {source} and {target}")


def linear_coupling(num_qubits: int) -> CouplingMap:
    """A 1-D chain of qubits."""
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingMap(num_qubits, edges, name=f"linear-{num_qubits}")


def ring_coupling(num_qubits: int) -> CouplingMap:
    """A ring of qubits."""
    if num_qubits < 3:
        raise DeviceError("ring coupling needs at least 3 qubits")
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(num_qubits, edges, name=f"ring-{num_qubits}")


def grid_coupling(rows: int, columns: int) -> CouplingMap:
    """A 2-D rectangular grid (Sycamore-style nearest-neighbour lattice)."""
    if rows <= 0 or columns <= 0:
        raise DeviceError("grid dimensions must be positive")
    num_qubits = rows * columns
    edges: list[tuple[int, int]] = []
    for row in range(rows):
        for column in range(columns):
            index = row * columns + column
            if column + 1 < columns:
                edges.append((index, index + 1))
            if row + 1 < rows:
                edges.append((index, index + columns))
    return CouplingMap(num_qubits, edges, name=f"grid-{rows}x{columns}")


def heavy_hex_like_coupling(num_qubits: int) -> CouplingMap:
    """A sparse IBM-style topology: a chain with bridge qubits every 4 sites.

    Not an exact heavy-hex lattice, but reproduces its key property for the
    experiments here — low average degree, so routing distant interactions
    needs SWAP chains.
    """
    if num_qubits < 2:
        raise DeviceError("heavy-hex-like coupling needs at least 2 qubits")
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    for start in range(0, num_qubits - 4, 4):
        edges.append((start, start + 4))
    return CouplingMap(num_qubits, edges, name=f"heavy-hex-like-{num_qubits}")


def sycamore_like_coupling(num_qubits: int) -> CouplingMap:
    """A near-square grid with ``num_qubits`` nodes (Sycamore-style)."""
    if num_qubits <= 0:
        raise DeviceError("num_qubits must be positive")
    columns = max(1, int(np.ceil(np.sqrt(num_qubits))))
    rows = int(np.ceil(num_qubits / columns))
    full_grid = grid_coupling(rows, columns)
    if rows * columns == num_qubits:
        return CouplingMap(num_qubits, full_grid.edges(), name=f"sycamore-like-{num_qubits}")
    # Trim surplus nodes from the end while keeping connectivity.
    edges = [(a, b) for a, b in full_grid.edges() if a < num_qubits and b < num_qubits]
    return CouplingMap(num_qubits, edges, name=f"sycamore-like-{num_qubits}")


def full_coupling(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity (no routing needed); used for logical circuits."""
    edges = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    return CouplingMap(num_qubits, edges, name=f"full-{num_qubits}")

