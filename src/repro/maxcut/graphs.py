"""Problem-graph generators for the max-cut / QAOA experiments.

The paper's workloads (Tables 1 and 2) use four graph families:

* **Hardware grid** graphs (Google dataset): subgraphs of the Sycamore
  qubit grid, so the QAOA circuit needs no SWAPs.
* **3-regular** graphs (both datasets).
* **Erdős–Rényi random** graphs with edge density 0.2–0.8 (IBM dataset).
* **Sherrington–Kirkpatrick (SK)** fully-connected instances with ±1 weights
  (Google dataset).

Every generator returns a :class:`MaxCutProblem`: a weighted undirected graph
with a stable node ordering (node ``i`` ↔ qubit ``i``).  Each generator
imports networkx on its first call, so a process that builds no graph never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "MaxCutProblem",
    "grid_graph_problem",
    "regular_graph_problem",
    "erdos_renyi_problem",
    "sherrington_kirkpatrick_problem",
    "ring_graph_problem",
]


@dataclass(frozen=True)
class MaxCutProblem:
    """A max-cut instance: weighted graph + metadata.

    Attributes
    ----------
    graph:
        Undirected ``networkx`` graph whose nodes are ``0..n-1``; edge
        attribute ``"weight"`` holds the coupling strength.
    family:
        Generator family name (``"grid"``, ``"3-regular"``, ...).
    seed:
        RNG seed used to build the instance (for reproducibility records).
    """

    graph: nx.Graph
    family: str
    seed: int | None = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes (= qubits of the QAOA circuit)."""
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of weighted edges."""
        return self.graph.number_of_edges()

    def edges(self) -> list[tuple[int, int, float]]:
        """Return ``(u, v, weight)`` triples with ``u < v``."""
        triples = []
        for u, v, data in self.graph.edges(data=True):
            a, b = (u, v) if u < v else (v, u)
            triples.append((a, b, float(data.get("weight", 1.0))))
        return sorted(triples)

    def describe(self) -> dict[str, object]:
        """Summary record used by the dataset emulators."""
        return {
            "family": self.family,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "seed": self.seed,
        }


def _validated_graph(graph: nx.Graph, family: str, seed: int | None) -> MaxCutProblem:
    import networkx as nx

    if graph.number_of_nodes() < 2:
        raise GraphError(f"{family} instance needs at least 2 nodes")
    relabeled = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    for _, _, data in relabeled.edges(data=True):
        data.setdefault("weight", 1.0)
    return MaxCutProblem(graph=relabeled, family=family, seed=seed)


def grid_graph_problem(num_nodes: int, seed: int | None = None) -> MaxCutProblem:
    """Hardware-grid instance: a connected subgraph of a 2-D lattice.

    The lattice has near-square dimensions; if ``num_nodes`` does not fill it
    exactly, trailing nodes are dropped (keeping connectivity), mirroring how
    the Google experiments carve device subgraphs of a given size.
    """
    import networkx as nx

    if num_nodes < 2:
        raise GraphError("grid instance needs at least 2 nodes")
    columns = int(np.ceil(np.sqrt(num_nodes)))
    rows = int(np.ceil(num_nodes / columns))
    lattice = nx.grid_2d_graph(rows, columns)
    ordered_nodes = sorted(lattice.nodes())[:num_nodes]
    subgraph = lattice.subgraph(ordered_nodes).copy()
    if not nx.is_connected(subgraph):
        raise GraphError(f"grid subgraph of {num_nodes} nodes is not connected")
    return _validated_graph(subgraph, family="grid", seed=seed)


def regular_graph_problem(num_nodes: int, degree: int = 3, seed: int | None = None) -> MaxCutProblem:
    """A random ``degree``-regular graph (3-regular by default)."""
    import networkx as nx

    if num_nodes <= degree:
        raise GraphError(f"{degree}-regular graph needs more than {degree} nodes")
    if (num_nodes * degree) % 2 != 0:
        raise GraphError(f"{degree}-regular graph needs num_nodes*degree to be even")
    graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
    return _validated_graph(graph, family=f"{degree}-regular", seed=seed)


def erdos_renyi_problem(num_nodes: int, edge_probability: float, seed: int | None = None) -> MaxCutProblem:
    """An Erdős–Rényi random graph with the given edge density (0.2–0.8 in the paper)."""
    import networkx as nx

    if not 0.0 < edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in (0, 1], got {edge_probability}")
    rng_seed = seed if seed is not None else 0
    for attempt in range(32):
        graph = nx.erdos_renyi_graph(num_nodes, edge_probability, seed=rng_seed + attempt)
        if graph.number_of_edges() > 0 and nx.is_connected(graph):
            return _validated_graph(graph, family="erdos-renyi", seed=seed)
    raise GraphError(
        f"could not generate a connected Erdos-Renyi graph with n={num_nodes}, p={edge_probability}"
    )


def sherrington_kirkpatrick_problem(num_nodes: int, seed: int | None = None) -> MaxCutProblem:
    """A fully-connected SK instance with random ±1 edge weights."""
    import networkx as nx

    if num_nodes < 2:
        raise GraphError("SK instance needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    graph = nx.complete_graph(num_nodes)
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.choice([-1.0, 1.0]))
    return _validated_graph(graph, family="sk", seed=seed)


def ring_graph_problem(num_nodes: int, seed: int | None = None) -> MaxCutProblem:
    """A 2-regular ring instance (cheapest QAOA workload; used in examples/tests)."""
    import networkx as nx

    if num_nodes < 3:
        raise GraphError("ring instance needs at least 3 nodes")
    graph = nx.cycle_graph(num_nodes)
    return _validated_graph(graph, family="ring", seed=seed)
