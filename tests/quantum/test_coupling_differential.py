"""The coupling map's path search against networkx's, pair by pair.

``CouplingMap.shortest_path`` ports networkx's bidirectional search, and the
router walks its paths: every SWAP the transpiler inserts, and so every
routed circuit, cache key and row, depends on the port breaking ties as
networkx does.  networkx is imported here only.  Each map is built on both
sides from the same edge sequence, and every ordered qubit pair must get the
same path and distance:

* every registered device map and scenario map, in its generator's own
  edge order (captured at ``CouplingMap``'s constructor);
* ``route_circuit``'s sorted restriction of each of those maps to every
  narrower width, up to the widest device (65 qubits).  Only the 127-qubit
  scenario map is wider; its workload routes at full width, and its 61
  wider restrictions would add ~575k pairs (about half a minute);
* hypothesis graphs with shuffled edges, each edge in a random orientation.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration.scenario import all_scenarios
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.coupling import CouplingMap
from repro.quantum.device import available_devices, get_device
from repro.quantum.transpiler import route_circuit

#: The widest registered device (ibm-manhattan): the widest restriction checked.
WIDEST_DEVICE = 65

Edges = tuple[tuple[int, int], ...]


def _capture_maps(build) -> dict[tuple[int, Edges], str]:
    """Each distinct ``(num_qubits, edges)`` that ``build()`` constructs, named."""
    captured: dict[tuple[int, Edges], str] = {}
    original = CouplingMap.__init__

    def recording_init(self, num_qubits, edges, name="custom"):
        edges = tuple(edges)
        captured.setdefault((num_qubits, edges), name)
        original(self, num_qubits, edges, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CouplingMap, "__init__", recording_init)
        build()
    return captured


def _build_registered_maps() -> None:
    for name in available_devices():
        get_device(name)
    for scenario in all_scenarios(include_large=True):
        scenario.device()


GENERATOR_MAPS = _capture_maps(_build_registered_maps)


def _restrictions() -> dict[str, list[tuple[int, Edges]]]:
    """The maps ``route_circuit`` routes every narrower circuit on.

    Each distinct map is listed once, under the first generator map that
    restricts to it; a restriction equal to a generator map is left to that
    map's own test.
    """
    seen = set(GENERATOR_MAPS)
    restrictions = {}
    for (num_qubits, edges), name in GENERATOR_MAPS.items():

        def route_every_narrower_width() -> None:
            cmap = CouplingMap(num_qubits, edges)
            for width in range(1, min(num_qubits, WIDEST_DEVICE + 1)):
                route_circuit(QuantumCircuit(width), cmap)

        captured = _capture_maps(route_every_narrower_width)
        restrictions[name] = [spec for spec in captured if spec not in seen]
        seen.update(captured)
    return restrictions


RESTRICTIONS = _restrictions()


def _assert_paths_match_networkx(num_qubits: int, edges: Edges) -> None:
    """Every ordered pair: networkx's path, and its length less one.

    The length less one is networkx's ``shortest_path_length`` of an
    unweighted pair, which measures the same bidirectional path.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    cmap = CouplingMap(num_qubits, edges)
    for source in range(num_qubits):
        for target in range(num_qubits):
            expected = nx.shortest_path(graph, source, target)
            assert cmap.shortest_path(source, target) == expected, (source, target)
            assert cmap.distance(source, target) == len(expected) - 1


def test_the_maps_span_every_device_scenario_and_narrower_width():
    names = set(GENERATOR_MAPS.values())
    assert {"heavy-hex-like-27", "heavy-hex-like-65", "grid-6x9", "heavy-hex-like-127"} <= names
    assert {"linear-12", "ring-12", "grid-3x4", "grid-3x5", "sycamore-like-53"} <= names
    widths = {num_qubits for specs in RESTRICTIONS.values() for num_qubits, _ in specs}
    assert widths == set(range(1, WIDEST_DEVICE + 1))


@pytest.mark.parametrize("spec", list(GENERATOR_MAPS), ids=list(GENERATOR_MAPS.values()))
def test_generator_maps_route_as_networkx(spec):
    _assert_paths_match_networkx(*spec)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(RESTRICTIONS))
def test_every_narrower_restriction_routes_as_networkx(name):
    for spec in RESTRICTIONS[name]:
        _assert_paths_match_networkx(*spec)


@st.composite
def shuffled_maps(draw) -> tuple[int, Edges]:
    """A connected map: a random spanning tree plus extra edges, shuffled and flipped."""
    num_qubits = draw(st.integers(min_value=2, max_value=16))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, num_qubits)]
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    edge = st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1])
    extra = draw(st.lists(edge, max_size=2 * num_qubits))
    edges = draw(st.permutations(tree + extra))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return num_qubits, tuple((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))


@settings(max_examples=200, deadline=None)
@given(shuffled_maps())
def test_shuffled_random_maps_route_as_networkx(spec):
    _assert_paths_match_networkx(*spec)
