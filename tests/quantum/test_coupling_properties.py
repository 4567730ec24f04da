"""Property tests for the coupling-map generators.

Every generator must produce a connected graph, report its edge list in
canonical sorted ``(min, max)`` order, and respect the degree bound of its
lattice family — invariants the router and the calibration subsystem (which
keys per-edge errors by canonical edge) both rely on.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.coupling import (
    grid_coupling,
    heavy_hex_like_coupling,
    linear_coupling,
    ring_coupling,
    sycamore_like_coupling,
)


def _graph(cmap) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(cmap.num_qubits))
    graph.add_edges_from(cmap.edges())
    return graph


def _degrees(cmap) -> list[int]:
    return [degree for _, degree in _graph(cmap).degree()]


def _assert_canonical_edges(cmap) -> None:
    edges = cmap.edges()
    assert edges == sorted(edges)
    assert all(a < b for a, b in edges)
    assert len(set(edges)) == len(edges)


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(min_value=2, max_value=80))
def test_linear_chain_properties(num_qubits):
    cmap = linear_coupling(num_qubits)
    _assert_canonical_edges(cmap)
    assert nx.is_connected(_graph(cmap))
    assert len(cmap.edges()) == num_qubits - 1
    assert max(_degrees(cmap)) <= 2


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(min_value=3, max_value=80))
def test_ring_properties(num_qubits):
    cmap = ring_coupling(num_qubits)
    _assert_canonical_edges(cmap)
    assert nx.is_connected(_graph(cmap))
    assert len(cmap.edges()) == num_qubits
    assert _degrees(cmap) == [2] * num_qubits


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(min_value=1, max_value=9), columns=st.integers(min_value=1, max_value=9))
def test_grid_properties(rows, columns):
    cmap = grid_coupling(rows, columns)
    _assert_canonical_edges(cmap)
    assert cmap.num_qubits == rows * columns
    if cmap.num_qubits > 1:
        assert nx.is_connected(_graph(cmap))
    assert len(cmap.edges()) == rows * (columns - 1) + columns * (rows - 1)
    # Interior lattice sites touch at most 4 neighbours.
    assert max(_degrees(cmap)) <= 4


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(min_value=2, max_value=80))
def test_heavy_hex_like_properties(num_qubits):
    cmap = heavy_hex_like_coupling(num_qubits)
    _assert_canonical_edges(cmap)
    assert nx.is_connected(_graph(cmap))
    # Chain plus one bridge every 4 sites: a site has at most 2 chain
    # neighbours and 2 bridge neighbours.
    assert max(_degrees(cmap)) <= 4
    # Sparse by construction: strictly fewer edges than a 2-D grid of the
    # same size would have.
    assert len(cmap.edges()) <= num_qubits - 1 + (num_qubits - 1) // 4


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(min_value=1, max_value=80))
def test_sycamore_like_properties(num_qubits):
    cmap = sycamore_like_coupling(num_qubits)
    _assert_canonical_edges(cmap)
    assert cmap.num_qubits == num_qubits
    if num_qubits > 1:
        assert nx.is_connected(_graph(cmap))
    assert max(_degrees(cmap), default=0) <= 4
