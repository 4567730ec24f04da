"""Tests for coupling maps."""

from __future__ import annotations

import pytest

from repro.exceptions import DeviceError
from repro.quantum import (
    CouplingMap,
    full_coupling,
    grid_coupling,
    heavy_hex_like_coupling,
    linear_coupling,
    ring_coupling,
    sycamore_like_coupling,
)


class TestCouplingMap:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(DeviceError):
            CouplingMap(0, [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DeviceError):
            CouplingMap(2, [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(DeviceError):
            CouplingMap(2, [(1, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(DeviceError):
            CouplingMap(4, [(0, 1), (2, 3)], name="split")

    def test_are_coupled_and_neighbors(self):
        cmap = linear_coupling(4)
        assert cmap.are_coupled(0, 1)
        assert not cmap.are_coupled(0, 2)
        assert cmap.neighbors(1) == [0, 2]

    def test_distance_and_path(self):
        cmap = linear_coupling(5)
        assert cmap.distance(0, 4) == 4
        path = cmap.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 4

    def test_a_qubit_outside_the_map_raises_a_device_error(self):
        cmap = linear_coupling(4)
        message = "qubit 9 is not on coupling map 'linear-4'"
        with pytest.raises(DeviceError, match=message):
            cmap.neighbors(9)
        with pytest.raises(DeviceError, match=message):
            cmap.distance(0, 9)
        with pytest.raises(DeviceError, match=message):
            cmap.shortest_path(9, 0)
        with pytest.raises(DeviceError, match="qubit -1 is not on"):
            cmap.shortest_path(-1, -1)
        assert not cmap.are_coupled(3, 9)
        assert not cmap.are_coupled(9, 3)


class TestTopologies:
    def test_linear(self):
        cmap = linear_coupling(6)
        assert len(cmap.edges()) == 5

    def test_ring(self):
        cmap = ring_coupling(6)
        assert len(cmap.edges()) == 6
        assert cmap.are_coupled(0, 5)

    def test_ring_rejects_small(self):
        with pytest.raises(DeviceError):
            ring_coupling(2)

    def test_grid(self):
        cmap = grid_coupling(3, 4)
        assert cmap.num_qubits == 12
        assert len(cmap.edges()) == 3 * 3 + 2 * 4  # horizontal + vertical edges

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(DeviceError):
            grid_coupling(0, 3)

    def test_heavy_hex_like(self):
        cmap = heavy_hex_like_coupling(27)
        assert cmap.num_qubits == 27
        assert len(cmap.edges()) > 26  # chain plus bridges

    def test_sycamore_like_exact_square(self):
        cmap = sycamore_like_coupling(9)
        assert cmap.num_qubits == 9

    def test_sycamore_like_non_square(self):
        cmap = sycamore_like_coupling(7)
        assert cmap.num_qubits == 7
        # still connected (constructor would raise otherwise)
        assert cmap.distance(0, 6) >= 1

    def test_full_coupling(self):
        cmap = full_coupling(5)
        assert len(cmap.edges()) == 10
        assert all(cmap.are_coupled(a, b) for a in range(5) for b in range(5) if a != b)
