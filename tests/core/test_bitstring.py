"""Unit and property-based tests for bitstring utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitstring as bs
from repro.exceptions import BitstringError

bitstrings = st.text(alphabet="01", min_size=1, max_size=24)


def paired_bitstrings(max_size: int = 24):
    """Strategy producing two bitstrings of equal width."""
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="01", min_size=n, max_size=n),
            st.text(alphabet="01", min_size=n, max_size=n),
        )
    )


class TestValidation:
    def test_accepts_valid_bitstring(self):
        assert bs.validate_bitstring("0101") == "0101"

    def test_rejects_empty(self):
        with pytest.raises(BitstringError):
            bs.validate_bitstring("")

    def test_rejects_bad_characters(self):
        with pytest.raises(BitstringError):
            bs.validate_bitstring("01a1")

    def test_rejects_wrong_width(self):
        with pytest.raises(BitstringError):
            bs.validate_bitstring("010", num_bits=4)

    def test_rejects_non_string(self):
        with pytest.raises(BitstringError):
            bs.validate_bitstring(0b0101)  # type: ignore[arg-type]


class TestConversions:
    def test_round_trip_small(self):
        assert bs.int_to_bitstring(10, 4) == "1010"

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_round_trip_property(self, value):
        assert int(bs.int_to_bitstring(value, 20), 2) == value

    def test_int_to_bitstring_rejects_overflow(self):
        with pytest.raises(BitstringError):
            bs.int_to_bitstring(16, 4)

    def test_int_to_bitstring_rejects_negative(self):
        with pytest.raises(BitstringError):
            bs.int_to_bitstring(-1, 4)

    def test_int_to_bitstring_rejects_zero_width(self):
        with pytest.raises(BitstringError):
            bs.int_to_bitstring(0, 0)


class TestHammingDistance:
    def test_known_values(self):
        assert bs.hamming_distance("0000", "0000") == 0
        assert bs.hamming_distance("0000", "1111") == 4
        assert bs.hamming_distance("1010", "1001") == 2

    def test_rejects_width_mismatch(self):
        with pytest.raises(BitstringError):
            bs.hamming_distance("00", "000")

    @given(paired_bitstrings())
    def test_symmetry(self, pair):
        a, b = pair
        assert bs.hamming_distance(a, b) == bs.hamming_distance(b, a)

    @given(paired_bitstrings())
    def test_bounds(self, pair):
        a, b = pair
        distance = bs.hamming_distance(a, b)
        assert 0 <= distance <= len(a)
        assert (distance == 0) == (a == b)

    @given(bitstrings)
    def test_distance_to_all_zeros_counts_the_ones(self, value):
        assert bs.hamming_distance(value, "0" * len(value)) == value.count("1")

    @given(st.integers(min_value=1, max_value=24).flatmap(
        lambda n: st.lists(st.text(alphabet="01", min_size=n, max_size=n), min_size=3, max_size=3)
    ))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert bs.hamming_distance(a, c) <= bs.hamming_distance(a, b) + bs.hamming_distance(b, c)


class TestFlipAndNeighbors:
    def test_flip_bits(self):
        assert bs.flip_bits("0000", [0, 3]) == "1001"

    def test_flip_bits_out_of_range(self):
        with pytest.raises(BitstringError):
            bs.flip_bits("0000", [4])

    @given(bitstrings, st.data())
    def test_flipping_k_positions_moves_distance_k(self, value, data):
        positions = data.draw(st.sets(st.integers(0, len(value) - 1)))
        assert bs.hamming_distance(bs.flip_bits(value, positions), value) == len(positions)

    def test_neighbors_at_distance_counts(self):
        neighbors = list(bs.neighbors_at_distance("0000", 2))
        assert len(neighbors) == 6
        assert all(bs.hamming_distance(n, "0000") == 2 for n in neighbors)

    def test_neighbors_at_distance_zero(self):
        assert list(bs.neighbors_at_distance("101", 0)) == ["101"]

    def test_neighbors_rejects_bad_distance(self):
        with pytest.raises(BitstringError):
            list(bs.neighbors_at_distance("101", 4))

    @given(bitstrings, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30)
    def test_neighbors_all_at_exact_distance(self, value, distance):
        if distance > len(value):
            return
        for neighbor in bs.neighbors_at_distance(value, distance):
            assert bs.hamming_distance(neighbor, value) == distance


class TestPackedDistances:
    @given(st.lists(st.text(alphabet="01", min_size=7, max_size=7), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_pairwise_matrix_matches_scalar(self, strings):
        matrix = bs.PackedOutcomes.from_strings(strings).block_distances(0, len(strings))
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                assert matrix[i, j] == bs.hamming_distance(a, b)

    def test_pairwise_matrix_wide_strings(self):
        strings = ["0" * 70, "1" * 70, ("10" * 35)]
        matrix = bs.PackedOutcomes.from_strings(strings).block_distances(0, len(strings))
        assert matrix[0, 1] == 70
        assert matrix[0, 2] == 35
        assert matrix[1, 2] == 35

    def test_distance_to_reference(self):
        strings = ["000", "001", "011", "111"]
        distances = bs.PackedOutcomes.from_strings(strings).distances_to_reference("000")
        assert list(distances) == [0, 1, 2, 3]

    @given(st.integers(min_value=1, max_value=130), st.integers(0, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_unpack_inverts_pack(self, num_bits, shots, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(shots, num_bits), dtype=np.uint8)
        words = bs.pack_bit_matrix(bits)
        assert words.shape == (shots, -(-num_bits // 64))
        assert np.array_equal(bs.unpack_bit_matrix(words, num_bits), bits)

    def test_pack_rejects_empty(self):
        with pytest.raises(BitstringError):
            bs.PackedOutcomes.from_strings([])

    def test_pack_rejects_mixed_width(self):
        with pytest.raises(BitstringError):
            bs.PackedOutcomes.from_strings(["00", "000"])


class TestXorDistanceHistogram:
    """``chs[d]`` sums ``w(y)`` over every ordered pair ``(x, y)`` at distance ``d <= limit``."""

    @given(
        st.lists(st.text(alphabet="01", min_size=6, max_size=6), min_size=1, max_size=12, unique=True),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_pair_sum(self, strings, limit, seed):
        weights = np.random.default_rng(seed).random(len(strings))
        expected = np.zeros(7)
        for x in strings:
            for y, weight in zip(strings, weights):
                distance = bs.hamming_distance(x, y)
                if distance <= limit:
                    expected[distance] += weight
        got = bs.xor_distance_histogram(bs.PackedOutcomes.from_strings(strings), weights, limit)
        assert got.shape == (7,)
        assert np.allclose(got, expected)

    def test_zero_beyond_the_limit(self):
        strings = ["0" * 70, "1" * 70, "10" * 35]
        packed = bs.PackedOutcomes.from_strings(strings)
        got = bs.xor_distance_histogram(packed, np.ones(3), limit=35)
        assert got.shape == (71,)
        assert got[0] == 3.0 and got[35] == 4.0
        assert not got[36:].any()
