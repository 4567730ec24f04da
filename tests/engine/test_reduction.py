"""Property and unit tests for the deterministic reduction tree.

The contract under test: a :class:`ReductionTree` fed the same chunk
segments in *any* completion order produces a Distribution bit-identical to
the flat ``merge_counted_chunks`` reference — for any segment count and for
register widths straddling the one-word/two-word boundary (63/64/65 bits) —
and its merges interleave sorted segments without sorting anything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstring import PackedOutcomes
from repro.engine.reduction import ReductionTree, merge_sorted_segments
from repro.exceptions import EngineError, MergeError, NoiseModelError
from repro.quantum.sampler import merge_counted_chunks


def _random_segments(rng: np.random.Generator, num_segments: int, num_bits: int):
    """Synthetic sharded partial histograms in aggregation order."""
    segments = []
    for _ in range(num_segments):
        rows = int(rng.integers(1, 40))
        bits = rng.integers(0, 2, size=(rows, num_bits), dtype=np.uint8)
        packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
        segments.append((packed.words, counts))
    return segments


def _tree_merge(segments, num_bits: int):
    """Feed ``segments`` to a :class:`ReductionTree` in index order."""
    tree = ReductionTree(len(segments), num_bits)
    for index, (words, counts) in enumerate(segments):
        tree.add(index, words, counts)
    return tree.distribution()


class TestTreeEqualsFlatMerge:
    @given(
        num_segments=st.integers(min_value=1, max_value=17),
        num_bits=st.sampled_from([5, 63, 64, 65]),
        seed=st.integers(min_value=0, max_value=2**20),
        order_seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_tree_merge_bit_identical_to_flat_merge(
        self, num_segments, num_bits, seed, order_seed
    ):
        rng = np.random.default_rng(seed)
        segments = _random_segments(rng, num_segments, num_bits)
        flat = merge_counted_chunks(segments, num_bits)

        order = np.random.default_rng(order_seed).permutation(num_segments)
        tree = ReductionTree(num_segments, num_bits)
        for index in order:
            tree.add(int(index), *segments[index])
        assert tree.complete
        merged = tree.distribution()

        assert merged == flat
        assert np.array_equal(merged.packed().words, flat.packed().words)
        # Dict equality is exact float comparison: bit-identity, not isclose.
        assert merged.probabilities() == flat.probabilities()

    @given(
        num_segments=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_completion_order_gives_identical_bits(self, num_segments, seed):
        rng = np.random.default_rng(seed)
        segments = _random_segments(rng, num_segments, 64)
        reference = _tree_merge(segments, 64)
        for order_seed in range(3):
            order = np.random.default_rng((seed, order_seed)).permutation(num_segments)
            tree = ReductionTree(num_segments, 64)
            for index in order:
                tree.add(int(index), *segments[index])
            merged = tree.distribution()
            assert np.array_equal(merged.packed().words, reference.packed().words)
            assert merged.probabilities() == reference.probabilities()


def _count_sorts(monkeypatch) -> list[str]:
    """From now on, record each call of NumPy's sorting functions by name."""
    calls: list[str] = []
    for name in ("unique", "sort", "argsort", "lexsort"):
        original = getattr(np, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return calls


class TestMergesNeverSort:
    """A merge interleaves two sorted segments: only the flat reference sorts."""

    @pytest.mark.parametrize("num_bits", [16, 100])
    def test_shuffled_tree_merges_call_no_sort(self, monkeypatch, num_bits):
        segments = _random_segments(np.random.default_rng(num_bits), 16, num_bits)
        order = np.random.default_rng(7).permutation(16)
        sorts = _count_sorts(monkeypatch)
        tree = ReductionTree(16, num_bits)
        for index in order:
            tree.add(int(index), *segments[index])
        assert tree.complete and tree.stats().merges == 15
        assert sorts == []
        flat = merge_counted_chunks(segments, num_bits)
        assert "unique" in sorts  # the counter sees the flat merge's sort
        merged = tree.distribution()
        assert np.array_equal(merged.packed().words, flat.packed().words)
        assert merged.probabilities() == flat.probabilities()


class TestMergeSortedSegments:
    def test_disjoint_and_overlapping_supports(self):
        left = (np.array([[1], [5]], dtype=np.uint64), np.array([2.0, 3.0]))
        right = (np.array([[0], [5], [9]], dtype=np.uint64), np.array([1.0, 4.0, 6.0]))
        words, counts = merge_sorted_segments(left, right)
        assert words[:, 0].tolist() == [0, 1, 5, 9]
        assert counts.tolist() == [1.0, 2.0, 7.0, 6.0]

    def test_word_count_mismatch_raises(self):
        left = (np.zeros((1, 1), dtype=np.uint64), np.ones(1))
        right = (np.zeros((1, 2), dtype=np.uint64), np.ones(1))
        with pytest.raises(MergeError):
            merge_sorted_segments(left, right)


class TestTreeMechanics:
    def test_stats_in_order_completion(self):
        # 8 chunks, and a 256-chunk stream on a two-word register.
        for num_leaves, num_bits, depth in ((8, 16, 3), (256, 100, 8)):
            segments = _random_segments(np.random.default_rng(3), num_leaves, num_bits)
            tree = ReductionTree(num_leaves, num_bits)
            for index, (words, counts) in enumerate(segments):
                tree.add(index, words, counts)
            stats = tree.stats()
            assert stats.num_leaves == num_leaves
            assert stats.depth == depth
            assert stats.merges == num_leaves - 1
            # In-order arrival holds at most one live segment per level.
            assert stats.peak_live_segments <= stats.depth + 1
            assert tree.distribution().num_bits == num_bits

    def test_non_power_of_two_leaf_counts(self):
        for count in (1, 3, 5, 6, 7, 11):
            segments = _random_segments(np.random.default_rng(count), count, 10)
            merged = _tree_merge(segments, 10)
            flat = merge_counted_chunks(segments, 10)
            assert np.array_equal(merged.packed().words, flat.packed().words)
            assert merged.probabilities() == flat.probabilities()

    def test_incomplete_tree_refuses_result(self):
        tree = ReductionTree(3, 8)
        with pytest.raises(MergeError, match="incomplete"):
            tree.result_segment()

    def test_out_of_range_and_duplicate_indices(self):
        ((words, counts),) = _random_segments(np.random.default_rng(0), 1, 8)
        tree = ReductionTree(2, 8)
        with pytest.raises(MergeError):
            tree.add(2, words, counts)
        tree.add(0, words, counts)
        with pytest.raises(MergeError, match="twice"):
            tree.add(0, words, counts)

    def test_arrived_tracks_deliveries(self):
        # The polite pre-check an at-least-once transport uses to drop a
        # late duplicate before tripping add()'s hard guard.
        ((words, counts),) = _random_segments(np.random.default_rng(1), 1, 8)
        tree = ReductionTree(2, 8)
        assert not tree.arrived(0) and not tree.arrived(1)
        tree.add(0, words, counts)
        assert tree.arrived(0) and not tree.arrived(1)
        with pytest.raises(MergeError, match="outside"):
            tree.arrived(2)

    def test_zero_leaves_rejected(self):
        with pytest.raises(MergeError):
            ReductionTree(0, 4)


class TestMergeErrorCompatibility:
    def test_merge_error_is_engine_error_only(self):
        # The one-release NoiseModelError compatibility shim is gone:
        # MergeError is a plain EngineError now.
        assert issubclass(MergeError, EngineError)
        assert not issubclass(MergeError, NoiseModelError)

    def test_flat_merge_raises_merge_error_on_empty(self):
        with pytest.raises(MergeError):
            merge_counted_chunks([], 4)
