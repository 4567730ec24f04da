"""Property tests for the packed-outcome backend.

Covers the tentpole invariants of the array-native core:

* pack/unpack round-trips for random widths from 1 to 70 bits (crossing the
  one-word/two-word boundary) and random supports;
* array kernels (``hamming_spectrum``, ``average_chs``,
  ``cumulative_hamming_strength``, ``distance_to_correct_set``) agree with
  straightforward pure-Python references;
* the vectorised ``hammer`` agrees with ``hammer_reference`` under all four
  combinations of the ``use_filter`` / ``include_self_probability`` knobs;
* packed views survive (are shared, sliced — never rebuilt) across the
  derived-distribution operations pipelines chain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Distribution, HammerConfig, PackedOutcomes, hammer, hammer_reference
from repro.core.bitstring import pack_bit_matrix
from repro.core.pipeline import HammerStage, PostProcessingPipeline, TruncationStage
from repro.core.spectrum import (
    average_chs,
    cumulative_hamming_strength,
    distance_to_correct_set,
    hamming_spectrum,
)
from repro.exceptions import BitstringError, DistributionError


def random_support(rng: np.random.Generator, num_bits: int, size: int) -> list[str]:
    """Distinct random bitstrings of the given width."""
    population = min(1 << min(num_bits, 20), 4 * size)
    values = rng.choice(population, size=min(size, population), replace=False)
    return [format(int(v), f"0{num_bits}b") for v in values]


widths = st.integers(min_value=1, max_value=70)


@st.composite
def supports(draw):
    """A (width, outcomes) pair with 1-24 distinct outcomes of that width."""
    num_bits = draw(widths)
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(size, num_bits), dtype=np.uint8)
    unique = np.unique(bits, axis=0)
    strings = ["".join("1" if b else "0" for b in row) for row in unique]
    return num_bits, strings


@st.composite
def shot_matrices(draw):
    """A ``(shots, width)`` sample matrix whose shots repeat a small row pool.

    Widths 1-64 fill one packed word and 65-130 two or three; 64 and 128 are
    drawn on purpose, because their random rows mix set and clear top bits
    of a word, which a signed sort would misorder.  A pool of one row gives
    an all-equal matrix, and one shot a single row.
    """
    num_bits = draw(
        st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=65, max_value=130),
            st.sampled_from([64, 128]),
        )
    )
    shots = draw(st.integers(min_value=1, max_value=3_000))
    pool_size = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    pool = rng.integers(0, 2, size=(pool_size, num_bits), dtype=np.uint8)
    return pool[rng.integers(0, pool_size, size=shots)]


@st.composite
def random_distributions(draw):
    num_bits, strings = draw(supports())
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=len(strings),
            max_size=len(strings),
        )
    )
    return Distribution(dict(zip(strings, weights)), num_bits=num_bits)


class TestPackRoundTrip:
    @given(supports())
    @settings(max_examples=60, deadline=None)
    def test_strings_round_trip(self, width_and_strings):
        num_bits, strings = width_and_strings
        packed = PackedOutcomes.from_strings(strings, num_bits=num_bits)
        assert packed.to_strings() == strings
        assert packed.words.shape == (len(strings), (num_bits + 63) // 64)

    @given(supports())
    @settings(max_examples=60, deadline=None)
    def test_bit_matrix_round_trip(self, width_and_strings):
        num_bits, strings = width_and_strings
        packed = PackedOutcomes.from_strings(strings, num_bits=num_bits)
        rebuilt = PackedOutcomes.from_bit_matrix(packed.bit_matrix().copy())
        assert np.array_equal(rebuilt.words, packed.words)
        assert rebuilt.to_strings() == strings

    @given(supports())
    @settings(max_examples=40, deadline=None)
    def test_packed_words_match_per_string_ints(self, width_and_strings):
        num_bits, strings = width_and_strings
        packed = PackedOutcomes.from_strings(strings, num_bits=num_bits)
        num_words = (num_bits + 63) // 64
        for row, outcome in enumerate(strings):
            for word_index in range(num_words):
                chunk = outcome[word_index * 64 : (word_index + 1) * 64]
                assert int(packed.words[row, word_index]) == int(chunk, 2)

    def test_aggregate_counts_shots(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(500, 9), dtype=np.uint8)
        packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
        assert counts.sum() == 500
        # Sorted, deterministic support regardless of shot order.
        shuffled = bits[rng.permutation(500)]
        packed2, counts2 = PackedOutcomes.aggregate_bit_matrix(shuffled)
        assert np.array_equal(packed.words, packed2.words)
        assert np.array_equal(counts, counts2)

    @given(shot_matrices())
    @settings(max_examples=60, deadline=None)
    @example(np.ones((1, 64), dtype=np.uint8))
    @example(np.ones((300, 64), dtype=np.uint8))
    @example(np.eye(64, dtype=np.uint8)[[0, 63, 0, 1, 63]])
    def test_aggregate_matches_unique_rows(self, bits):
        """Both counting paths equal ``np.unique`` over whole rows + bincount."""
        num_bits = bits.shape[1]
        words = pack_bit_matrix(bits)
        unique_words, inverse = np.unique(words, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        expected = np.bincount(inverse).astype(float)
        for packed, counts in (
            PackedOutcomes.aggregate_bit_matrix(bits),
            PackedOutcomes._aggregate_words(words, num_bits),
        ):
            assert packed.words.dtype == np.uint64
            assert packed.words.shape == (len(expected), (num_bits + 63) // 64)
            assert np.array_equal(packed.words, unique_words)
            assert counts.dtype == np.float64
            assert np.array_equal(counts, expected)
        weights = np.random.default_rng(len(bits)).random(len(bits))
        expected = np.bincount(inverse, weights=weights)
        for packed, totals in (
            PackedOutcomes.aggregate_bit_matrix(bits, weights),
            PackedOutcomes._aggregate_words(words, num_bits, weights),
        ):
            assert np.array_equal(packed.words, unique_words)
            assert totals.tobytes() == expected.tobytes()

    def test_rejects_empty(self):
        with pytest.raises(BitstringError):
            PackedOutcomes.from_strings([])
        with pytest.raises(BitstringError):
            PackedOutcomes.aggregate_bit_matrix(np.zeros((0, 4), dtype=np.uint8))

    def test_rejects_non_binary_matrix(self):
        with pytest.raises(BitstringError):
            PackedOutcomes.from_bit_matrix(np.array([[2, 0], [0, 1]]))

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([[256, 257, 1]]),
            np.array([[-255, 0, 1]]),
            np.array([[0.5, 1.0, 0.0]]),
            np.array([[1.7, 0.0, 1.0]]),
            np.array([[np.nan, 0.0, 1.0]]),
        ],
        ids=["256-257", "minus-255", "half", "1.7", "nan"],
    )
    @pytest.mark.parametrize(
        "entry",
        [pack_bit_matrix, PackedOutcomes.from_bit_matrix, PackedOutcomes.aggregate_bit_matrix],
        ids=["pack_bit_matrix", "from_bit_matrix", "aggregate_bit_matrix"],
    )
    def test_rejects_values_a_uint8_cast_would_turn_into_bits(self, entry, bits):
        """The 0/1 check runs on the caller's dtype: 256 must not wrap to 0."""
        with pytest.raises(BitstringError, match="outside"):
            entry(bits)

    @pytest.mark.parametrize("width", [1, 10, 63, 64, 65, 127, 128, 129, 130, 200])
    def test_pack_matches_per_word_ints_for_every_bit_dtype(self, width):
        """Every word equals ``int(columns, 2)``; bool, int and float 0/1 pack alike."""
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, size=(9, width), dtype=np.uint8)
        words = pack_bit_matrix(bits)
        assert words.dtype == np.uint64 and words.shape == (9, (width + 63) // 64)
        for row, values in enumerate(bits):
            text = "".join(map(str, values))
            expected = [int(text[lo : lo + 64], 2) for lo in range(0, width, 64)]
            assert words[row].tolist() == expected
        for dtype in (bool, np.int64, np.float64):
            assert pack_bit_matrix(bits.astype(dtype)).tobytes() == words.tobytes()
        assert pack_bit_matrix(bits[:0]).shape == (0, words.shape[1])


class TestDistanceKernels:
    @given(supports())
    @settings(max_examples=40, deadline=None)
    def test_block_distances_match_brute_force(self, width_and_strings):
        _, strings = width_and_strings
        packed = PackedOutcomes.from_strings(strings)
        distances = packed.block_distances(0, packed.num_outcomes)
        brute = np.array(
            [[sum(a != b for a, b in zip(x, y)) for y in strings] for x in strings]
        )
        assert np.array_equal(distances, brute)

    @given(supports())
    @settings(max_examples=40, deadline=None)
    def test_min_distances_match_scalar(self, width_and_strings):
        _, strings = width_and_strings
        packed = PackedOutcomes.from_strings(strings)
        correct = PackedOutcomes.from_strings(strings[: max(1, len(strings) // 3)])
        minima = packed.min_distances_to(correct)
        for outcome, found in zip(strings, minima):
            assert found == distance_to_correct_set(outcome, correct.to_strings())


def _reference_spectrum_bins(dist: Distribution, correct: list[str]) -> np.ndarray:
    bins = np.zeros(dist.num_bits + 1)
    for outcome, probability in dist.items():
        best = min(sum(a != b for a, b in zip(outcome, c)) for c in correct)
        bins[best] += probability
    return bins


def _reference_average_chs(dist: Distribution, limit: int) -> np.ndarray:
    probabilities = dist.probabilities()
    chs = np.zeros(limit + 1)
    for x in probabilities:
        for y, p in probabilities.items():
            distance = sum(a != b for a, b in zip(x, y))
            if distance <= limit:
                chs[distance] += p
    return chs / len(probabilities)


class TestSpectrumAgainstReference:
    @given(random_distributions())
    @settings(max_examples=30, deadline=None)
    def test_hamming_spectrum_matches_reference(self, dist):
        correct = dist.outcomes()[: max(1, dist.num_outcomes // 4)]
        bins = hamming_spectrum(dist, correct).bins
        assert np.allclose(bins, _reference_spectrum_bins(dist, correct), atol=1e-12)

    @given(random_distributions())
    @settings(max_examples=25, deadline=None)
    def test_average_chs_matches_reference(self, dist):
        result = average_chs(dist)
        assert np.allclose(result, _reference_average_chs(dist, dist.num_bits), atol=1e-12)

    @given(random_distributions())
    @settings(max_examples=25, deadline=None)
    def test_cumulative_chs_matches_reference(self, dist):
        outcome = dist.outcomes()[0]
        chs = cumulative_hamming_strength(dist, outcome)
        expected = np.zeros(dist.num_bits + 1)
        for y, p in dist.items():
            expected[sum(a != b for a, b in zip(outcome, y))] += p
        assert np.allclose(chs, expected, atol=1e-12)


class TestDenseChsPath:
    """Supports wide enough to trigger the Walsh–Hadamard CHS fast path."""

    def _wide_support_distribution(self, num_bits: int = 8, size: int = 120) -> Distribution:
        rng = np.random.default_rng(13)
        values = rng.choice(1 << num_bits, size=size, replace=False)
        weights = rng.random(size) + 0.01
        data = {format(int(v), f"0{num_bits}b"): float(w) for v, w in zip(values, weights)}
        return Distribution(data, num_bits=num_bits)

    def test_dense_path_is_selected(self):
        from repro.core.kernels import DENSE_CHS_MAX_BITS

        dist = self._wide_support_distribution()
        assert dist.num_bits <= DENSE_CHS_MAX_BITS
        assert (3 * dist.num_bits + 1) * (1 << dist.num_bits) < dist.num_outcomes**2

    def test_dense_average_chs_matches_reference(self):
        dist = self._wide_support_distribution()
        assert not dist.has_packed_view()
        cold = average_chs(dist)
        assert np.allclose(cold, _reference_average_chs(dist, dist.num_bits), atol=1e-9)
        # The second call reads the packed view the first one cached.
        assert np.array_equal(average_chs(dist), cold)

    def test_dense_hammer_matches_reference(self):
        dist = self._wide_support_distribution()
        vectorized = hammer(dist)
        reference = hammer_reference(dist)
        for outcome in dist.outcomes():
            assert vectorized.probability(outcome) == pytest.approx(
                reference.probability(outcome), abs=1e-9
            )


class TestHammerKnobsAgainstReference:
    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("include_self", [True, False])
    @given(dist=random_distributions())
    @settings(max_examples=10, deadline=None)
    def test_all_knob_combinations(self, dist, use_filter, include_self):
        config = HammerConfig(use_filter=use_filter, include_self_probability=include_self)
        vectorized = hammer(dist, config)
        reference = hammer_reference(dist, config)
        for outcome in dist.outcomes():
            assert vectorized.probability(outcome) == pytest.approx(
                reference.probability(outcome), abs=1e-9
            )


class TestDistributionArrayBackend:
    def test_from_bit_matrix_counts(self):
        bits = np.array([[0, 1], [0, 1], [1, 0], [0, 1]], dtype=np.uint8)
        dist = Distribution.from_bit_matrix(bits)
        assert dist.probability("01") == pytest.approx(0.75)
        assert dist.probability("10") == pytest.approx(0.25)
        assert dist.has_packed_view()

    def test_from_bit_matrix_rejects_empty(self):
        with pytest.raises(DistributionError):
            Distribution.from_bit_matrix(np.zeros((0, 3), dtype=np.uint8))

    def test_from_bit_matrix_rejects_values_that_would_wrap(self):
        # Cast first, [256, 257] would read as "01" and merge with the second shot.
        with pytest.raises(DistributionError, match="outside"):
            Distribution.from_bit_matrix(np.array([[256, 257], [0, 1]]))

    def test_from_packed_rejects_duplicate_rows(self):
        duplicated = PackedOutcomes.from_bit_matrix(
            np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
        )
        with pytest.raises(DistributionError):
            Distribution.from_packed(duplicated, weights=np.array([0.25, 0.25, 0.5]))

    def test_from_packed_shares_words(self):
        dist = Distribution({"0011": 1.0, "1100": 3.0})
        packed = dist.packed()
        derived = Distribution.from_packed(packed.with_probabilities(np.array([0.5, 0.5])))
        assert derived.packed().words is packed.words
        assert derived.probability("0011") == pytest.approx(0.5)

    def test_probability_vector_cached_and_normalised(self):
        dist = Distribution({"00": 1.0, "11": 3.0})
        vec = dist.probability_vector()
        assert vec is dist.probability_vector()
        assert vec.sum() == pytest.approx(1.0)
        assert dist.probability_vector()[1] == pytest.approx(0.75)

    def test_top_k_breaks_ties_lexicographically(self):
        ascending = Distribution({"10": 1.0, "01": 1.0, "11": 2.0})
        descending = Distribution({"01": 1.0, "10": 1.0, "11": 2.0})
        assert ascending.top_k(2).outcomes() == descending.top_k(2).outcomes() == ["11", "01"]

    def test_top_k_slices_packed_view(self):
        dist = Distribution({"10": 1.0, "01": 2.0, "11": 4.0})
        dist.packed()
        top = dist.top_k(2)
        assert top.has_packed_view()
        assert top.outcomes() == ["11", "01"]
        assert top.probability_vector()[0] == pytest.approx(4.0 / 6.0)

    def test_mapped_and_marginal_preserve_semantics(self):
        dist = Distribution({"011": 1.0, "110": 3.0})
        remapped = dist.mapped([2, 1, 0])
        assert remapped.probability("110") == pytest.approx(0.25)
        assert remapped.probability("011") == pytest.approx(0.75)
        marginal = dist.marginal([0, 2])
        assert marginal.probability("01") == pytest.approx(0.25)
        assert marginal.probability("10") == pytest.approx(0.75)


class TestPipelinePacksOnce:
    def test_stage_outputs_carry_packed_view(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(4000, 10), dtype=np.uint8)
        noisy = Distribution.from_bit_matrix(bits)
        assert noisy.has_packed_view()
        pipeline = PostProcessingPipeline([TruncationStage(top_k=50), HammerStage()])
        truncated = pipeline.stages[0].apply(noisy)
        assert truncated.has_packed_view()
        corrected = pipeline.stages[1].apply(truncated)
        assert corrected.has_packed_view()
        # HAMMER's output shares the truncated support's packed words.
        assert corrected.packed().words is truncated.packed().words
