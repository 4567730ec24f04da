"""Unit and property-based tests for the Distribution class."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Distribution
from repro.core.bitstring import PackedOutcomes
from repro.exceptions import DistributionError


def distributions(num_bits: int = 5, max_outcomes: int = 12):
    """Hypothesis strategy generating valid distributions."""
    outcome = st.integers(min_value=0, max_value=2**num_bits - 1).map(
        lambda v: format(v, f"0{num_bits}b")
    )
    return st.dictionaries(
        outcome, st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=max_outcomes
    ).map(lambda data: Distribution(data, num_bits=num_bits))


class TestConstruction:
    def test_from_counts(self):
        dist = Distribution.from_counts({"00": 25, "11": 75})
        assert dist.probability("11") == pytest.approx(0.75)
        assert dist.total_weight == 100

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Distribution({})

    def test_rejects_negative_weight(self):
        with pytest.raises(DistributionError):
            Distribution({"0": -1.0})

    def test_rejects_nan_weight(self):
        with pytest.raises(DistributionError):
            Distribution({"0": float("nan")})

    def test_rejects_zero_total(self):
        with pytest.raises(DistributionError):
            Distribution({"0": 0.0})

    def test_rejects_mixed_widths(self):
        with pytest.raises(DistributionError):
            Distribution({"00": 1.0, "000": 1.0})

    def test_from_probabilities_need_not_sum_to_one(self):
        dist = Distribution.from_probabilities({"01": 0.3, "10": 0.1}, num_bits=2)
        assert dist.num_bits == 2
        assert dist.probability("01") == pytest.approx(0.75)
        assert dist.probability("10") == pytest.approx(0.25)

    def test_from_samples(self):
        dist = Distribution.from_samples(["01", "01", "10", "01"])
        assert dist.probability("01") == pytest.approx(0.75)

    def test_from_samples_empty(self):
        with pytest.raises(DistributionError):
            Distribution.from_samples([])

    def test_from_statevector_probabilities(self):
        vector = np.array([0.5, 0.0, 0.0, 0.5])
        dist = Distribution.from_statevector_probabilities(vector, 2)
        assert set(dist.outcomes()) == {"00", "11"}

    def test_from_statevector_rejects_wrong_length(self):
        with pytest.raises(DistributionError):
            Distribution.from_statevector_probabilities(np.ones(3), 2)

    def test_uniform(self):
        dist = Distribution.uniform(3)
        assert dist.num_outcomes == 8
        assert dist.probability("101") == pytest.approx(1 / 8)

    def test_point_mass(self):
        dist = Distribution.point_mass("0110")
        assert dist.probability("0110") == 1.0
        assert dist.num_outcomes == 1


class TestQueries:
    def test_most_probable(self):
        dist = Distribution({"00": 1, "01": 5, "11": 5})
        assert dist.most_probable() == "01"  # lexicographic tie-break

    def test_ranked_outcomes(self):
        dist = Distribution({"00": 1, "01": 3, "11": 6})
        assert [o for o, _ in dist.ranked_outcomes()] == ["11", "01", "00"]

    def test_entropy_uniform(self):
        assert Distribution.uniform(4).entropy() == pytest.approx(4.0)

    def test_entropy_point_mass(self):
        assert Distribution.point_mass("0101").entropy() == pytest.approx(0.0)

    def test_expectation(self):
        dist = Distribution({"0": 0.5, "1": 0.5})
        assert dist.expectation(lambda s: 1.0 if s == "1" else -1.0) == pytest.approx(0.0)

    def test_hamming_distances_to(self):
        dist = Distribution({"000": 1, "011": 1, "111": 2})
        distances = dist.hamming_distances_to("000")
        assert sorted(distances.tolist()) == [0, 2, 3]

    @given(distributions())
    def test_probabilities_sum_to_one(self, dist):
        assert sum(dist.probabilities().values()) == pytest.approx(1.0)

    @given(distributions())
    def test_probability_of_absent_outcome_is_default(self, dist):
        assert dist.probability("1" * dist.num_bits + "", default=0.0) >= 0.0


class TestTransformations:
    def test_normalized(self):
        dist = Distribution({"0": 2, "1": 6}).normalized()
        assert dist.probability("1") == pytest.approx(0.75)
        assert dist.total_weight == pytest.approx(1.0)

    def test_top_k(self):
        dist = Distribution({"00": 1, "01": 2, "10": 3, "11": 4})
        top = dist.top_k(2)
        assert set(top.outcomes()) == {"11", "10"}

    def test_top_k_rejects_nonpositive(self):
        with pytest.raises(DistributionError):
            Distribution({"0": 1.0}).top_k(0)

    def test_filtered_keeps_argmax(self):
        dist = Distribution({"00": 1, "01": 1, "10": 98})
        filtered = dist.filtered(min_probability=0.5)
        assert filtered.outcomes() == ["10"]

    def test_merged_with(self):
        a = Distribution({"0": 1.0})
        b = Distribution({"1": 1.0})
        merged = a.merged_with(b, weight=0.25)
        assert merged.probability("0") == pytest.approx(0.25)
        assert merged.probability("1") == pytest.approx(0.75)

    def test_merged_with_rejects_width_mismatch(self):
        with pytest.raises(DistributionError):
            Distribution({"0": 1.0}).merged_with(Distribution({"00": 1.0}))

    def test_mapped_permutation(self):
        dist = Distribution({"011": 1.0})
        remapped = dist.mapped([2, 1, 0])
        assert remapped.outcomes() == ["110"]

    def test_mapped_rejects_bad_permutation(self):
        with pytest.raises(DistributionError):
            Distribution({"01": 1.0}).mapped([0, 0])

    def test_marginal(self):
        dist = Distribution({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
        marginal = dist.marginal([0])
        assert marginal.probability("0") == pytest.approx(0.5)
        assert marginal.probability("1") == pytest.approx(0.5)

    def test_marginal_rejects_bad_positions(self):
        with pytest.raises(DistributionError):
            Distribution({"01": 1.0}).marginal([3])

    def test_to_dense(self):
        dense = Distribution({"01": 1.0, "10": 3.0}).to_dense()
        assert dense[1] == pytest.approx(0.25)
        assert dense[2] == pytest.approx(0.75)


class TestSampling:
    def test_sample_reproducible(self):
        dist = Distribution({"00": 0.5, "11": 0.5})
        samples_a = dist.sample(50, rng=np.random.default_rng(1))
        samples_b = dist.sample(50, rng=np.random.default_rng(1))
        assert samples_a == samples_b
        assert set(samples_a) <= {"00", "11"}

    def test_sample_rejects_nonpositive(self):
        with pytest.raises(DistributionError):
            Distribution({"0": 1.0}).sample(0)

    def test_resampled_total(self):
        dist = Distribution({"00": 0.3, "11": 0.7})
        resampled = dist.resampled(1000, rng=np.random.default_rng(2))
        assert resampled.total_weight == pytest.approx(1000)

    @given(distributions(), st.integers(min_value=100, max_value=2000))
    @settings(max_examples=20)
    def test_resampled_is_valid_distribution(self, dist, shots):
        resampled = dist.resampled(shots, rng=np.random.default_rng(0))
        assert math.isclose(sum(resampled.probabilities().values()), 1.0, rel_tol=1e-9)
        assert set(resampled.outcomes()) <= set(dist.outcomes())


class TestEquality:
    def test_equality_ignores_scale(self):
        assert Distribution({"0": 1, "1": 3}) == Distribution({"0": 0.25, "1": 0.75})

    def test_inequality_different_support(self):
        assert Distribution({"0": 1.0}) != Distribution({"1": 1.0})

    def test_inequality_different_width(self):
        assert Distribution({"0": 1.0}) != Distribution({"00": 1.0})


@st.composite
def packed_supports(draw):
    """Unique outcomes at widths 1-130 (word edges favoured), in any order, with weights.

    Weights are shot counts or arbitrary positive floats.
    """
    width = draw(
        st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 130]), st.integers(1, 130))
    )
    values = draw(
        st.lists(
            st.integers(0, 2**width - 1), min_size=1, max_size=min(300, 2**width), unique=True
        )
    )
    element = draw(
        st.sampled_from(
            [st.integers(1, 10**6).map(float), st.floats(min_value=1e-12, max_value=1e12)]
        )
    )
    weights = draw(st.lists(element, min_size=len(values), max_size=len(values)))
    absent = draw(st.lists(st.integers(0, 2**width - 1), max_size=4))
    return width, [format(v, f"0{width}b") for v in values], weights, absent


def _as_rows(distribution):
    return list(distribution.counts().items()), distribution.probability_vector().tolist()


def _assert_same_distribution(actual, expected):
    assert _as_rows(actual) == _as_rows(expected)
    assert actual.total_weight == expected.total_weight
    assert actual.num_bits == expected.num_bits


class TestPackedForm:
    """A ``from_packed`` distribution answers exactly as the mapping form.

    The reference is the mapping the packed constructors used to build:
    ``Distribution(dict, validate=False)`` (whose total is the builtin
    ``sum``, as ``from_packed``'s is) with its packed view built, as
    ``from_packed`` always had it.  Every comparison is exact.
    """

    @staticmethod
    def _pair(width, outcomes, weights):
        words = PackedOutcomes.from_strings(outcomes).words
        packed = Distribution.from_packed(PackedOutcomes(words, width), weights=np.array(weights))
        reference = Distribution(dict(zip(outcomes, weights)), num_bits=width, validate=False)
        reference.packed()
        return packed, reference

    @staticmethod
    def _keys(width, outcomes, absent):
        ones = "1" * width
        odd = [
            "0" * (width + 1),
            ones[:-1],
            "2" * width,
            " " + ones[1:],
            "+" + ones[1:],
            ones[:-1] + "_" if width > 1 else "_",
            "0b" + ones if width > 2 else "x",
            "",
            1,
            1.0,
            None,
            b"0" * width,
            (0,) * width,
        ]
        return outcomes + [format(v, f"0{width}b") for v in absent] + odd

    @given(packed_supports(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_answers_match_the_mapping_form(self, support, data):
        width, outcomes, weights, absent = support
        packed, reference = self._pair(width, outcomes, weights)
        keys = self._keys(width, outcomes, absent)

        # Word-answered accessors first: none of them renders a bitstring.
        for key in keys:
            assert packed.probability(key) == reference.probability(key)
            assert packed.probability(key, -1.0) == reference.probability(key, -1.0)
            assert (key in packed) == (key in reference)
        string_keys = [key for key in keys if isinstance(key, str)]
        assert np.array_equal(packed.support_mask(string_keys), reference.support_mask(string_keys))
        assert len(packed) == len(reference) == packed.num_outcomes == len(outcomes)
        assert packed.total_weight == reference.total_weight
        assert np.array_equal(packed.weight_vector(), reference.weight_vector())
        assert np.array_equal(packed.probability_vector(), reference.probability_vector())
        assert packed.entropy() == reference.entropy()
        if width <= 24:
            assert np.array_equal(packed.to_dense(), reference.to_dense())
        assert packed._weights is None

        restored = pickle.loads(pickle.dumps(packed))
        assert restored._weights is None
        _assert_same_distribution(restored, reference)

        assert packed.outcomes() == reference.outcomes() == list(packed) == outcomes
        assert list(packed.items()) == list(reference.items())
        assert list(packed.counts().items()) == list(reference.counts().items())
        assert list(packed.probabilities().items()) == list(reference.probabilities().items())
        for key in keys:
            assert packed.probability(key) == reference.probability(key)
        assert packed.ranked_outcomes() == reference.ranked_outcomes()
        assert packed.most_probable() == reference.most_probable()
        for k in (1, 3, len(outcomes)):
            _assert_same_distribution(packed.top_k(k), reference.top_k(k))
        _assert_same_distribution(packed.normalized(), reference.normalized())

        permutation = data.draw(st.permutations(range(width)))
        _assert_same_distribution(packed.mapped(permutation), reference.mapped(permutation))
        positions = data.draw(
            st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)
        )
        _assert_same_distribution(packed.marginal(positions), reference.marginal(positions))
        _assert_same_distribution(
            packed.merged_with(packed.top_k(2), 0.3), reference.merged_with(reference.top_k(2), 0.3)
        )
        assert packed == reference and reference == packed
        _assert_same_distribution(pickle.loads(pickle.dumps(packed)), reference)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [0, 1], [1, 0]],  # sorted
            [[1, 0], [0, 1], [1, 0]],  # unsorted
            [[1] * 70, [0] * 70, [1] * 70],  # two words per row
        ],
        ids=["sorted", "unsorted", "two-words"],
    )
    def test_from_packed_rejects_duplicate_rows(self, rows):
        duplicated = PackedOutcomes.from_bit_matrix(np.array(rows, dtype=np.uint8))
        with pytest.raises(DistributionError, match="duplicate rows"):
            Distribution.from_packed(duplicated, weights=np.array([0.25, 0.25, 0.5]))

    def test_pickles_drop_rendered_strings(self):
        packed = Distribution.from_bit_matrix(
            np.random.default_rng(4).integers(0, 2, size=(500, 12), dtype=np.uint8)
        )
        before = len(pickle.dumps(packed))
        packed.outcomes()
        assert len(pickle.dumps(packed)) == before


@pytest.mark.parametrize("num_bits", range(1, 17))
def test_from_statevector_probabilities_matches_the_mapping_build(num_bits):
    """The vectorised support equals the old per-index walk, cutoff ties included."""
    rng = np.random.default_rng(num_bits)
    probabilities = rng.random(1 << num_bits) ** 3
    probabilities /= probabilities.sum()
    cutoff = float(np.median(probabilities))
    probabilities[rng.integers(0, 1 << num_bits, size=3)] = cutoff
    probabilities[0] = 0.0
    probabilities[-1] = 2 * cutoff
    expected = Distribution(
        {
            format(index, f"0{num_bits}b"): float(p)
            for index, p in enumerate(probabilities)
            if p > cutoff
        },
        num_bits=num_bits,
        validate=False,
    )
    actual = Distribution.from_statevector_probabilities(probabilities, num_bits, cutoff=cutoff)
    _assert_same_distribution(actual, expected)
    for index in np.flatnonzero(probabilities == cutoff):
        assert format(int(index), f"0{num_bits}b") not in actual
