"""Tests for PST, IST, TVD and related histogram metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Distribution
from repro.core.bitstring import PackedOutcomes
from repro.exceptions import DistributionError
from repro.metrics import (
    classical_fidelity,
    correct_outcome_rank,
    geometric_mean,
    hellinger_distance,
    inference_is_correct,
    inference_strength,
    probability_of_successful_trial,
    relative_improvement,
    total_variation_distance,
)


def distributions(num_bits: int = 4):
    outcome = st.integers(min_value=0, max_value=2**num_bits - 1).map(
        lambda v: format(v, f"0{num_bits}b")
    )
    return st.dictionaries(outcome, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=10).map(
        lambda data: Distribution(data, num_bits=num_bits)
    )


@pytest.fixture
def noisy():
    return Distribution({"11": 0.5, "10": 0.3, "01": 0.2})


class TestPst:
    def test_single_correct(self, noisy):
        assert probability_of_successful_trial(noisy, "11") == pytest.approx(0.5)

    def test_multiple_correct(self, noisy):
        assert probability_of_successful_trial(noisy, ["11", "01"]) == pytest.approx(0.7)

    def test_absent_correct(self, noisy):
        assert probability_of_successful_trial(noisy, "00") == 0.0

    def test_rejects_empty(self, noisy):
        with pytest.raises(DistributionError):
            probability_of_successful_trial(noisy, [])


class TestIst:
    def test_basic_ratio(self, noisy):
        assert inference_strength(noisy, "11") == pytest.approx(0.5 / 0.3)

    def test_ist_below_one_when_wrong_answer_dominates(self, noisy):
        assert inference_strength(noisy, "01") == pytest.approx(0.2 / 0.5)

    def test_infinite_when_no_incorrect(self):
        dist = Distribution({"1": 1.0})
        assert inference_strength(dist, "1") == math.inf

    def test_rejects_empty(self, noisy):
        with pytest.raises(DistributionError):
            inference_strength(noisy, [])


class TestRankAndInference:
    def test_rank_of_top_outcome(self, noisy):
        assert correct_outcome_rank(noisy, "11") == 1
        assert inference_is_correct(noisy, "11")

    def test_rank_of_lower_outcome(self, noisy):
        assert correct_outcome_rank(noisy, "01") == 3
        assert not inference_is_correct(noisy, "01")

    def test_rank_when_unobserved(self, noisy):
        assert correct_outcome_rank(noisy, "00") == noisy.num_outcomes + 1


class TestDistances:
    def test_tvd_identical(self, noisy):
        assert total_variation_distance(noisy, noisy) == pytest.approx(0.0)

    def test_tvd_disjoint(self):
        a = Distribution({"0": 1.0})
        b = Distribution({"1": 1.0})
        assert total_variation_distance(a, b) == pytest.approx(1.0)

    def test_tvd_rejects_width_mismatch(self):
        with pytest.raises(DistributionError):
            total_variation_distance(Distribution({"0": 1.0}), Distribution({"00": 1.0}))

    def test_hellinger_bounds(self):
        a = Distribution({"0": 1.0})
        b = Distribution({"1": 1.0})
        assert hellinger_distance(a, b) == pytest.approx(1.0)
        assert hellinger_distance(a, a) == pytest.approx(0.0)

    def test_classical_fidelity(self):
        a = Distribution({"0": 0.5, "1": 0.5})
        assert classical_fidelity(a, a) == pytest.approx(1.0)
        assert classical_fidelity(a, Distribution({"0": 1.0})) == pytest.approx(0.5)

    @given(distributions(), distributions())
    @settings(max_examples=25)
    def test_tvd_symmetry_and_bounds(self, a, b):
        forward = total_variation_distance(a, b)
        backward = total_variation_distance(b, a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0 + 1e-9

    @given(distributions())
    @settings(max_examples=25)
    def test_hellinger_zero_on_self(self, dist):
        assert hellinger_distance(dist, dist) == pytest.approx(0.0, abs=1e-9)


class TestSummaries:
    def test_relative_improvement(self):
        assert relative_improvement(0.2, 0.3) == pytest.approx(1.5)

    def test_relative_improvement_zero_baseline(self):
        assert relative_improvement(0.0, 0.3) == math.inf
        assert relative_improvement(0.0, 0.0) == 1.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_skips_nonfinite(self):
        assert geometric_mean([2.0, math.inf]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(DistributionError):
            geometric_mean([])


class TestWordLookup:
    """PST and IST of a packed-form histogram equal the mapping form's exactly."""

    @given(
        st.dictionaries(
            st.integers(0, 2**66 - 1).map(lambda v: format(v, "066b")),
            st.floats(min_value=0.01, max_value=10.0),
            min_size=2,
            max_size=40,
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_packed_form_matches_mapping_form(self, data, draw):
        mapping = Distribution(data, validate=False)
        packed = Distribution.from_packed(
            PackedOutcomes(PackedOutcomes.from_strings(list(data)).words, 66),
            weights=np.array(list(data.values())),
        )
        outcomes = list(data)
        correct = draw.draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=3))
        correct += ["0" * 66 if "0" * 66 not in data else "1" * 66, "01", "x" * 66]
        assert probability_of_successful_trial(packed, correct) == probability_of_successful_trial(
            mapping, correct
        )
        assert inference_strength(packed, correct) == inference_strength(mapping, correct)
        assert packed.support_mask(correct).tolist() == [o in correct for o in outcomes]
        assert packed._weights is None
