"""Tests for the simple inference baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import majority_vote_outcome, most_frequent_outcome
from repro.core import Distribution
from repro.core.bitstring import PackedOutcomes
from repro.engine import ExecutionEngine
from repro.experiments.scenario_study import ScenarioStudyConfig, run_scenario_study


@pytest.fixture
def clustered():
    # Correct answer "111" has a rich distance-1 neighbourhood but is not the argmax.
    return Distribution(
        {"111": 0.30, "101": 0.40, "110": 0.05, "011": 0.10, "010": 0.10, "001": 0.05}
    )


class TestMostFrequent:
    def test_returns_argmax(self, clustered):
        assert most_frequent_outcome(clustered) == "101"


class TestMajorityVote:
    def test_bitwise_marginals(self, clustered):
        # P(bit0=1)=0.75, P(bit1=1)=0.55, P(bit2=1)=0.85 -> "111"
        assert majority_vote_outcome(clustered) == "111"

    def test_marginal_below_half_gives_zero(self):
        dist = Distribution({"10": 0.6, "00": 0.4})
        assert majority_vote_outcome(dist) == "10"

    def test_recovers_answer_under_independent_noise(self):
        dist = Distribution({"1111": 0.4, "0111": 0.15, "1011": 0.15, "1101": 0.15, "1110": 0.15})
        assert majority_vote_outcome(dist) == "1111"


def _majority_vote_walk(distribution):
    """The bit-by-bit string walk ``majority_vote_outcome`` replaced (test-only reference)."""
    ones_probability = [0.0] * distribution.num_bits
    for outcome, probability in distribution.items():
        for position, bit in enumerate(outcome):
            if bit == "1":
                ones_probability[position] += probability
    return "".join("1" if p >= 0.5 else "0" for p in ones_probability)


class TestMajorityVoteMatchesTheStringWalk:
    def test_ties_at_one_half(self):
        dist = Distribution({"10": 1.0, "01": 1.0, "00": 0.0})
        assert majority_vote_outcome(dist) == _majority_vote_walk(dist) == "11"

    def test_summation_order_decides_a_half(self):
        # The first column's marginal is 0.49999999999999994 added row by row
        # and 0.5 added pairwise (NumPy's sum), so only the walk's order gives "0".
        weights = [2.0, 5.0, 3.0, 1.0, 2.0, 5.0, 2.0, 4.0, 3.0, 4.0, 5.0, 1.0, 5.0, 3.0, 1.0]
        first = "001011001101100"
        data = {bit + format(row, "04b"): w for row, (bit, w) in enumerate(zip(first, weights))}
        mapping = Distribution(data)
        words = PackedOutcomes.from_strings(list(data)).words
        packed = Distribution.from_packed(PackedOutcomes(words, 5), weights=np.array(weights))
        for dist in (mapping, packed):
            assert _majority_vote_walk(dist)[0] == "0"
            assert majority_vote_outcome(dist) == _majority_vote_walk(dist)

    @given(
        st.integers(1, 70).flatmap(
            lambda width: st.dictionaries(
                st.integers(0, 2**width - 1).map(lambda v, w=width: format(v, f"0{w}b")),
                st.one_of(st.integers(1, 1000).map(float), st.floats(1e-9, 1e3)),
                min_size=1,
                max_size=200,
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_histograms(self, data, packed_form):
        dist = Distribution(data, validate=False)
        if packed_form:
            words = PackedOutcomes.from_strings(list(data)).words
            dist = Distribution.from_packed(
                PackedOutcomes(words, dist.num_bits), weights=np.array(list(data.values()))
            )
        assert majority_vote_outcome(dist) == _majority_vote_walk(dist)

    def test_every_scenario_histogram(self):
        class RecordingEngine(ExecutionEngine):
            def run(self, jobs, seed=0):
                self.results = super().run(jobs, seed)
                return self.results

        engine = RecordingEngine()
        run_scenario_study(
            ScenarioStudyConfig(num_qubits=10, keys_per_scenario=2, seed=8), engine=engine
        )
        assert len(engine.results) == 28
        for result in engine.results:
            noisy = result.noisy
            mapping = Distribution(noisy.counts(), validate=False)
            assert majority_vote_outcome(noisy) == _majority_vote_walk(noisy)
            assert majority_vote_outcome(mapping) == _majority_vote_walk(noisy)
