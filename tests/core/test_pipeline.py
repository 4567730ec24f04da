"""Tests for post-processing pipelines."""

from __future__ import annotations

import pytest

from repro.core import (
    CallableStage,
    Distribution,
    HammerStage,
    IdentityStage,
    PostProcessingPipeline,
    TruncationStage,
)
from repro.exceptions import DistributionError


@pytest.fixture
def noisy():
    # "111" is the Hamming-clustered correct answer; "000" the isolated spurious argmax.
    return Distribution(
        {"111": 0.20, "000": 0.25, "011": 0.15, "101": 0.15, "110": 0.15, "001": 0.10}
    )


class TestStages:
    def test_identity_stage_normalizes(self):
        dist = Distribution({"0": 2, "1": 6})
        result = IdentityStage().apply(dist)
        assert result.probability("1") == pytest.approx(0.75)

    def test_hammer_stage(self, noisy):
        result = HammerStage().apply(noisy)
        assert result.most_probable() == "111"

    def test_truncation_stage(self, noisy):
        result = TruncationStage(top_k=2).apply(noisy)
        assert result.num_outcomes == 2

    def test_truncation_no_op_when_small(self, noisy):
        result = TruncationStage(top_k=100).apply(noisy)
        assert result.num_outcomes == noisy.num_outcomes

    def test_truncation_rejects_nonpositive(self):
        with pytest.raises(DistributionError):
            TruncationStage(0)

    def test_callable_stage(self, noisy):
        stage = CallableStage(lambda d: d.top_k(3), name="top3")
        assert stage.apply(noisy).num_outcomes == 3
        assert stage.name == "top3"

    def test_callable_stage_rejects_non_distribution(self, noisy):
        stage = CallableStage(lambda d: "oops")
        with pytest.raises(DistributionError):
            stage.apply(noisy)


class TestPipeline:
    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            PostProcessingPipeline([])

    def test_stage_order(self, noisy):
        pipeline = PostProcessingPipeline([TruncationStage(4), HammerStage()])
        result = pipeline(noisy)
        assert result.num_outcomes == 4
        assert sum(result.probabilities().values()) == pytest.approx(1.0)

    def test_stage_names(self):
        pipeline = PostProcessingPipeline([IdentityStage(), HammerStage()])
        assert pipeline.stage_names() == ["identity", "hammer"]

    def test_hammer_default_constructor(self, noisy):
        pipeline = PostProcessingPipeline.hammer_default(top_k=5)
        assert pipeline.stage_names() == ["truncate", "hammer"]
        assert pipeline(noisy).most_probable() == "111"

    def test_baseline_constructor(self, noisy):
        pipeline = PostProcessingPipeline.baseline()
        assert pipeline(noisy) == noisy.normalized()
