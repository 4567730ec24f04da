"""Tests for Hamming-structure summary metrics."""

from __future__ import annotations

import pytest

from repro.core import Distribution
from repro.exceptions import DistributionError
from repro.metrics import (
    cluster_density,
    spearman_correlation,
    structure_ratio,
    summarize_hamming_structure,
)


@pytest.fixture
def clustered():
    return Distribution({"0000": 0.5, "0001": 0.2, "0010": 0.2, "1111": 0.1})


class TestSummary:
    def test_summary_fields(self, clustered):
        summary = summarize_hamming_structure(clustered, ["0000"])
        assert summary.num_bits == 4
        assert summary.correct_probability == pytest.approx(0.5)
        assert summary.uniform_ehd == pytest.approx(2.0)
        assert summary.mass_within_two == pytest.approx(0.9)
        assert summary.num_outcomes == 4
        assert 0.0 < summary.ehd < summary.uniform_ehd

    def test_normalized_ehd(self, clustered):
        summary = summarize_hamming_structure(clustered, ["0000"])
        assert summary.normalized_ehd == pytest.approx(summary.ehd / 2.0)


class TestClusterDensity:
    def test_fully_clustered(self):
        dist = Distribution({"000": 0.5, "001": 0.5})
        assert cluster_density(dist, ["000"], radius=1) == pytest.approx(1.0)

    def test_partially_clustered(self, clustered):
        density = cluster_density(clustered, ["0000"], radius=2)
        assert density == pytest.approx(0.4 / 0.5)

    def test_no_errors_reports_full_density(self):
        dist = Distribution({"000": 1.0})
        assert cluster_density(dist, ["000"]) == 1.0

    def test_rejects_negative_radius(self, clustered):
        with pytest.raises(DistributionError):
            cluster_density(clustered, ["0000"], radius=-1)


class TestStructureRatio:
    def test_perfect_output_has_full_structure(self):
        dist = Distribution({"0000": 1.0})
        assert structure_ratio(dist, ["0000"]) == pytest.approx(1.0)

    def test_uniform_output_has_no_structure(self):
        uniform = Distribution.uniform(6)
        assert structure_ratio(uniform, ["000000"]) == pytest.approx(0.0, abs=1e-9)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert spearman_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    @pytest.mark.filterwarnings("error")
    def test_constant_series_returns_zero(self):
        # Undefined on a constant series: 0.0, and no ConstantInputWarning.
        assert spearman_correlation([1, 2, 3], [5, 5, 5]) == 0.0
        assert spearman_correlation([7, 7, 7], [1, 2, 3]) == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DistributionError):
            spearman_correlation([1, 2], [1, 2, 3])

    def test_rejects_too_few_points(self):
        with pytest.raises(DistributionError):
            spearman_correlation([1, 2], [3, 4])
