"""Tests for the complexity study, headline summary and report helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import tuning
from repro.datasets import GoogleDatasetConfig, IbmSuiteConfig, generate_google_dataset, generate_ibm_suite
from repro.exceptions import ExperimentError
from repro.experiments import (
    ComplexityStudyConfig,
    ExperimentReport,
    analytic_operation_count,
    format_table,
    gmean_of_ratios,
    run_headline_summary,
    run_operation_count_table,
    run_runtime_scaling,
    score_quality_improvement,
    synthetic_histogram,
)


class TestComplexity:
    def test_analytic_operation_count_formula(self):
        assert analytic_operation_count(10) == 2 * 100 + 20

    def test_analytic_operation_count_rejects_nonpositive(self):
        with pytest.raises(ExperimentError):
            analytic_operation_count(0)

    def test_operation_count_table_matches_paper_order_of_magnitude(self):
        report = run_operation_count_table()
        by_key = {
            (row["trials"], row["unique_fraction"]): row["operations_billion"] for row in report.rows
        }
        # Paper's Table 3: 32K trials at 100% unique ~ 1 billion operations (we count 2N^2+2N).
        assert by_key[(32_000, 1.0)] == pytest.approx(2.05, rel=0.05)
        assert by_key[(256_000, 1.0)] == pytest.approx(131, rel=0.05)
        assert by_key[(32_000, 0.1)] < by_key[(32_000, 1.0)]

    def test_synthetic_histogram_structure(self):
        rng = np.random.default_rng(0)
        dist = synthetic_histogram(200, 20, rng)
        assert dist.num_outcomes == 200
        assert dist.num_bits == 20

    def test_synthetic_histogram_rejects_oversized_support(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ExperimentError):
            synthetic_histogram(100, 5, rng)

    def test_runtime_scaling_is_superlinear(self):
        config = ComplexityStudyConfig(support_sizes=(100, 400), num_bits=20)
        report = run_runtime_scaling(config)
        assert len(report.rows) == 2
        assert report.summary["max_runtime_seconds"] > 0
        # Both sizes are timed on the one O(N^2) plan, whatever the
        # dispatcher would pick (dense at 100 outcomes, spectral at 400).
        assert [row["plan"] for row in report.rows] == ["tiled", "tiled"]
        assert [row["dispatched_plan"] for row in report.rows] == ["dense", "spectral"]
        assert tuning.kernel_override() is None
        # The pair count is exactly quadratic ...
        assert [row["pairs"] for row in report.rows] == [100**2, 400**2]
        assert abs(report.summary["work_scaling_exponent"] - 2.0) <= 1e-12
        # ... and quadrupling N on that plan costs clearly more than linear.
        assert report.summary["empirical_scaling_exponent"] > 1.0

    def test_runtime_scaling_restores_the_previous_override(self):
        tuning.set_kernel_override("dense")
        try:
            report = run_runtime_scaling(ComplexityStudyConfig(support_sizes=(50, 100), num_bits=12))
            assert tuning.kernel_override() == "dense"
        finally:
            tuning.set_kernel_override(None)
        assert [row["plan"] for row in report.rows] == ["tiled", "tiled"]
        assert [row["dispatched_plan"] for row in report.rows] == ["dense", "dense"]


class TestHeadlineSummary:
    @pytest.fixture(scope="class")
    def records(self):
        ibm = generate_ibm_suite(
            IbmSuiteConfig(
                bv_qubit_range=(4, 6),
                bv_keys_per_size=1,
                qaoa_qubit_range=(4, 6),
                qaoa_layer_values=(1,),
                qaoa_instances_per_size=1,
                shots=2048,
                seed=1,
            )
        )
        google = generate_google_dataset(
            GoogleDatasetConfig(
                grid_qubit_range=(6, 6),
                grid_layer_values=(1,),
                regular_qubit_range=(4, 6),
                regular_layer_values=(1,),
                shots=2048,
                seed=2,
            )
        )
        return ibm + google

    def test_score_single_record(self, records):
        row = score_quality_improvement(records[0])
        assert row["metric"] in ("pst", "cost_ratio")
        assert row["improvement"] > 0

    def test_headline_improvement_above_one(self, records):
        report = run_headline_summary(records=records)
        assert report.summary["num_circuits"] == len(records)
        assert report.summary["gmean_quality_improvement"] > 1.0
        assert report.summary["fraction_improved"] > 0.7
        assert "gmean_improvement_bv" in report.summary
        assert "gmean_improvement_qaoa" in report.summary

    def test_headline_rejects_empty(self):
        with pytest.raises(ExperimentError):
            run_headline_summary(records=[])


class TestReportHelpers:
    def test_format_table_renders_all_rows(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
        text = format_table(rows)
        assert "a" in text and "b" in text
        assert "0.5000" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_gmean_of_ratios(self):
        rows = [{"ratio": 1.0}, {"ratio": 4.0}]
        assert gmean_of_ratios(rows, "ratio") == pytest.approx(2.0)

    def test_gmean_of_ratios_missing_column(self):
        with pytest.raises(ExperimentError):
            gmean_of_ratios([{"other": 1.0}], "ratio")

    def test_report_summary_value(self):
        report = ExperimentReport(name="demo", summary={"x": 1.5})
        assert report.summary_value("x") == 1.5
        with pytest.raises(ExperimentError):
            report.summary_value("missing")

    def test_report_to_text(self):
        report = ExperimentReport(name="demo", rows=[{"a": 1}], summary={"x": 1.5})
        text = report.to_text()
        assert "== demo ==" in text
        assert "x: 1.5" in text
