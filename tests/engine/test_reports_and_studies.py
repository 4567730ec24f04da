"""Engine-backed studies: worker-count invariance and report JSON artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ibm_suite import IbmSuiteConfig
from repro.engine import ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments import BvStudyConfig, run_bv_study, run_ibm_qaoa_study
from repro.experiments.runner import ExperimentReport
from repro.quantum import ibm_paris


class TestStudiesAreWorkerCountInvariant:
    """Acceptance criterion: bit-identical row tables for 1 vs 4 workers."""

    def test_bv_study_rows_identical(self):
        config = BvStudyConfig(qubit_range=(5, 7), keys_per_size=1, shots=1024)
        devices = [ibm_paris()]
        serial = run_bv_study(config, devices=devices, engine=ExecutionEngine(max_workers=1))
        parallel = run_bv_study(config, devices=devices, engine=ExecutionEngine(max_workers=4))
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_ibm_qaoa_study_rows_identical(self):
        config = IbmSuiteConfig(
            bv_qubit_range=(4, 5),
            qaoa_qubit_range=(5, 6),
            qaoa_layer_values=(2,),
            qaoa_instances_per_size=1,
            shots=1024,
            seed=3,
        )
        serial = run_ibm_qaoa_study(config=config, engine=ExecutionEngine(max_workers=1))
        parallel = run_ibm_qaoa_study(config=config, engine=ExecutionEngine(max_workers=4))
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_engine_meta_is_attached(self):
        config = BvStudyConfig(qubit_range=(5, 6), keys_per_size=1, shots=512)
        report = run_bv_study(config, devices=[ibm_paris()], engine=ExecutionEngine())
        engine_meta = report.meta["engine"]
        assert engine_meta["counters"]["engine.jobs"] == 2
        assert engine_meta["max_workers"] == 1
        assert engine_meta["histograms"]["engine.wall_seconds"]["sum"] > 0.0
        assert "cache.ideal.misses" in engine_meta["counters"]  # cache counters ride along

    def test_shared_cache_speeds_up_second_study_run(self):
        config = BvStudyConfig(qubit_range=(5, 7), keys_per_size=1, shots=512)
        engine = ExecutionEngine()
        first = run_bv_study(config, devices=[ibm_paris()], engine=engine)
        second = run_bv_study(config, devices=[ibm_paris()], engine=engine)
        assert first.rows == second.rows  # same config seed -> same keys + streams
        # Meta holds engine-lifetime totals: the second study run added jobs
        # but not a single new transpile or ideal simulation.
        first_counters = first.meta["engine"]["counters"]
        second_counters = second.meta["engine"]["counters"]
        assert second_counters["engine.jobs"] == 2 * len(first.rows)
        assert (
            second_counters["engine.transpiles_computed"]
            == first_counters["engine.transpiles_computed"]
        )
        assert second_counters["engine.ideals_computed"] == first_counters["engine.ideals_computed"]


class TestReportJson:
    def _report(self) -> ExperimentReport:
        report = ExperimentReport(
            name="unit_report",
            rows=[
                {"device": "paris", "num_qubits": np.int64(5), "pst": np.float64(0.75), "ok": np.True_},
                {"device": "paris", "num_qubits": 6, "pst": 0.5, "ok": False},
            ],
            summary={"gmean": 1.25, "count": 2.0},
        )
        report.meta["engine"] = {"num_jobs": 2, "wall_seconds": 0.01}
        return report

    def test_round_trip_preserves_everything(self):
        original = self._report()
        restored = ExperimentReport.from_json(original.to_json())
        assert restored.name == original.name
        assert restored.rows == original.rows
        assert restored.summary == original.summary
        assert restored.meta == original.meta
        # A second trip is a fixed point.
        assert ExperimentReport.from_json(restored.to_json()).to_json() == restored.to_json()

    def test_study_report_round_trips(self):
        config = BvStudyConfig(qubit_range=(5, 5), keys_per_size=1, shots=512)
        report = run_bv_study(config, devices=[ibm_paris()], engine=ExecutionEngine())
        restored = ExperimentReport.from_json(report.to_json())
        assert restored.rows == report.rows
        assert restored.summary == pytest.approx(report.summary)
        assert restored.meta["engine"]["counters"]["engine.jobs"] == 1

    def test_non_finite_values_serialise_as_null(self):
        report = ExperimentReport(
            name="inf_report",
            rows=[{"ist_improvement": float("inf"), "pst": 0.5}],
            summary={"worst": float("nan")},
        )
        text = report.to_json()
        assert "Infinity" not in text and "NaN" not in text
        restored = ExperimentReport.from_json(text)
        assert restored.rows[0]["ist_improvement"] is None
        assert restored.rows[0]["pst"] == 0.5
        assert restored.summary["worst"] is None

    def test_non_finite_array_values_serialise_as_null(self):
        report = ExperimentReport(
            name="inf_array_report",
            rows=[{"curve": np.array([np.inf, 1.0, np.nan])}],
        )
        restored = ExperimentReport.from_json(report.to_json())
        assert restored.rows[0]["curve"] == [None, 1.0, None]

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ExperimentError):
            ExperimentReport.from_json("not json at all {")
        with pytest.raises(ExperimentError):
            ExperimentReport.from_json("[1, 2, 3]")

    def test_to_text_omits_meta(self):
        report = self._report()
        assert "wall_seconds" not in report.to_text()
        assert "unit_report" in report.to_text()
