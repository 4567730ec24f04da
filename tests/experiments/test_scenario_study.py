"""Tests for the cross-scenario HAMMER study (the ``scenario-sweep`` experiment)."""

from __future__ import annotations

import pytest

from repro.calibration import available_scenarios
from repro.calibration.scenario import Scenario
from repro.engine import ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments import ScenarioStudyConfig, run_scenario_study
from repro.obs.metrics import MetricsScope


def _small_config(**overrides) -> ScenarioStudyConfig:
    fields = dict(num_qubits=6, keys_per_scenario=1, shots=1024, seed=12)
    fields.update(overrides)
    return ScenarioStudyConfig(**fields)


class TestScenarioStudy:
    def test_runs_whole_zoo_through_engine(self):
        engine = ExecutionEngine()
        report = run_scenario_study(_small_config(), engine=engine)
        assert report.name == "scenario_sweep"
        assert report.summary["num_scenarios"] >= 12
        assert len(report.rows) == len(available_scenarios())
        assert engine.metrics.counters["engine.jobs"] == len(report.rows)
        scenario_names = {row["scenario"] for row in report.rows}
        assert scenario_names == set(available_scenarios())

    def test_rows_carry_all_baselines(self):
        report = run_scenario_study(_small_config(scenarios=("linear-12-spread",)))
        (row,) = report.rows
        for key in ("baseline_pst", "mitigated_pst", "hammer_pst", "noise_aware_pst",
                    "majority_vote_correct", "hammer_vs_baseline", "num_swaps"):
            assert key in row
        assert 0.0 <= float(row["baseline_pst"]) <= 1.0

    def test_subset_selection(self):
        report = run_scenario_study(
            _small_config(scenarios=("linear-12-uniform", "linear-12-spread"), keys_per_scenario=2)
        )
        assert report.summary["num_scenarios"] == 2.0
        assert len(report.rows) == 4

    @pytest.mark.parametrize("workers", [2, 4])
    def test_rows_bit_identical_across_worker_counts(self, workers):
        serial = run_scenario_study(_small_config(), engine=ExecutionEngine(max_workers=1))
        parallel = run_scenario_study(_small_config(), engine=ExecutionEngine(max_workers=workers))
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_repeat_run_hits_the_sample_cache(self):
        engine = ExecutionEngine()
        first = run_scenario_study(_small_config(), engine=engine)
        second = run_scenario_study(_small_config(), engine=engine)
        assert second.rows == first.rows
        # The second sweep re-used every transpile, ideal and sampled histogram.
        assert engine.last_run["counters"]["cache.sample.hits"] == len(first.rows)
        assert engine.last_run["counters"].get("engine.ideals_computed", 0) == 0

    def test_repeat_run_reconstructs_nothing_and_builds_no_device(self, monkeypatch):
        engine = ExecutionEngine()
        first = run_scenario_study(_small_config(), engine=engine)
        built = []
        device = Scenario.device

        def counting(scenario):
            built.append(scenario.name)
            return device(scenario)

        monkeypatch.setattr(Scenario, "device", counting)
        with MetricsScope() as scope:
            second = run_scenario_study(_small_config(), engine=engine)
        assert second.rows == first.rows
        assert second.summary == first.summary
        # Both reconstructions of every job (plain and noise-aware) are hits,
        # and every device comes from the scenario memo.
        counters = scope.registry.counters
        assert counters["cache.hammer.hits"] == 2 * len(first.rows)
        assert counters.get("cache.hammer.misses", 0) == 0
        assert built == []

    def test_empty_selection_rejected(self):
        with pytest.raises(ExperimentError):
            run_scenario_study(_small_config(scenarios=()))

    def test_invalid_config_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioStudyConfig(num_qubits=1)
        with pytest.raises(ExperimentError):
            ScenarioStudyConfig(keys_per_scenario=0)
        with pytest.raises(ExperimentError):
            ScenarioStudyConfig(shots=0)
