"""Fixtures shared across the test directories.

``workload_runs`` runs the benchmark's two circuit-heavy workloads once per
session, cold, each on an engine with its own empty ``cache_dir``: fig8-cold
(Figure 8(b), BV at 12-14 qubits on the three default IBM devices, 9 jobs)
and zoo-warm (the 14 calibrated scenarios x 2 BV-10 keys, 28 jobs), both at
seed 8, the configuration ``perfbench/workloads.py`` runs at ``--seed 8``.
``run_workload`` runs one of them again, on a given ``cache_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.engine import ExecutionEngine
from repro.experiments.bv_study import BvStudyConfig, run_bv_study
from repro.experiments.scenario_study import ScenarioStudyConfig, run_scenario_study

WORKLOAD_SEED = 8


def run_workload_study(name: str, engine: ExecutionEngine):
    """One study run of workload ``name`` on ``engine``; returns the report."""
    if name == "fig8-cold":
        config = BvStudyConfig(
            qubit_range=(12, 14), keys_per_size=1, shots=32_768, seed=WORKLOAD_SEED
        )
        return run_bv_study(config, engine=engine)
    config = ScenarioStudyConfig(num_qubits=10, keys_per_scenario=2, seed=WORKLOAD_SEED)
    return run_scenario_study(config, engine=engine)


class RecordingEngine(ExecutionEngine):
    """An engine that keeps each batch's jobs, results and seed."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.batches: list[tuple[list, list, int]] = []

    def run(self, jobs, seed=0):
        jobs = list(jobs)
        results = super().run(jobs, seed=seed)
        self.batches.append((jobs, results, seed))
        return results


@dataclass
class WorkloadRun:
    """One cold study run: its jobs, results, engine seed, report and cache directory."""

    jobs: list
    results: list
    seed: int
    report: object
    cache_dir: Path


def _run_workload(name: str, cache_dir: Path) -> WorkloadRun:
    with RecordingEngine(max_workers=1, cache_dir=cache_dir) as engine:
        report = run_workload_study(name, engine)
    ((jobs, results, seed),) = engine.batches
    return WorkloadRun(jobs, results, seed, report, cache_dir)


@pytest.fixture(scope="session")
def workload_runs(tmp_path_factory) -> dict[str, WorkloadRun]:
    return {
        name: _run_workload(name, tmp_path_factory.mktemp(name))
        for name in ("fig8-cold", "zoo-warm")
    }


@pytest.fixture(scope="session")
def run_workload():
    return _run_workload
