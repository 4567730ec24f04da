"""Tests for engine planning provenance.

Every shard decision is counted in the run's metrics
(``planner.<kind>.<decision>``), folded into the engine's lifetime registry
and surfaced through ``attach_engine_meta`` as ``report.meta["planner"]``.
"""

from __future__ import annotations

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.experiments.runner import ExperimentReport, attach_engine_meta, planner_decisions
from repro.quantum.noise import NoiseModel


def _job(job_id: str = "j0", shots: int = 1_024, width: int = 5) -> CircuitJob:
    return CircuitJob(
        job_id=job_id,
        circuit=bernstein_vazirani("1" * width),
        shots=shots,
        noise_model=NoiseModel(),
    )


class TestPlannerProvenance:
    def test_attach_engine_meta_records_planner_block(self):
        engine = ExecutionEngine()
        engine.run([_job(job_id="a"), _job(job_id="b", width=6)], seed=2)
        report = attach_engine_meta(ExperimentReport(name="planner-test"), engine)
        planner = report.meta["planner"]
        assert planner["engine"] == {"shard": {"none/heuristic": 2}}
        assert "machine_profile" not in planner
        assert "costmodel" not in planner
        assert report.meta["engine"]["counters"]["planner.shard.none/heuristic"] == 2

    def test_stats_accumulate_merges_decision_counters(self):
        engine = ExecutionEngine()
        engine.run_single(_job(job_id="a"), seed=2)
        engine.run_single(_job(job_id="b", width=6), seed=3)
        assert planner_decisions(engine.metrics.snapshot())["shard"] == {
            "none/heuristic": 2
        }
