"""The cache keys of every benchmark job, pinned, and warm runs that stay on the table.

``data/pinned_job_keys.json`` holds the transpile, ideal and sample keys of
the 37 jobs of the fig8-cold and zoo-warm workloads at seed 8 (see
``tests/conftest.py``), recorded before circuits were encoded from their
instruction table.  A moved digest would make every persistent ``--cache-dir``
entry unreachable, so the keys are compared exactly, both as the hashing
functions derive them for each job and as the file names the engine wrote.
A warm zoo run on the filled cache builds no ``Instruction`` and makes no
HAMMER kernel call.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.engine.hashing import ideal_key, sample_key, transpile_key
from repro.quantum.circuit import InstructionTable

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_job_keys.json").read_text())
WORKLOADS = ("fig8-cold", "zoo-warm")


def _job_keys(run):
    keys = []
    for index, (job, result) in enumerate(zip(run.jobs, run.results)):
        executed = result.executed_circuit
        keys.append(
            {
                "job_id": job.job_id,
                "transpile": transpile_key(job.circuit, job.coupling_map, job.basis_gates),
                "ideal": ideal_key(executed, backend=result.backend),
                "sample": sample_key(
                    executed,
                    job.noise_model,
                    job.shots,
                    (run.seed, index),
                    backend=result.backend,
                ),
            }
        )
    return keys


def test_the_fixture_covers_37_jobs():
    assert {name: len(rows) for name, rows in PINNED.items()} == {"fig8-cold": 9, "zoo-warm": 28}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_keys_match_the_pinned_digests(workload_runs, workload):
    assert _job_keys(workload_runs[workload]) == PINNED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_engine_wrote_the_pinned_keys(workload_runs, workload):
    cache_dir = workload_runs[workload].cache_dir
    for namespace in ("transpile", "ideal", "sample"):
        written = {path.stem for path in (cache_dir / namespace).glob("*.pkl")}
        assert written == {row[namespace] for row in PINNED[workload]}, namespace


def test_a_warm_zoo_run_builds_no_instructions(workload_runs, run_workload, monkeypatch):
    cold = workload_runs["zoo-warm"]
    built = []
    original = InstructionTable.instructions

    def counting(table):
        built.append(table)
        return original(table)

    # ``import repro.core.hammer`` would bind the function ``repro.core``
    # re-exports under that name; the kernel hook lives on the module.
    hammer_module = sys.modules["repro.core.hammer"]
    kernel_calls = []
    scores = hammer_module.neighborhood_scores

    def counting_scores(distribution, config=None):
        kernel_calls.append(distribution.num_outcomes)
        return scores(distribution, config)

    monkeypatch.setattr(InstructionTable, "instructions", counting)
    monkeypatch.setattr(hammer_module, "neighborhood_scores", counting_scores)
    warm = run_workload("zoo-warm", cold.cache_dir)
    assert len(warm.results) == 28
    assert all(result.transpile_cache_hit for result in warm.results)
    assert built == []
    assert all(result.executed_circuit._instructions is None for result in warm.results)
    # Every plain and noise-aware reconstruction came from the hammer namespace.
    assert kernel_calls == []
    assert len(list((cold.cache_dir / "hammer").glob("*.pkl"))) == 56
    assert warm.report.rows == cold.report.rows
    assert warm.report.summary == cold.report.summary
    # The counter is live: a direct call reaches it.
    hammer_module.hammer(warm.results[0].noisy)
    assert kernel_calls == [warm.results[0].noisy.num_outcomes]
