"""PR 5 performance profile: fused kernels + batched sampling, with guards.

This harness times the two hot paths the kernel/batching pass rewrote and
writes the measurements to ``BENCH_PR5.json`` at the repo root (the seed of
the repo's bench trajectory; CI uploads it as an artifact on main):

* **Fused HAMMER kernels** — the shape-dispatched kernel plans
  against the PR 4 two-pass arithmetic (a forced ``dense`` plan) on a
  >= 20k-outcome support, guarded at >= 2x, plus a wide-register (63-bit)
  case exercising the multi-word popcount path.
* **Memo-cold sweep** — a hammer-heavy Figure-8 BV sweep (widths 12-14 at
  32k shots) run end to end, cold caches on both sides, fused vs legacy
  kernels, guarded at >= 2x; the fused run's per-phase attribution
  (transpile / ideal / sample / hammer) is recorded.
* **Batched + sharded sampling** — the engine's grouped multi-seed sampling
  against the per-job loop it replaced (same RNG streams, bit-identical
  histograms), and a million-shot sharded job demonstrating bounded-memory
  chunked sampling with a deterministic merge.

Run locally with::

    PYTHONPATH=src python -m pytest benchmarks/perf_profile.py -x -q -s
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"


@pytest.fixture(scope="session")
def bench_record():
    """Accumulates section results; written to BENCH_PR5.json at session end."""
    from repro.core.tuning import tuning_report

    record: dict[str, object] = {
        "tuning": tuning_report(),
        "machine": {"cpu_count": os.cpu_count(), "numpy": np.__version__},
    }
    yield record
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_PATH}")


def _clustered_distribution(width: int, min_support: int, seed: int):
    """A synthetic noisy histogram: errors clustered around one center."""
    from repro.core.bitstring import PackedOutcomes
    from repro.core.distribution import Distribution

    rng = np.random.default_rng(seed)
    center = rng.integers(0, 2, size=width, dtype=np.uint8)
    draws = max(6 * min_support, 60000)
    bits = (rng.random((draws, width)) < 0.3).astype(np.uint8) ^ center
    unique = np.unique(bits, axis=0)
    assert unique.shape[0] >= min_support, unique.shape
    # Cap the support near the target so bench runtime stays CI-friendly.
    unique = unique[: (min_support * 11) // 10]
    weights = rng.random(unique.shape[0]) + 1e-3
    return Distribution.from_packed(
        PackedOutcomes.from_bit_matrix(unique), weights=weights
    )


def _time_hammer(distribution, plan: str) -> tuple[float, str]:
    from repro.core import tuning
    from repro.core.hammer import neighborhood_scores

    tuning.set_kernel_override(plan if plan != "auto" else None)
    try:
        start = time.perf_counter()
        result = neighborhood_scores(distribution)
        return time.perf_counter() - start, result.kernel
    finally:
        tuning.set_kernel_override(None)


def test_fused_hammer_large_support_speedup(bench_record):
    """Guard: fused HAMMER >= 2x the PR 4 kernel on a >= 20k-outcome support."""
    dist = _clustered_distribution(width=16, min_support=20_000, seed=5)
    dist.packed()  # pack outside the timed region, as the pipeline does
    _time_hammer(dist, "auto")  # warm both code paths / allocators
    legacy_seconds, _ = _time_hammer(dist, "dense")
    fused_seconds, fused_plan = _time_hammer(dist, "auto")
    speedup = legacy_seconds / fused_seconds
    bench_record["hammer_large_support"] = {
        "width": dist.num_bits,
        "support": dist.num_outcomes,
        "legacy_seconds": legacy_seconds,
        "fused_seconds": fused_seconds,
        "fused_plan": fused_plan,
        "speedup": speedup,
    }
    print(
        f"\nHAMMER {dist.num_outcomes}-outcome support (width {dist.num_bits}): "
        f"legacy {legacy_seconds:.3f}s -> {fused_plan} {fused_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert dist.num_outcomes >= 20_000
    assert speedup >= 2.0, f"fused HAMMER speedup regressed: {speedup:.2f}x < 2x"


def test_fused_hammer_wide_register_speedup(bench_record):
    """Guard: the multi-word (63-bit) path also beats legacy >= 2x."""
    dist = _clustered_distribution(width=63, min_support=8_000, seed=6)
    dist.packed()
    _time_hammer(dist, "auto")
    legacy_seconds, _ = _time_hammer(dist, "dense")
    fused_seconds, fused_plan = _time_hammer(dist, "auto")
    speedup = legacy_seconds / fused_seconds
    bench_record["hammer_wide_register"] = {
        "width": dist.num_bits,
        "support": dist.num_outcomes,
        "legacy_seconds": legacy_seconds,
        "fused_seconds": fused_seconds,
        "fused_plan": fused_plan,
        "speedup": speedup,
    }
    print(
        f"\nHAMMER {dist.num_outcomes}-outcome support (width {dist.num_bits}): "
        f"legacy {legacy_seconds:.3f}s -> {fused_plan} {fused_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.0, f"wide-register speedup regressed: {speedup:.2f}x < 2x"


def _run_fig8_sweep() -> float:
    from repro.engine import ExecutionEngine
    from repro.experiments.bv_study import BvStudyConfig, run_bv_study

    config = BvStudyConfig(qubit_range=(12, 14), keys_per_size=1, shots=32_768, seed=8)
    start = time.perf_counter()
    run_bv_study(config, engine=ExecutionEngine())
    return time.perf_counter() - start


def test_memo_cold_sweep_speedup(bench_record):
    """Guard: a memo-cold hammer-heavy fig8 sweep runs >= 2x faster fused."""
    from repro.core import tuning
    from repro.obs.phases import collect_phases

    # Warm up imports / device registries with a tiny run outside the clocks.
    from repro.engine import ExecutionEngine
    from repro.experiments.bv_study import BvStudyConfig, run_bv_study

    run_bv_study(
        BvStudyConfig(qubit_range=(5, 5), keys_per_size=1, shots=512, seed=8),
        engine=ExecutionEngine(),
    )

    tuning.set_kernel_override("dense")
    try:
        legacy_seconds = _run_fig8_sweep()
    finally:
        tuning.set_kernel_override(None)
    with collect_phases() as phases:
        fused_seconds = _run_fig8_sweep()
    speedup = legacy_seconds / fused_seconds
    bench_record["memo_cold_fig8_sweep"] = {
        "config": {"qubit_range": [12, 14], "keys_per_size": 1, "shots": 32_768},
        "legacy_seconds": legacy_seconds,
        "fused_seconds": fused_seconds,
        "speedup": speedup,
        "fused_phases": {
            row["phase"]: row["seconds"] for row in phases.as_rows()
        },
    }
    print(
        f"\nmemo-cold fig8 sweep: legacy {legacy_seconds:.2f}s -> "
        f"fused {fused_seconds:.2f}s ({speedup:.1f}x); phases: "
        + ", ".join(f"{r['phase']} {r['seconds']:.2f}s" for r in phases.as_rows())
    )
    assert speedup >= 2.0, f"memo-cold sweep speedup regressed: {speedup:.2f}x < 2x"


def test_grouped_sampling_matches_and_beats_per_job_loop(bench_record, monkeypatch):
    """Grouped multi-seed sampling: bit-identical to the per-job loop, one plan per group.

    The batch builds the group's plan (noise arrays, ideal views) once where
    the loop builds one per job.  The timings are recorded, not asserted:
    the plan is built from the circuit's instruction table in about a tenth
    of one job's draw, so both paths spend their time in the same per-job
    draws and their ratio says little about grouping.
    ``tests/engine/test_batched_sampling.py::TestOnePlanPerGroup`` checks
    the same property in tier-1.
    """
    from repro.backends import get_backend
    from repro.circuits.bv import bernstein_vazirani
    from repro.engine import CircuitJob, ExecutionEngine
    from repro.quantum.device import get_device
    from repro.quantum.sampler import (
        _BitflipPlan,
        sample_bitflip_batch,
        sample_bitflip_distribution,
    )
    from repro.quantum.transpiler import transpile

    # The shape where grouping pays: a routed circuit (hundreds of gates to
    # accumulate noise arrays over) sampled at a modest per-job shot budget —
    # exactly what a scenario sweep submits, many times over.
    device = get_device("ibm-paris")
    circuit = transpile(
        bernstein_vazirani("1011010110101"),
        coupling_map=device.coupling_map,
        basis_gates=device.basis_gates,
    ).circuit
    ideal = get_backend("statevector").ideal_distribution(circuit)
    num_jobs, shots, seed = 32, 1_024, 11

    def generators():
        return [
            (shots, np.random.default_rng(np.random.SeedSequence((seed, index))))
            for index in range(num_jobs)
        ]

    # Warm-up.
    sample_bitflip_batch(circuit, device.noise_model, generators()[:2], ideal=ideal)

    builds = []
    build = _BitflipPlan.build

    def counting_build(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(_BitflipPlan, "build", counting_build)

    start = time.perf_counter()
    per_job = [
        sample_bitflip_distribution(circuit, device.noise_model, shots, rng=rng, ideal=ideal)
        for _, rng in generators()
    ]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = sample_bitflip_batch(circuit, device.noise_model, generators(), ideal=ideal)
    batch_seconds = time.perf_counter() - start

    assert len(builds) == num_jobs + 1, f"{len(builds)} plans for {num_jobs} jobs and one batch"
    for lone, grouped in zip(per_job, batched):
        assert lone.counts() == grouped.counts()
    speedup = loop_seconds / batch_seconds
    bench_record["grouped_sampling"] = {
        "jobs": num_jobs,
        "shots": shots,
        "per_job_seconds": loop_seconds,
        "batched_seconds": batch_seconds,
        "speedup": speedup,
    }
    print(
        f"\ngrouped sampling ({num_jobs} jobs x {shots} shots): per-job "
        f"{loop_seconds:.3f}s -> batched {batch_seconds:.3f}s ({speedup:.2f}x)"
    )

    # The engine path groups these jobs automatically.
    engine = ExecutionEngine()
    jobs = [
        CircuitJob(job_id=f"g{i}", circuit=circuit, shots=shots, noise_model=device.noise_model)
        for i in range(4)
    ]
    engine.run(jobs, seed=seed)
    assert engine.last_run_stats.grouped_sample_jobs == 4
    assert engine.last_run_stats.sample_groups == 1


def test_sharded_million_shot_job(bench_record):
    """A million-shot job runs chunked, merges exactly, in bounded memory."""
    from repro.circuits.bv import bernstein_vazirani
    from repro.engine import CircuitJob, ExecutionEngine
    from repro.quantum.device import get_device

    device = get_device("ibm-paris")
    shots = 1_000_000
    job = CircuitJob(
        job_id="mega",
        circuit=bernstein_vazirani("110101"),
        shots=shots,
        noise_model=device.noise_model,
    )
    engine = ExecutionEngine()
    start = time.perf_counter()
    result = engine.run_single(job, seed=4)
    elapsed = time.perf_counter() - start
    stats = engine.last_run_stats
    total = sum(result.noisy.counts().values())
    bench_record["sharded_sampling"] = {
        "shots": shots,
        "shards": stats.sample_shards,
        "shard_shots": engine.sample_shard_shots,
        "seconds": elapsed,
        "shots_per_second": shots / elapsed,
    }
    print(
        f"\nsharded sampling: {shots} shots in {stats.sample_shards} shards, "
        f"{elapsed:.2f}s ({shots / elapsed / 1e6:.2f}M shots/s)"
    )
    assert stats.sharded_jobs == 1
    assert stats.sample_shards == -(-shots // engine.sample_shard_shots)
    assert total == float(shots)
