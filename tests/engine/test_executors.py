"""Shard executor tests: selection, streaming, and bit-identity guarantees.

The load-bearing property: *which executor runs the chunks of a sharded
sampling job must be invisible in the results*.  Rows are bit-identical for
``--jobs 1/2/4`` and for every executor — including the loopback host
executor, which deliberately yields results out of submission order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine.executors import (
    LoopbackHostExecutor,
    ProcessPoolShardExecutor,
    SerialShardExecutor,
    resolve_shard_executor,
)
from repro.exceptions import EngineError
from repro.quantum.device import get_device


# Module-level so the process pool can pickle them by reference.
def _echo(task):
    return task


def _raise_on_marker(task):
    if task == "boom":
        raise ValueError("marker task failed")
    return task


def _sleepy_echo(task):
    time.sleep(0.05)
    return task


@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _sharded_run(device, **engine_kwargs):
    """One 40k-shot job sharded into 8k chunks; returns (distribution, stats)."""
    engine = ExecutionEngine(sample_shard_shots=8_192, **engine_kwargs)
    try:
        job = CircuitJob(
            job_id="shard-exec",
            circuit=bernstein_vazirani("10110"),
            shots=40_000,
            noise_model=device.noise_model,
        )
        result = engine.run([job], seed=7)[0]
        return result.noisy, engine.last_run_stats
    finally:
        engine.close()


class TestExecutorBitIdentity:
    def test_rows_bit_identical_across_jobs_and_executors(self, device):
        reference, _ = _sharded_run(device, max_workers=1)
        for workers in (1, 2, 4):
            for executor in ("serial", "loopback"):
                noisy, stats = _sharded_run(
                    device, max_workers=workers, shard_executor=executor
                )
                assert (
                    noisy.probabilities() == reference.probabilities()
                ), f"jobs={workers} executor={executor}"
        noisy, _ = _sharded_run(device, max_workers=4, shard_executor="process-pool")
        assert noisy.probabilities() == reference.probabilities()

    def test_executor_instance_accepted(self, device):
        reference, _ = _sharded_run(device, max_workers=1)
        executor = LoopbackHostExecutor()
        try:
            noisy, stats = _sharded_run(device, max_workers=1, shard_executor=executor)
        finally:
            executor.close()
        assert noisy.probabilities() == reference.probabilities()
        assert stats.planner_decisions["shard-executor"] == {"loopback/override": 1}


class _RecordingExecutor(SerialShardExecutor):
    """Serial executor that counts the batches it serves and its closes."""

    name = "recording"

    def __init__(self) -> None:
        self.batches = 0
        self.closes = 0

    def run(self, fn, tasks):
        self.batches += 1
        yield from super().run(fn, tasks)

    def close(self) -> None:
        self.closes += 1


class TestExecutorOwnership:
    def test_engine_never_closes_an_executor_passed_in(self, device):
        """A caller's executor serves every batch; only its owner closes it."""
        executor = _RecordingExecutor()
        engine = ExecutionEngine(
            max_workers=1, sample_shard_shots=8_192, shard_executor=executor
        )
        try:
            for seed in (7, 8):
                job = CircuitJob(
                    job_id=f"owned-{seed}",
                    circuit=bernstein_vazirani("10110"),
                    shots=40_000,
                    noise_model=device.noise_model,
                )
                engine.run([job], seed=seed)
        finally:
            engine.close()
        assert executor.batches == 2
        assert executor.closes == 0


class TestExecutorSelection:
    def test_env_override(self, device, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "serial")
        _, stats = _sharded_run(device, max_workers=4)
        assert stats.planner_decisions["shard-executor"] == {"serial/override": 1}

    def test_auto_uses_pool_when_workers_allow(self, device):
        _, stats = _sharded_run(device, max_workers=4)
        assert stats.planner_decisions["shard-executor"] == {"process-pool/heuristic": 1}
        _, stats = _sharded_run(device, max_workers=1)
        assert stats.planner_decisions["shard-executor"] == {"serial/heuristic": 1}

    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError, match="unknown shard executor"):
            ExecutionEngine(shard_executor="quantum-teleport")
        with pytest.raises(EngineError, match="unknown shard executor"):
            resolve_shard_executor("quantum-teleport", None)

    def test_process_pool_needs_workers(self):
        with pytest.raises(EngineError, match="max_workers > 1"):
            ExecutionEngine(max_workers=1, shard_executor="process-pool")
        with pytest.raises(EngineError, match="max_workers > 1"):
            resolve_shard_executor("process-pool", None)


class TestProcessPoolBookkeeping:
    """The in-flight bookkeeping fixes: sentinel, validation, and draining."""

    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            yield pool

    def test_none_and_falsy_tasks_do_not_truncate_batch(self, pool):
        # ``next(queue, None)`` + ``is None`` used to end the batch at the
        # first None task; falsy tasks probe the same class of bug.
        tasks = [None, 1, None, 0, "", 2, None]
        executor = ProcessPoolShardExecutor(pool, max_in_flight=2)
        results = list(executor.run(_echo, tasks))
        assert sorted(results, key=repr) == sorted(tasks, key=repr)

    def test_max_in_flight_zero_raises(self, pool):
        # An explicit 0 used to fall through the truthiness check to the
        # 4 x workers default; the documented contract is ``>= 1`` or error.
        with pytest.raises(EngineError, match="max_in_flight must be >= 1"):
            ProcessPoolShardExecutor(pool, max_in_flight=0)
        with pytest.raises(EngineError, match="max_in_flight must be >= 1"):
            ProcessPoolShardExecutor(pool, max_in_flight=-3)

    def test_max_in_flight_one_processes_every_task(self, pool):
        executor = ProcessPoolShardExecutor(pool, max_in_flight=1)
        assert sorted(executor.run(_echo, list(range(7)))) == list(range(7))

    def test_default_in_flight_window_from_pool_width(self, pool):
        assert ProcessPoolShardExecutor(pool)._max_in_flight == 8
        assert ProcessPoolShardExecutor(pool, max_in_flight=None)._max_in_flight == 8

    def test_abandoned_generator_leaves_pool_usable(self, pool):
        executor = ProcessPoolShardExecutor(pool, max_in_flight=4)
        generator = executor.run(_sleepy_echo, list(range(12)))
        assert next(generator) in range(12)
        # Abandon with futures still pending: close() must cancel/drain them
        # rather than strand work in the borrowed pool.
        generator.close()
        assert sorted(executor.run(_echo, list(range(5)))) == list(range(5))

    def test_worker_exception_drains_pending(self, pool):
        executor = ProcessPoolShardExecutor(pool, max_in_flight=4)
        with pytest.raises(ValueError, match="marker task failed"):
            list(executor.run(_raise_on_marker, ["boom"] + list(range(10))))
        # The raise above left no stranded futures: the pool still serves.
        assert sorted(executor.run(_echo, list(range(5)))) == list(range(5))


class TestHostExecutorProtocol:
    def test_loopback_yields_host_major_out_of_order(self):
        executor = LoopbackHostExecutor(hosts=("a", "b"))
        tasks = list(range(6))
        assert executor.placement(6) == ["a", "b", "a", "b", "a", "b"]
        results = list(executor.run(lambda task: task, tasks))
        # Host-major: host a's tasks first, then host b's — NOT 0..5.
        assert results == [0, 2, 4, 1, 3, 5]

    def test_serial_preserves_order(self):
        executor = SerialShardExecutor()
        assert list(executor.run(lambda task: task * 2, [1, 2, 3])) == [2, 4, 6]

    def test_empty_hosts_rejected(self):
        with pytest.raises(EngineError):
            LoopbackHostExecutor(hosts=())


class TestReductionStatsSurface:
    def test_run_stats_count_tree_work(self, device):
        _, stats = _sharded_run(device, max_workers=1)
        # 40_000 shots / 8_192 = 5 chunks -> 4 merges, depth 3.
        assert stats.sample_shards == 5
        assert stats.reduction_merges == 4
        assert stats.reduction_tree_depth == 3
        assert stats.reduction_peak_live_segments >= 2
        assert stats.merge_seconds >= 0.0
        as_dict = stats.as_dict()
        for key in (
            "reduction_merges",
            "reduction_tree_depth",
            "reduction_peak_live_segments",
            "merge_seconds",
        ):
            assert key in as_dict

    def test_planner_meta_reduction_block(self, device):
        from repro.experiments.runner import ExperimentReport, attach_engine_meta

        engine = ExecutionEngine(max_workers=1, sample_shard_shots=8_192)
        try:
            job = CircuitJob(
                job_id="meta",
                circuit=bernstein_vazirani("10110"),
                shots=40_000,
                noise_model=device.noise_model,
            )
            engine.run([job], seed=7)
            report = ExperimentReport(name="meta-check")
            attach_engine_meta(report, engine)
        finally:
            engine.close()
        reduction = report.meta["planner"]["reduction"]
        assert reduction["merges"] == 4
        assert reduction["tree_depth"] == 3
        assert reduction["peak_live_segments"] >= 2
        assert reduction["merge_seconds"] >= 0.0


class TestChunksizeOverheadFloor:
    def test_chunksize_unchanged_without_profile(self):
        engine = ExecutionEngine(max_workers=4)
        assert engine._pool_chunksize(64) == 4
        assert engine._pool_chunksize(3) == 1
