"""Shard executor tests: selection, streaming, and bit-identity guarantees.

The load-bearing property: *which executor runs the chunks of a sharded
sampling job must be invisible in the results*.  Rows are bit-identical for
``--jobs 1/2/4`` and for every executor — including a delay-faulted serial
executor, which delivers chunks out of submission order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine import engine as engine_module
from repro.engine.executors import (
    SHARD_EXECUTOR_NAMES,
    ProcessPoolShardExecutor,
    SerialShardExecutor,
    resolve_shard_executor,
)
from repro.engine.transport import FaultInjectingExecutor
from repro.exceptions import EngineError
from repro.experiments.runner import planner_decisions
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


def _out_of_order():
    """Serial chunks delivered out of order: ``[1, 2, 4, 0, 3]`` on 5 chunks."""
    return FaultInjectingExecutor(SerialShardExecutor(), seed=1, delay=0.5)


@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _sharded_jobs(device):
    """One 40k-shot job: five chunks at 8k shots."""
    return [
        CircuitJob(
            job_id="shard-exec",
            circuit=bernstein_vazirani("10110"),
            shots=40_000,
            noise_model=device.noise_model,
        )
    ]


def _sharded_run(device, **engine_kwargs):
    """One 40k-shot job sharded into 8k chunks; returns (distribution, engine)."""
    engine = ExecutionEngine(sample_shard_shots=8_192, **engine_kwargs)
    try:
        result = engine.run(_sharded_jobs(device), seed=7)[0]
        return result.noisy, engine
    finally:
        engine.close()


class TestExecutorBitIdentity:
    def test_rows_bit_identical_across_jobs_and_executors(self, device):
        reference, _ = _sharded_run(device, max_workers=1)
        for workers in (1, 2, 4):
            for executor in ("serial", _out_of_order()):
                noisy, _ = _sharded_run(device, max_workers=workers, shard_executor=executor)
                assert (
                    noisy.probabilities() == reference.probabilities()
                ), f"jobs={workers} executor={executor}"
        noisy, _ = _sharded_run(device, max_workers=4, shard_executor="process-pool")
        assert noisy.probabilities() == reference.probabilities()

    def test_executor_instance_accepted(self, device):
        reference, _ = _sharded_run(device, max_workers=1)
        executor = _out_of_order()
        try:
            noisy, engine = _sharded_run(device, max_workers=1, shard_executor=executor)
        finally:
            executor.close()
        assert noisy.probabilities() == reference.probabilities()
        decisions = planner_decisions(engine.last_run)
        assert decisions["shard-executor"] == {"fault(serial)/override": 1}


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

    def test_transport_is_the_executors_own_account(self, device):
        """Three batches through a caller's fault injector count its faults once."""
        executor = FaultInjectingExecutor(
            SerialShardExecutor(), seed=5, drop=0.3, duplicate=0.2
        )
        with ExecutionEngine(sample_shard_shots=8_192, shard_executor=executor) as engine:
            for seed in (7, 8, 9):
                engine.run(_sharded_jobs(device), seed=seed)
        assert engine.transport == executor.provenance()
        assert engine.transport["faults"]["duplicate"] == 3

    def test_a_named_executor_is_resolved_once(self, device, monkeypatch):
        resolved = []

        def counting(name, pool):
            resolved.append(name)
            return resolve_shard_executor(name, pool)

        monkeypatch.setattr(engine_module, "resolve_shard_executor", counting)
        with ExecutionEngine(sample_shard_shots=8_192, shard_executor="serial") as engine:
            for seed in (7, 8, 9):
                engine.run(_sharded_jobs(device), seed=seed)
                assert planner_decisions(engine.last_run)["shard-executor"] == {
                    "serial/override": 1
                }
        assert resolved == ["serial"]

    def test_a_closed_engine_resolves_a_fresh_executor(self, device):
        """close() drops the executor with the pool it borrows; the next batch runs."""
        reference = ExecutionEngine(sample_shard_shots=8_192)
        expected = [reference.run(_sharded_jobs(device), seed=seed)[0] for seed in (7, 8)]
        engine = ExecutionEngine(max_workers=2, sample_shard_shots=8_192)
        try:
            rows = []
            for seed in (7, 8):
                rows.append(engine.run(_sharded_jobs(device), seed=seed)[0])
                decisions = planner_decisions(engine.last_run)
                assert decisions["shard-executor"] == {"process-pool/heuristic": 1}
                engine.close()
        finally:
            engine.close()
        for row, lone in zip(rows, expected):
            assert row.noisy.probabilities() == lone.noisy.probabilities()


class TestExecutorSelection:
    def test_env_override(self, device, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "serial")
        _, engine = _sharded_run(device, max_workers=4)
        assert planner_decisions(engine.last_run)["shard-executor"] == {"serial/override": 1}

    def test_auto_uses_pool_when_workers_allow(self, device):
        _, engine = _sharded_run(device, max_workers=4)
        decisions = planner_decisions(engine.last_run)
        assert decisions["shard-executor"] == {"process-pool/heuristic": 1}
        _, engine = _sharded_run(device, max_workers=1)
        assert planner_decisions(engine.last_run)["shard-executor"] == {"serial/heuristic": 1}

    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError, match="unknown shard executor"):
            ExecutionEngine(shard_executor="quantum-teleport")
        with pytest.raises(EngineError, match="unknown shard executor"):
            resolve_shard_executor("quantum-teleport", None)

    def test_socket_and_loopback_are_gone(self):
        assert SHARD_EXECUTOR_NAMES == ("auto", "serial", "process-pool", "broker")
        for name in ("socket", "loopback"):
            with pytest.raises(EngineError, match="unknown shard executor") as excinfo:
                resolve_shard_executor(name, None)
            assert str(SHARD_EXECUTOR_NAMES) in str(excinfo.value)

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


class TestDeliveryOrder:
    def test_serial_preserves_order(self):
        executor = SerialShardExecutor()
        assert list(executor.run(lambda task: task * 2, [1, 2, 3])) == [2, 4, 6]

    def test_delay_faults_deliver_out_of_order(self):
        # The bit-identity runs above shard into 5 chunks; this pins that
        # the out-of-order executor really reorders them.
        assert list(_out_of_order().run(lambda task: task, range(5))) == [1, 2, 4, 0, 3]


class TestReductionStatsSurface:
    def test_run_stats_count_tree_work(self, device):
        _, engine = _sharded_run(device, max_workers=1)
        run = engine.last_run
        # 40_000 shots / 8_192 = 5 chunks -> 4 merges, depth 3.
        assert run["counters"]["sampler.chunks"] == 5
        assert run["counters"]["reduction.merges"] == 4
        assert run["gauges"]["reduction.tree_depth"] == 3
        assert run["gauges"]["reduction.peak_live_segments"] >= 2
        assert run["histograms"]["reduction.merge_seconds"]["sum"] >= 0.0

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
