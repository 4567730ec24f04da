"""Pluggable shard executors: *where* sharded sampling chunks run.

The engine's phase-3 shard path used to be welded to its own process pool:
chunk tasks went through ``pool.map`` and every result was collected before
any merging began.  This module splits "where chunks execute" from "how
results merge" behind one small interface:

:class:`ShardExecutor`
    ``run(fn, tasks)`` yields ``fn(task)`` results **as they complete**, in
    whatever order the backing substrate produces them.  Callers must not
    rely on ordering — downstream merging is a fixed-shape
    :class:`~repro.engine.reduction.ReductionTree` keyed by chunk index,
    which is exactly what makes arbitrary placement and completion order
    safe.  Tasks and results must be picklable (the process-pool and any
    future remote executor ship them across process/host boundaries).

Implementations today:

* :class:`SerialShardExecutor` — in-process, yields in submission order.
  The streaming degenerate case: one chunk's scratch matrices live at a
  time, merges interleave with sampling.
* :class:`ProcessPoolShardExecutor` — fans chunks out over a
  ``ProcessPoolExecutor`` and yields via ``as_completed``, so the first
  finished chunk starts merging while later chunks are still sampling.
* :class:`~repro.engine.broker.BrokerExecutor` — multi-node: chunks go to
  a lease broker that ``repro shard-worker --broker`` processes pull from,
  with heartbeat-renewed leases and re-issue of a lost worker's chunks.

Selection: the engine picks serial/process-pool automatically from its
worker count; ``REPRO_SHARD_EXECUTOR`` (or the ``shard_executor``
constructor argument) overrides with ``serial`` / ``process-pool`` /
``broker`` (pull workers with leases via :mod:`repro.engine.broker`).
When ``REPRO_SHARD_FAULTS`` is set, any name-resolved executor is wrapped
in a deterministic :class:`~repro.engine.transport.FaultInjectingExecutor`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any

from repro.exceptions import EngineError
from repro.obs.metrics import gauge_max

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessPoolShardExecutor",
    "resolve_shard_executor",
    "SHARD_EXECUTOR_NAMES",
    "ENV_SHARD_EXECUTOR",
]

ENV_SHARD_EXECUTOR = "REPRO_SHARD_EXECUTOR"

#: Names accepted by the engine's executor selection (``auto`` = pick from
#: the worker count; ``broker`` = pull workers via a lease broker).
SHARD_EXECUTOR_NAMES = ("auto", "serial", "process-pool", "broker")

#: Unique end-of-tasks marker: ``next(queue, _NO_MORE_TASKS)`` must never
#: collide with a legitimate task value, so a ``None`` (or otherwise falsy)
#: task cannot silently truncate a batch.
_NO_MORE_TASKS = object()


class ShardExecutor(ABC):
    """Executes picklable chunk tasks somewhere; streams results back."""

    #: Short name recorded in planner provenance.
    name: str = "abstract"

    @abstractmethod
    def run(self, fn: Callable, tasks: Sequence) -> Iterator[Any]:
        """Yield ``fn(task)`` for every task, in completion order.

        Ordering is an implementation detail; callers must key any
        downstream reduction on task contents (e.g. chunk index), never on
        arrival position.
        """

    def close(self) -> None:
        """Release any resources; the default executor owns none."""

    def provenance(self) -> dict:
        """Transport accounting since construction (empty by default).

        Executors that move chunks across real boundaries (the broker, fault
        injection) report chunk and lease counts and injected faults
        here; after each sharded batch the engine keeps the latest dict as
        ``report.meta["planner"]["transport"]``.
        """
        return {}


class SerialShardExecutor(ShardExecutor):
    """Run every chunk in-process, yielding each result before the next runs.

    This *is* the bounded-memory streaming path at ``max_workers=1``: the
    caller merges one chunk's ``(words, counts)`` segment while only the
    next chunk's scratch matrices are live.
    """

    name = "serial"

    def run(self, fn: Callable, tasks: Sequence) -> Iterator[Any]:
        for task in tasks:
            yield fn(task)


class ProcessPoolShardExecutor(ShardExecutor):
    """Fan chunks out over a process pool; yield results as futures finish.

    The pool is borrowed (the engine owns and reuses it across batches), so
    :meth:`close` leaves it running.  ``max_in_flight`` caps how many chunk
    tasks are submitted but not yet consumed — the backpressure that keeps
    the reduction tree's out-of-order window (and therefore its peak live
    segments) bounded by the pool width rather than the batch size.
    """

    name = "process-pool"

    def __init__(self, pool: ProcessPoolExecutor, max_in_flight: int | None = None) -> None:
        if pool is None:
            raise EngineError("ProcessPoolShardExecutor requires a process pool")
        self._pool = pool
        workers = getattr(pool, "_max_workers", None) or 1
        # ``is None`` — not truthiness — so an explicit 0 reaches the range
        # check below and raises instead of silently becoming the default.
        self._max_in_flight = 4 * workers if max_in_flight is None else int(max_in_flight)
        if self._max_in_flight < 1:
            raise EngineError(
                f"max_in_flight must be >= 1, got {self._max_in_flight}"
            )

    def run(self, fn: Callable, tasks: Sequence) -> Iterator[Any]:
        pending: set = set()
        queue = iter(tasks)
        exhausted = False
        try:
            while True:
                while not exhausted and len(pending) < self._max_in_flight:
                    task = next(queue, _NO_MORE_TASKS)
                    if task is _NO_MORE_TASKS:
                        exhausted = True
                        break
                    pending.add(self._pool.submit(fn, task))
                gauge_max("executor.chunks_in_flight", len(pending))
                if not pending:
                    return
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    pending.discard(future)
                    yield future.result()
        finally:
            # Reached with futures still pending when the consumer abandons
            # the generator early or a chunk's result() raised: cancel what
            # has not started, then drain what has (cancel() cannot stop a
            # running task), so no work is stranded in the borrowed pool.
            if pending:
                for future in pending:
                    future.cancel()
                wait(pending)


def resolve_shard_executor(
    name: str,
    pool: ProcessPoolExecutor | None,
) -> ShardExecutor:
    """Build the shard executor ``name`` asks for (``auto`` = from the pool).

    ``process-pool`` without a pool (``max_workers=1``) is a configuration
    error rather than a silent serial fallback — an explicit selection must
    not quietly mean something else.  ``broker`` reads its address and
    timings from the environment; see :mod:`repro.engine.broker`.  When
    ``REPRO_SHARD_FAULTS`` is set the resolved executor is wrapped in a
    deterministic fault injector (explicit executor *instances* passed to
    the engine are never wrapped).
    """
    if name == "auto":
        executor: ShardExecutor = (
            ProcessPoolShardExecutor(pool) if pool is not None else SerialShardExecutor()
        )
    elif name == "serial":
        executor = SerialShardExecutor()
    elif name == "process-pool":
        if pool is None:
            raise EngineError(
                "shard executor 'process-pool' requires max_workers > 1"
            )
        executor = ProcessPoolShardExecutor(pool)
    elif name == "broker":
        from repro.engine.broker import broker_executor_from_env

        # The pool rides along as the no-worker fallback substrate, so
        # graceful degradation lands on process-pool, not silent serial.
        executor = broker_executor_from_env(pool)
    else:
        raise EngineError(
            f"unknown shard executor {name!r}; expected one of {SHARD_EXECUTOR_NAMES}"
        )
    from repro.engine.transport import wrap_faults_from_env

    return wrap_faults_from_env(executor)
