"""Deterministic batch execution of circuit jobs with caching and workers.

The engine runs a batch of :class:`~repro.engine.jobs.CircuitJob` objects in
three phases, deduplicating shared work through the content-addressed
:class:`~repro.engine.cache.ExecutionCache`:

1. **Transpile** — jobs that target a device shape are routed/decomposed
   once per unique ``(circuit, coupling map, basis gates)`` key.
2. **Ideal simulation** — the noise-free distribution of each unique
   *executed* circuit is computed once, through the job's resolved
   :mod:`~repro.backends` backend: by default the stabilizer tableau when a
   bit-flip job's executed circuit is Clifford (every BV sweep), the dense
   statevector otherwise.  The ``"auto"`` probe runs in an
   ``engine.resolve_backend`` span, each computed ideal counts
   ``ideal.backend.<name>``, and the resolved backend is part of the cache
   key.
3. **Sampling** — every job draws its noisy histogram with its own RNG.
   Bit-flip jobs that share an executed circuit and noise fingerprint are
   *grouped*: the circuit-dependent noise arrays and ideal support views
   are built once per group and the per-job shot matrices are packed in a
   single vectorized pass — while each job still consumes its own seed
   stream, so grouped histograms are bit-identical to ungrouped ones.
   Jobs above the shard threshold (``REPRO_SAMPLE_SHARD_SHOTS``, default
   262,144) are split into fixed-size shot chunks with per-chunk seed
   streams; chunks execute on a pluggable
   :class:`~repro.engine.executors.ShardExecutor` (serial / process-pool
   today, host-addressable tomorrow) and their partial histograms stream
   into a fixed-shape :class:`~repro.engine.reduction.ReductionTree` as
   they complete — peak live segments stay ``O(log chunks)``, merges
   overlap with sampling, and the merged histogram is bit-identical for
   any placement or completion order.
   Histograms are cached under a key that includes the noise model's
   fingerprint (with any calibration snapshot), the job's seed entropy and
   the shard layout, so re-running a sweep with the same seed skips the
   sampling too, while heterogeneous (calibrated) runs never collide with
   uniform ones.

The transpile and ideal phases share one cached map (look each key up,
compute each distinct miss once, store it).  :meth:`ExecutionEngine.hammer`
runs HAMMER through the same map, in the calling process, after a study has
its histograms, keyed by the histogram's content and the
:class:`~repro.core.hammer.HammerConfig`, so a re-run on a filled
``cache_dir`` reconstructs nothing.

Determinism
-----------
Each job's generator is seeded with ``np.random.SeedSequence((seed, index))``
where ``index`` is the job's position in the batch.  Seeds therefore depend
only on the batch order chosen by the study — never on worker count,
scheduling, or cache state — so a sweep produces bit-identical rows for
``max_workers=1`` and ``max_workers=8``.

Parallelism
-----------
``max_workers=1`` (default) runs everything in-process.  Larger values fan
each phase out over a :class:`concurrent.futures.ProcessPoolExecutor`; the
cache lives in the parent process, which resolves hits before dispatch and
absorbs artifacts computed by workers, so worker processes stay stateless.

Planning
--------
Every execution choice follows two steps, override > fixed rule.  The shard
threshold comes from the constructor or ``REPRO_SAMPLE_SHARD_SHOTS``, else
:data:`DEFAULT_SAMPLE_SHARD_SHOTS`; the shard executor from the constructor
or ``REPRO_SHARD_EXECUTOR``, else ``auto``; the worker count is
``max_workers``.  :attr:`EngineRunStats.planner_decisions` counts each shard
layout and executor choice with its source.
"""

from __future__ import annotations

import os
import time
import weakref
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.backends import get_backend, resolve_backend
from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig, hammer
from repro.obs.metrics import counter_add, gauge_max
from repro.obs.observe import absorb_payload, observation_active, observed_call
from repro.obs.phases import record_phase_seconds
from repro.obs.trace import record_span, trace_span
from repro.engine.cache import ExecutionCache
from repro.engine.executors import (
    ENV_SHARD_EXECUTOR,
    SHARD_EXECUTOR_NAMES,
    ShardExecutor,
    resolve_shard_executor,
)
from repro.engine.hashing import (
    circuit_fingerprint,
    hammer_key,
    ideal_key,
    noise_fingerprint,
    sample_key,
    transpile_key,
)
from repro.engine.jobs import CircuitJob, JobResult
from repro.engine.reduction import ReductionTree
from repro.exceptions import BackendError, EngineError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.sampler import (
    sample_bitflip_batch,
    sample_bitflip_chunk,
    sample_trajectory_distribution,
)
from repro.quantum.transpiler import transpile

#: Jobs above this many shots are sampled in fixed-size chunks with
#: per-chunk seed streams (overridable via the environment or the engine
#: constructor).  Laptop-scale sweeps stay below it, keeping their
#: historical single-stream histograms bit-identical.
DEFAULT_SAMPLE_SHARD_SHOTS = 262_144

_ENV_SHARD_SHOTS = "REPRO_SAMPLE_SHARD_SHOTS"

__all__ = ["ExecutionEngine", "EngineRunStats"]


@dataclass(frozen=True)
class _TranspileArtifact:
    """Cached output of one transpilation: executed circuit + layout info."""

    circuit: QuantumCircuit
    permutation: tuple[int, ...]
    num_swaps: int


def _merge_numeric(into: dict, other: dict) -> dict:
    """Deep-merge ``other`` into a copy of ``into``: numbers add, dicts recurse.

    Used to fold per-batch transport provenance into lifetime totals —
    chunk/lease/fault counts add across batches while identifying values
    (executor name, broker address, seed) are simply carried forward.
    Booleans are identity, not addends.
    """
    merged = dict(into)
    for key, value in other.items():
        present = merged.get(key)
        if isinstance(value, dict):
            merged[key] = _merge_numeric(present if isinstance(present, dict) else {}, value)
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and isinstance(present, (int, float))
            and not isinstance(present, bool)
        ):
            merged[key] = present + value
        else:
            merged[key] = value
    return merged


@dataclass
class EngineRunStats:
    """Aggregate accounting of one :meth:`ExecutionEngine.run` call."""

    num_jobs: int = 0
    max_workers: int = 1
    transpiled_jobs: int = 0
    transpile_cache_hits: int = 0
    ideal_cache_hits: int = 0
    sample_cache_hits: int = 0
    stabilizer_jobs: int = 0
    unique_transpiles_computed: int = 0
    unique_ideals_computed: int = 0
    sample_groups: int = 0
    grouped_sample_jobs: int = 0
    sharded_jobs: int = 0
    sample_shards: int = 0
    #: Pairwise reduction-tree merges performed over shard segments.
    reduction_merges: int = 0
    #: Deepest reduction tree of the run (``ceil(log2(chunks))`` of the
    #: most-sharded job); 0 when nothing sharded.
    reduction_tree_depth: int = 0
    #: Most live segments any job's tree ever held at once — the measured
    #: bounded-memory guarantee (``depth + 1`` for in-order completion,
    #: plus the executor's out-of-order window otherwise).
    reduction_peak_live_segments: int = 0
    #: Wall seconds inside pairwise shard merges (overlapped with sampling
    #: on streaming executors, so this can exceed its wall-clock share).
    merge_seconds: float = 0.0
    #: Chunk results delivered after their index already merged (an
    #: at-least-once transport retried or duplicated them) and dropped
    #: before touching the tree or the obs counters.
    duplicate_chunks_dropped: int = 0
    #: Transport provenance from the shard executor's :meth:`provenance`
    #: (broker chunk and lease counts, injected faults); empty for purely
    #: local executors.
    transport: dict = field(default_factory=dict)
    prepare_seconds: float = 0.0
    sample_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Nested counters of the shard decisions made while running:
    #: ``{"shard": {"chunk:262144/heuristic": 3, ...}, "shard-executor": ...}``.
    #: Each key is ``f"{choice}/{source}"`` where source is ``override`` (a
    #: constructor argument or environment value) or ``heuristic`` (the
    #: built-in rule).
    planner_decisions: dict = field(default_factory=dict)

    def record_planner(self, kind: str, choice: str, source: str) -> None:
        """Count one planner decision (shard layout or shard executor)."""
        bucket = self.planner_decisions.setdefault(kind, {})
        key = f"{choice}/{source}"
        bucket[key] = bucket.get(key, 0) + 1

    def accumulate(self, other: "EngineRunStats") -> None:
        """Fold another run's counters into this one (for lifetime totals)."""
        self.num_jobs += other.num_jobs
        self.transpiled_jobs += other.transpiled_jobs
        self.transpile_cache_hits += other.transpile_cache_hits
        self.ideal_cache_hits += other.ideal_cache_hits
        self.sample_cache_hits += other.sample_cache_hits
        self.stabilizer_jobs += other.stabilizer_jobs
        self.unique_transpiles_computed += other.unique_transpiles_computed
        self.unique_ideals_computed += other.unique_ideals_computed
        self.sample_groups += other.sample_groups
        self.grouped_sample_jobs += other.grouped_sample_jobs
        self.sharded_jobs += other.sharded_jobs
        self.sample_shards += other.sample_shards
        self.reduction_merges += other.reduction_merges
        self.reduction_tree_depth = max(
            self.reduction_tree_depth, other.reduction_tree_depth
        )
        self.reduction_peak_live_segments = max(
            self.reduction_peak_live_segments, other.reduction_peak_live_segments
        )
        self.merge_seconds += other.merge_seconds
        self.duplicate_chunks_dropped += other.duplicate_chunks_dropped
        self.transport = _merge_numeric(self.transport, other.transport)
        self.prepare_seconds += other.prepare_seconds
        self.sample_seconds += other.sample_seconds
        self.wall_seconds += other.wall_seconds
        for kind, counts in other.planner_decisions.items():
            bucket = self.planner_decisions.setdefault(kind, {})
            for key, count in counts.items():
                bucket[key] = bucket.get(key, 0) + count

    def as_dict(self) -> dict[str, object]:
        """Flat dict for ``ExperimentReport.meta`` / JSON artifacts."""
        return {
            "num_jobs": self.num_jobs,
            "max_workers": self.max_workers,
            "transpiled_jobs": self.transpiled_jobs,
            "transpile_cache_hits": self.transpile_cache_hits,
            "ideal_cache_hits": self.ideal_cache_hits,
            "sample_cache_hits": self.sample_cache_hits,
            "stabilizer_jobs": self.stabilizer_jobs,
            "unique_transpiles_computed": self.unique_transpiles_computed,
            "unique_ideals_computed": self.unique_ideals_computed,
            "sample_groups": self.sample_groups,
            "grouped_sample_jobs": self.grouped_sample_jobs,
            "sharded_jobs": self.sharded_jobs,
            "sample_shards": self.sample_shards,
            "reduction_merges": self.reduction_merges,
            "reduction_tree_depth": self.reduction_tree_depth,
            "reduction_peak_live_segments": self.reduction_peak_live_segments,
            "merge_seconds": self.merge_seconds,
            "duplicate_chunks_dropped": self.duplicate_chunks_dropped,
            "transport": _merge_numeric({}, self.transport),
            "prepare_seconds": self.prepare_seconds,
            "sample_seconds": self.sample_seconds,
            "wall_seconds": self.wall_seconds,
            "planner_decisions": {
                kind: dict(counts) for kind, counts in sorted(self.planner_decisions.items())
            },
        }


# ---------------------------------------------------------------------------
# Worker functions (module-level so they pickle by reference)
# ---------------------------------------------------------------------------
def _transpile_task(task: tuple) -> tuple[str, _TranspileArtifact, float]:
    key, circuit, coupling_map, basis_gates = task
    counter_add("engine.transpiles_computed")
    with trace_span("engine.task.transpile", qubits=circuit.num_qubits):
        start = time.perf_counter()
        transpiled = transpile(circuit, coupling_map=coupling_map, basis_gates=basis_gates)
        seconds = time.perf_counter() - start
    artifact = _TranspileArtifact(
        circuit=transpiled.circuit,
        permutation=tuple(transpiled.measurement_permutation()),
        num_swaps=transpiled.num_swaps,
    )
    return key, artifact, seconds


def _ideal_task(task: tuple) -> tuple[str, Distribution, float]:
    key, circuit, backend_name = task
    backend = get_backend(backend_name)
    counter_add("engine.ideals_computed")
    counter_add(f"ideal.backend.{backend_name}")
    with trace_span("engine.task.ideal", backend=backend_name, qubits=circuit.num_qubits):
        start = time.perf_counter()
        ideal = backend.ideal_distribution(circuit)
        return key, ideal, time.perf_counter() - start


def _hammer_task(task: tuple) -> tuple[str, Distribution, float]:
    key, distribution, config = task
    start = time.perf_counter()
    # Through the module global: perfbench's selftest rebinds ``hammer`` to
    # perturb outputs and prove its output check catches them.
    reconstructed = hammer(distribution, config)
    return key, reconstructed, time.perf_counter() - start


def _sample_group_task(task: tuple) -> list[tuple[int, Distribution, float]]:
    """Sample one group of bit-flip jobs sharing (executed circuit, noise model).

    The group's noise arrays and ideal support views are built once; each
    job draws from its own ``SeedSequence``-derived generator, so results
    are bit-identical to ungrouped sampling.  The batch wall time is
    attributed to jobs proportionally to their shot counts.
    """
    circuit, ideal, noise_model, requests = task
    total_shots = sum(shots for _, shots, _ in requests)
    # Counters count *work units* (jobs, shots) — never group slices, which
    # vary with worker count — so merged totals match a serial run exactly.
    counter_add("sampler.jobs", len(requests))
    counter_add("sampler.shots", total_shots)
    with trace_span("engine.task.sample_group", jobs=len(requests), shots=total_shots):
        start = time.perf_counter()
        generators = [
            (shots, np.random.default_rng(np.random.SeedSequence(entropy)))
            for _, shots, entropy in requests
        ]
        distributions = sample_bitflip_batch(circuit, noise_model, generators, ideal=ideal)
        elapsed = time.perf_counter() - start
    return [
        (index, noisy, elapsed * shots / total_shots)
        for (index, shots, _), noisy in zip(requests, distributions)
    ]


def _sample_shard_task(task: tuple) -> tuple[int, int, np.ndarray, np.ndarray, float]:
    """Draw one fixed-size shot chunk of a sharded job as (words, counts)."""
    index, chunk, circuit, ideal, noise_model, chunk_shots, entropy = task
    counter_add("sampler.chunks")
    counter_add("sampler.chunk_shots", chunk_shots)
    with trace_span("executor.shard", job=index, chunk=chunk, shots=chunk_shots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        start = time.perf_counter()
        words, counts = sample_bitflip_chunk(circuit, noise_model, chunk_shots, rng, ideal=ideal)
        return index, chunk, words, counts, time.perf_counter() - start


def _sample_trajectory_task(task: tuple) -> tuple[int, Distribution, float]:
    index, circuit, noise_model, shots, entropy = task
    counter_add("sampler.trajectory_jobs")
    with trace_span("engine.task.trajectory", job=index, shots=shots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        start = time.perf_counter()
        noisy = sample_trajectory_distribution(circuit, noise_model, shots, rng=rng)
        return index, noisy, time.perf_counter() - start


def _timed_call(task: tuple) -> tuple[Any, float]:
    fn, item = task
    start = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - start


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=True)


def _owners(keys: Sequence[str | None], computed: dict[str, float]) -> dict[str, int]:
    """The first job of each computed key: the job its work and time are booked to."""
    owners: dict[str, int] = {}
    for index, key in enumerate(keys):
        if key in computed:
            owners.setdefault(key, index)
    return owners


class ExecutionEngine:
    """Shared orchestration layer for all paper sweeps.

    Parameters
    ----------
    max_workers:
        1 = serial (default); >1 fans job batches out over a process pool.
    cache:
        An :class:`ExecutionCache` to share across runs/studies.  When
        omitted a fresh in-memory cache is created (optionally persistent
        when ``cache_dir`` is given).
    cache_dir:
        Convenience: directory for a persistent cache tier.  Ignored when an
        explicit ``cache`` object is passed.
    sample_shard_shots:
        Shot count above which a bit-flip job is sampled in fixed-size
        chunks with per-chunk seed streams (bounded memory, parallelizable,
        deterministically merged).  ``None`` reads
        ``REPRO_SAMPLE_SHARD_SHOTS`` and falls back to
        :data:`DEFAULT_SAMPLE_SHARD_SHOTS`.
    shard_executor:
        Which :class:`~repro.engine.executors.ShardExecutor` runs sharded
        chunk tasks: ``"auto"`` (default — serial in-process at
        ``max_workers=1``, the engine's process pool otherwise),
        ``"serial"``, ``"process-pool"``, ``"broker"``, or a
        ready-built executor instance.  ``None`` reads
        ``REPRO_SHARD_EXECUTOR`` and falls back to ``"auto"``.  The choice
        never affects results — the reduction tree merges identically for
        any placement — only where chunks run.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache: ExecutionCache | None = None,
        cache_dir: str | None = None,
        sample_shard_shots: int | None = None,
        shard_executor: "str | ShardExecutor | None" = None,
    ) -> None:
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        # An explicit constructor argument or environment value is an
        # *override*, recorded as such in planner provenance.
        shard_override = sample_shard_shots is not None
        if sample_shard_shots is None:
            raw = os.environ.get(_ENV_SHARD_SHOTS)
            if raw is not None and raw.strip():
                try:
                    sample_shard_shots = int(raw)
                except ValueError as error:
                    raise EngineError(
                        f"{_ENV_SHARD_SHOTS} must be an integer, got {raw!r}"
                    ) from error
                shard_override = True
            else:
                sample_shard_shots = DEFAULT_SAMPLE_SHARD_SHOTS
        if sample_shard_shots < 1:
            raise EngineError(
                f"sample_shard_shots must be >= 1, got {sample_shard_shots}"
            )
        self.sample_shard_shots = int(sample_shard_shots)
        self._shard_override = shard_override
        # Executor selection mirrors the shard-threshold precedence: an
        # explicit argument or env value is an override (recorded as such in
        # planner provenance); otherwise "auto" follows the worker count.
        self._shard_executor_instance: ShardExecutor | None = None
        executor_override = shard_executor is not None
        if isinstance(shard_executor, ShardExecutor):
            self._shard_executor_instance = shard_executor
            self._shard_executor_name = shard_executor.name
        else:
            if shard_executor is None:
                raw = os.environ.get(ENV_SHARD_EXECUTOR)
                if raw is not None and raw.strip():
                    shard_executor = raw.strip().lower()
                    executor_override = True
                else:
                    shard_executor = "auto"
            if shard_executor not in SHARD_EXECUTOR_NAMES:
                raise EngineError(
                    f"unknown shard executor {shard_executor!r}; expected one "
                    f"of {SHARD_EXECUTOR_NAMES}"
                )
            if shard_executor == "process-pool" and self.max_workers <= 1:
                raise EngineError(
                    "shard executor 'process-pool' requires max_workers > 1"
                )
            self._shard_executor_name = shard_executor
        self._shard_executor_override = executor_override
        self.cache = cache if cache is not None else ExecutionCache(cache_dir)
        self.last_run_stats: EngineRunStats | None = None
        #: Totals over every :meth:`run` since construction.  Studies that
        #: issue several batches through one shared engine (fig12, headline,
        #: the dataset emulators) report these, so the provenance covers the
        #: whole sweep and reconciles with the cache's lifetime counters.
        self.lifetime_stats = EngineRunStats(max_workers=self.max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    def _get_pool(self) -> ProcessPoolExecutor | None:
        """Lazily create the worker pool, reused across runs of this engine.

        Multi-batch studies (fig12: 5 batches, headline: 3+) would otherwise
        pay worker spawn + interpreter import costs once per batch.
        """
        if self.max_workers <= 1:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (subsequent runs recreate it lazily).

        A shard executor instance passed in as ``shard_executor=`` belongs
        to the caller, who closes it; the engine only ever closes the
        executors it resolves itself, after each batch.
        """
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Generic parallel map
    # ------------------------------------------------------------------
    def _map(self, pool: ProcessPoolExecutor | None, fn: Callable, tasks: Sequence) -> list:
        if pool is None or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        chunksize = self._pool_chunksize(len(tasks))
        if observation_active():
            # Workers start unobserved; wrap each task in a task-scoped
            # observation and fold its payload (metrics/spans/logs) back in.
            results = []
            for result, payload in pool.map(
                partial(observed_call, fn), tasks, chunksize=chunksize
            ):
                absorb_payload(payload)
                results.append(result)
            return results
        return list(pool.map(fn, tasks, chunksize=chunksize))

    def _cached_map(
        self, namespace: str, pool: ProcessPoolExecutor | None, fn: Callable, tasks: Iterable
    ) -> tuple[dict[str, Any], dict[str, float]]:
        """Serve each task from cache ``namespace``, computing every distinct miss once.

        A task's first element is its cache key and ``fn`` returns ``(key,
        artifact, seconds)``.  A key repeated among ``tasks`` is looked up
        and computed once; computed artifacts are stored.  Returns every
        key's artifact and the seconds of each computed one.
        """
        artifacts: dict[str, Any] = {}
        misses: dict[str, tuple] = {}
        for task in tasks:
            key = task[0]
            if key in artifacts or key in misses:
                continue
            cached = self.cache.get(namespace, key)
            if cached is None:
                misses[key] = task
            else:
                artifacts[key] = cached
        seconds: dict[str, float] = {}
        for key, artifact, elapsed in self._map(pool, fn, list(misses.values())):
            self.cache.put(namespace, key, artifact)
            artifacts[key] = artifact
            seconds[key] = elapsed
        return artifacts, seconds

    def _pool_chunksize(self, num_tasks: int) -> int:
        """Tasks per pool dispatch: about four chunks per worker.

        Chunking only changes how tasks travel, never their seed streams,
        so results are identical for any chunksize.
        """
        return max(1, num_tasks // (self.max_workers * 4))

    def _resolve_shard_executor(
        self,
        pool: ProcessPoolExecutor | None,
        num_tasks: int,
        stats: EngineRunStats,
    ) -> ShardExecutor:
        """Pick the executor for this batch's shard tasks, recording provenance.

        A sharded batch can reach here with ``pool is None`` even at
        ``max_workers > 1``: single-job batches never open the pool.  Shard
        chunks are by construction big enough to amortize worker dispatch, so
        both ``auto`` and an explicit ``process-pool`` selection open the
        pool here when the worker count allows fan-out.
        """
        if self._shard_executor_instance is not None:
            executor = self._shard_executor_instance
        else:
            name = self._shard_executor_name
            if (
                pool is None
                and self.max_workers > 1
                and num_tasks > 1
                # "broker" takes the pool too: it is the substrate of the
                # no-worker graceful-degradation fallback.
                and name in ("auto", "process-pool", "broker")
            ):
                pool = self._get_pool()
            executor = resolve_shard_executor(name, pool)
        stats.record_planner(
            "shard-executor",
            executor.name,
            "override" if self._shard_executor_override else "heuristic",
        )
        return executor

    def map_timed(self, fn: Callable, items: Iterable) -> list[tuple[Any, float]]:
        """Run ``fn`` over ``items`` (respecting ``max_workers``), timing each call.

        ``fn`` must be a module-level callable when ``max_workers > 1`` (it is
        shipped to worker processes by reference).  Returns
        ``[(result, seconds), ...]`` in input order.
        """
        tasks = [(fn, item) for item in items]
        if self.max_workers <= 1 or len(tasks) <= 1:
            return [_timed_call(task) for task in tasks]
        return self._map(self._get_pool(), _timed_call, tasks)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[CircuitJob], seed: int = 0) -> list[JobResult]:
        """Execute a batch of jobs and return results in batch order."""
        wall_start = time.perf_counter()
        jobs = list(jobs)
        stats = EngineRunStats(num_jobs=len(jobs), max_workers=self.max_workers)
        if not jobs:
            stats.wall_seconds = time.perf_counter() - wall_start
            self.last_run_stats = stats
            self.lifetime_stats.accumulate(stats)
            return []
        seed = int(seed)
        if seed < 0:
            raise EngineError(f"seed must be non-negative, got {seed}")
        seen_ids: set[str] = set()
        for job in jobs:
            if job.job_id in seen_ids:
                raise EngineError(f"duplicate job_id {job.job_id!r} in batch")
            seen_ids.add(job.job_id)
            # Fail fast (DeviceError naming device and widths) instead of an
            # index error deep inside routing or the bit-flip sampler.
            job.validate_width()

        pool = self._get_pool() if len(jobs) > 1 else None
        counter_add("engine.runs")
        counter_add("engine.jobs", len(jobs))
        results = self._run_phases(jobs, seed, stats, pool, wall_start)
        record_span(
            "engine.run",
            stats.wall_seconds,
            num_jobs=stats.num_jobs,
            max_workers=self.max_workers,
        )
        return results

    def _plan_shard(self, job: CircuitJob, stats: EngineRunStats) -> int | None:
        """Chunk size of one job's shard layout (``None``: one stream).

        ``None`` means the historical single-stream draw: trajectory jobs
        and jobs at or below the shard threshold.
        """
        if job.method != "bitflip":
            return None
        chunk = self.sample_shard_shots if job.shots > self.sample_shard_shots else None
        stats.record_planner(
            "shard",
            "none" if chunk is None else f"chunk:{chunk}",
            "override" if self._shard_override else "heuristic",
        )
        return chunk

    def _run_phases(
        self,
        jobs: list[CircuitJob],
        seed: int,
        stats: EngineRunStats,
        pool: ProcessPoolExecutor | None,
        wall_start: float,
    ) -> list[JobResult]:
        # ---- Phase 1: transpilation (once per unique circuit/target) ----
        phase_start = time.perf_counter()
        job_tkeys: list[str | None] = []
        transpile_tasks: list[tuple] = []
        for job in jobs:
            if not job.wants_transpile:
                job_tkeys.append(None)
                continue
            key = transpile_key(job.circuit, job.coupling_map, job.basis_gates)
            job_tkeys.append(key)
            transpile_tasks.append((key, job.circuit, job.coupling_map, job.basis_gates))
        transpile_artifacts, transpile_seconds = self._cached_map(
            "transpile", pool, _transpile_task, transpile_tasks
        )
        stats.unique_transpiles_computed = len(transpile_seconds)
        record_phase_seconds("transpile", time.perf_counter() - phase_start)

        # ---- Phase 2: ideal distributions (once per unique executed circuit
        # and resolved backend) ----
        phase_start = time.perf_counter()
        executed_circuits: list[QuantumCircuit] = []
        job_backends: list[str] = []
        job_ikeys: list[str] = []
        ideal_tasks: list[tuple] = []
        tkey_ikeys: dict[tuple[str, str], str] = {}
        resolved_backends: dict[tuple, str] = {}
        for index, job in enumerate(jobs):
            tkey = job_tkeys[index]
            executed = job.circuit if tkey is None else transpile_artifacts[tkey].circuit
            # Resolution happens on the *executed* circuit: routing/decomposition
            # preserve Clifford-ness, but "auto" must judge what actually runs.
            # Memoised per (executed-circuit content, requested backend):
            # probing the stabilizer backend runs a full tableau pass, which
            # duplicate jobs in a sweep must not repeat.  Transpiled jobs are
            # already content-keyed by tkey; untranspiled ones hash the
            # circuit (cheap next to any simulation).
            rkey = (
                tkey if tkey is not None else circuit_fingerprint(executed),
                job.backend,
            )
            backend_name = resolved_backends.get(rkey)
            if backend_name is None:
                # An "auto" probe runs the tableau pass (which the stabilizer
                # backend then reuses), so it gets its own span.
                with trace_span(
                    "engine.resolve_backend", requested=job.backend, qubits=executed.num_qubits
                ) as span:
                    try:
                        backend_name = resolve_backend(job.backend, executed).name
                    except BackendError as error:
                        raise EngineError(f"job {job.job_id!r}: {error}") from error
                    span.set(backend=backend_name)
                resolved_backends[rkey] = backend_name
            if tkey is None:
                key = ideal_key(executed, backend=backend_name)
            else:
                key = tkey_ikeys.get((tkey, backend_name))
                if key is None:
                    key = ideal_key(executed, backend=backend_name)
                    tkey_ikeys[(tkey, backend_name)] = key
            executed_circuits.append(executed)
            job_backends.append(backend_name)
            job_ikeys.append(key)
            ideal_tasks.append((key, executed, backend_name))
        ideal_distributions, ideal_seconds = self._cached_map(
            "ideal", pool, _ideal_task, ideal_tasks
        )
        stats.unique_ideals_computed = len(ideal_seconds)
        record_phase_seconds("ideal", time.perf_counter() - phase_start)

        # ---- Phase 3: noisy sampling (one independent RNG stream per job) ----
        # The sample cache is keyed on (executed circuit, noise fingerprint —
        # including any calibration snapshot —, shots, method, seed entropy,
        # shard layout), so a hit returns exactly the histogram the per-job
        # RNG stream(s) would draw and bit-identity across worker counts is
        # preserved.  Cache-miss bit-flip jobs sharing an executed circuit
        # and noise fingerprint are grouped into one vectorized multi-seed
        # batch; jobs above the shard threshold fan out into fixed-size shot
        # chunks that merge in a deterministic reduction order.
        phase_start = time.perf_counter()
        sampled_by_index: dict[int, tuple[Distribution, float, bool]] = {}
        job_skeys: list[str] = []
        trajectory_tasks: list[tuple] = []
        shard_tasks: list[tuple] = []
        shard_chunk_counts: dict[int, int] = {}
        group_members: dict[tuple[str, str], list[int]] = {}
        # Noise fingerprints are content hashes; memoise per model object so
        # sweeps reusing one NoiseModel across many jobs hash it once here.
        noise_fingerprints: dict[int, str] = {}
        for index, job in enumerate(jobs):
            job_chunk_shots = self._plan_shard(job, stats)
            sharded = job_chunk_shots is not None
            skey = sample_key(
                executed_circuits[index],
                job.noise_model,
                job.shots,
                job.method,
                (seed, index),
                backend=job_backends[index],
                shard_shots=job_chunk_shots,
            )
            job_skeys.append(skey)
            cached = self.cache.get("sample", skey)
            if cached is not None:
                # Every sampling counter (groups, grouped jobs, sharded jobs,
                # shards) tracks *computed* work only; cache hits contribute
                # nothing, the same convention as unique_ideals_computed.
                sampled_by_index[index] = (cached, 0.0, True)
                continue
            if job.method == "trajectory":
                trajectory_tasks.append(
                    (index, executed_circuits[index], job.noise_model, job.shots, (seed, index))
                )
                continue
            if sharded:
                chunk_sizes = [job_chunk_shots] * (job.shots // job_chunk_shots)
                if job.shots % job_chunk_shots:
                    chunk_sizes.append(job.shots % job_chunk_shots)
                shard_chunk_counts[index] = len(chunk_sizes)
                stats.sharded_jobs += 1
                stats.sample_shards += len(chunk_sizes)
                for chunk, chunk_shots in enumerate(chunk_sizes):
                    shard_tasks.append(
                        (
                            index,
                            chunk,
                            executed_circuits[index],
                            ideal_distributions[job_ikeys[index]],
                            job.noise_model,
                            chunk_shots,
                            (seed, index, chunk),
                        )
                    )
                continue
            fingerprint = noise_fingerprints.get(id(job.noise_model))
            if fingerprint is None:
                fingerprint = noise_fingerprint(job.noise_model)
                noise_fingerprints[id(job.noise_model)] = fingerprint
            group_members.setdefault((job_ikeys[index], fingerprint), []).append(index)

        # One logical group per (ideal key, noise fingerprint) with at least
        # one cache-miss job; worker slicing below is an execution detail and
        # must not change the reported stats.
        stats.sample_groups = len(group_members)
        group_tasks: list[tuple] = []
        for indices in group_members.values():
            if len(indices) > 1:
                stats.grouped_sample_jobs += len(indices)
            # Grouping must not serialize a parallel run: split each group
            # into at most ``max_workers`` consecutive slices.  Per-job seed
            # streams are independent, so the split never changes results.
            num_slices = min(len(indices), self.max_workers) if pool is not None else 1
            for slice_index in range(num_slices):
                members = indices[slice_index::num_slices]
                if not members:
                    continue
                first = members[0]
                group_tasks.append(
                    (
                        executed_circuits[first],
                        ideal_distributions[job_ikeys[first]],
                        jobs[first].noise_model,
                        [(i, jobs[i].shots, (seed, i)) for i in members],
                    )
                )

        for task_results in self._map(pool, _sample_group_task, group_tasks):
            for index, noisy, sample_seconds in task_results:
                self.cache.put("sample", job_skeys[index], noisy)
                sampled_by_index[index] = (noisy, sample_seconds, False)
        for index, noisy, sample_seconds in self._map(
            pool, _sample_trajectory_task, trajectory_tasks
        ):
            self.cache.put("sample", job_skeys[index], noisy)
            sampled_by_index[index] = (noisy, sample_seconds, False)
        if shard_tasks:
            # Streaming shard path: chunks execute on the configured
            # ShardExecutor and merge into each job's fixed-shape reduction
            # tree *as they complete* — no barrier-collect, peak live
            # segments O(log chunks) per job, and the merged histogram is
            # bit-identical for any executor and completion order.
            executor = self._resolve_shard_executor(pool, len(shard_tasks), stats)
            trees: dict[int, ReductionTree] = {
                index: ReductionTree(count, executed_circuits[index].num_qubits)
                for index, count in shard_chunk_counts.items()
            }
            chunk_seconds: dict[int, float] = {}
            # In-process executors record straight into the live observation;
            # cross-process ones need the task wrapped so each chunk ships a
            # payload back alongside its (words, counts) result.
            observed = observation_active() and not executor.in_process
            shard_fn = (
                partial(observed_call, _sample_shard_task) if observed else _sample_shard_task
            )
            try:
                for item in executor.run(shard_fn, shard_tasks):
                    if observed:
                        item, payload = item
                    else:
                        payload = None
                    index, chunk, words, counts, elapsed = item
                    tree = trees.get(index)
                    if tree is None or tree.arrived(chunk):
                        # Second delivery of a chunk an at-least-once
                        # transport retried or duplicated: drop it — payload
                        # included, so the work-unit counters stay exactly
                        # equal to a fault-free run's.
                        stats.duplicate_chunks_dropped += 1
                        counter_add("engine.duplicate_chunks_dropped")
                        continue
                    if observed:
                        absorb_payload(payload)
                    chunk_seconds[index] = chunk_seconds.get(index, 0.0) + elapsed
                    tree.add(chunk, words, counts)
                    if tree.complete:
                        noisy = tree.distribution()
                        self.cache.put("sample", job_skeys[index], noisy)
                        sampled_by_index[index] = (noisy, chunk_seconds[index], False)
                        tree_stats = tree.stats()
                        stats.reduction_merges += tree_stats.merges
                        stats.reduction_tree_depth = max(
                            stats.reduction_tree_depth, tree_stats.depth
                        )
                        stats.reduction_peak_live_segments = max(
                            stats.reduction_peak_live_segments,
                            tree_stats.peak_live_segments,
                        )
                        stats.merge_seconds += tree_stats.merge_seconds
                        gauge_max("reduction.tree_depth", tree_stats.depth)
                        gauge_max(
                            "reduction.peak_live_segments",
                            tree_stats.peak_live_segments,
                        )
                        del trees[index]
            finally:
                provenance = executor.provenance()
                if provenance:
                    stats.transport = _merge_numeric(stats.transport, provenance)
                # An executor passed in serves every batch; its owner closes it.
                if executor is not self._shard_executor_instance:
                    executor.close()
        record_phase_seconds("sample", time.perf_counter() - phase_start)

        # ---- Assemble results in batch order ----
        transpile_owner = _owners(job_tkeys, transpile_seconds)
        ideal_owner = _owners(job_ikeys, ideal_seconds)
        results: list[JobResult] = []
        for index, job in enumerate(jobs):
            noisy, sample_seconds, sample_hit = sampled_by_index[index]
            tkey = job_tkeys[index]
            ikey = job_ikeys[index]
            executed = executed_circuits[index]
            ideal = ideal_distributions[ikey]
            transpiled = tkey is not None
            num_swaps = transpile_artifacts[tkey].num_swaps if transpiled else 0
            measurement_permutation: tuple[int, ...] | None = None
            if transpiled and job.map_to_logical:
                permutation = list(transpile_artifacts[tkey].permutation)
                measurement_permutation = tuple(permutation)
                if permutation != list(range(len(permutation))):
                    noisy = noisy.mapped(permutation)
                    ideal = ideal.mapped(permutation)
            transpile_hit = transpiled and transpile_owner.get(tkey) != index
            ideal_hit = ideal_owner.get(ikey) != index
            prepare_seconds = 0.0
            if transpile_owner.get(tkey) == index:
                prepare_seconds += transpile_seconds[tkey]
            if ideal_owner.get(ikey) == index:
                prepare_seconds += ideal_seconds[ikey]
            stats.transpiled_jobs += 1 if transpiled else 0
            stats.transpile_cache_hits += 1 if transpile_hit else 0
            stats.ideal_cache_hits += 1 if ideal_hit else 0
            stats.sample_cache_hits += 1 if sample_hit else 0
            stats.stabilizer_jobs += 1 if job_backends[index] == "stabilizer" else 0
            stats.prepare_seconds += prepare_seconds
            stats.sample_seconds += sample_seconds
            results.append(
                JobResult(
                    job_id=job.job_id,
                    noisy=noisy,
                    ideal=ideal,
                    num_qubits=executed.num_qubits,
                    two_qubit_gates=executed.num_two_qubit_gates(),
                    depth=executed.depth(),
                    num_swaps=num_swaps,
                    transpiled=transpiled,
                    transpile_cache_hit=transpile_hit,
                    ideal_cache_hit=ideal_hit,
                    prepare_seconds=prepare_seconds,
                    sample_seconds=sample_seconds,
                    metadata=dict(job.metadata),
                    sample_cache_hit=sample_hit,
                    measurement_permutation=measurement_permutation,
                    executed_circuit=executed,
                    backend=job_backends[index],
                )
            )
        stats.wall_seconds = time.perf_counter() - wall_start
        self.last_run_stats = stats
        self.lifetime_stats.accumulate(stats)
        return results

    def run_single(self, job: CircuitJob, seed: int = 0) -> JobResult:
        """Execute one job (convenience wrapper around :meth:`run`)."""
        return self.run([job], seed=seed)[0]

    def hammer(
        self, requests: Iterable[tuple[Distribution, HammerConfig | None]]
    ) -> list[Distribution]:
        """HAMMER-reconstruct each ``(distribution, config)`` request, in request order.

        Each request is served from the ``"hammer"`` cache namespace under
        :func:`~repro.engine.hashing.hammer_key`, so a hit (from memory or
        the ``cache_dir``) is exactly what :func:`repro.core.hammer.hammer`
        would return.  Equal requests compute once.  Misses run in the
        calling process at any ``max_workers``: the key reads this process's
        kernel plan and budgets, so the plan it names is the plan that runs,
        and the ``hammer`` phase and ``kernel.*`` counters stay with the
        caller's observation.
        """
        tasks = [(hammer_key(noisy, config), noisy, config) for noisy, config in requests]
        reconstructed, _ = self._cached_map("hammer", None, _hammer_task, tasks)
        return [reconstructed[key] for key, _, _ in tasks]
