"""Deterministic batch execution of circuit jobs with caching and workers.

The engine runs a batch of :class:`~repro.engine.jobs.CircuitJob` objects in
three phases, deduplicating shared work through the content-addressed
:class:`~repro.engine.cache.ExecutionCache`:

1. **Transpile** — jobs that target a device shape are routed/decomposed
   once per unique ``(circuit, coupling map, basis gates)`` key.
2. **Ideal simulation** — the noise-free distribution of each unique
   *executed* circuit is computed once, through the job's resolved
   :mod:`~repro.backends` backend: by default the stabilizer tableau when a
   job's executed circuit is Clifford (every BV sweep), the dense statevector
   otherwise.  The ``"auto"`` probe runs in an
   ``engine.resolve_backend`` span, each computed ideal counts
   ``ideal.backend.<name>``, and the resolved backend is part of the cache
   key.
3. **Sampling** — every job draws its noisy histogram from the bit-flip +
   scramble model (:mod:`repro.quantum.sampler`) in its own seed stream,
   one task per job, through
   :func:`~repro.quantum.sampler.sample_bitflip_batch` with one request.
   Jobs above the shard threshold (``REPRO_SAMPLE_SHARD_SHOTS``, default
   262,144) are split into fixed-size shot chunks with per-chunk seed
   streams; chunks execute on a pluggable
   :class:`~repro.engine.executors.ShardExecutor` (serial, process-pool or
   the lease broker's pull workers) and their partial histograms stream
   into a fixed-shape :class:`~repro.engine.reduction.ReductionTree` as
   they complete — peak live segments stay ``O(log chunks)``, merges
   overlap with sampling, and the merged histogram is bit-identical for
   any placement or completion order.
   Histograms are cached under a key that includes the noise model's
   fingerprint (with any calibration snapshot), the job's seed entropy and
   the shard layout, so re-running a sweep with the same seed skips the
   sampling too, while heterogeneous (calibrated) runs never collide with
   uniform ones.

Every phase runs through one cached map (look each key up, compute each
distinct miss once, store it); only the map step differs per phase.
:meth:`ExecutionEngine.hammer` runs HAMMER through the same map, in the
calling process, after a study has its histograms, keyed by the histogram's
content and the :class:`~repro.core.hammer.HammerConfig`, so a re-run on a
filled ``cache_dir`` reconstructs nothing.

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
``max_workers``.  Each shard layout is counted with its source as the
counter ``planner.shard.<choice>/<source>``; the shard executor that ran a
batch's chunks is the gauge ``planner.shard-executor.<name>/<source>`` (it
follows the worker count, and counters do not).  A named executor is
resolved once, at the engine's first sharded batch, and serves every later
batch until :meth:`ExecutionEngine.close`.

Accounting
----------
Each :meth:`ExecutionEngine.run` and :meth:`ExecutionEngine.hammer` call
counts into one :class:`~repro.obs.metrics.MetricsScope`, with or without an
:class:`~repro.obs.observe.Observation`.  A run's snapshot becomes
:attr:`ExecutionEngine.last_run`; every scope folds into the lifetime
registry :attr:`ExecutionEngine.metrics` and into any enclosing scope.
Tasks that run in another process count into a task-scoped registry whose
snapshot travels back with the result and folds into the run's registry
once, so ``last_run``'s counters are equal at any worker count.
"""

from __future__ import annotations

import os
import time
import weakref
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.backends import get_backend, resolve_backend
from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig, hammer
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsScope,
    counter_add,
    gauge_max,
    gauge_set,
    observe_hist,
)
from repro.obs.observe import absorb_payload, observed_call
from repro.obs.phases import record_phase_seconds
from repro.obs.trace import record_span, trace_span, tracing_active
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
    sample_key,
    transpile_key,
)
from repro.engine.jobs import CircuitJob, JobResult
from repro.engine.reduction import ReductionTree
from repro.exceptions import BackendError, EngineError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.sampler import sample_bitflip_batch, sample_bitflip_chunk
from repro.quantum.transpiler import transpile

#: Jobs above this many shots are sampled in fixed-size chunks with
#: per-chunk seed streams (overridable via the environment or the engine
#: constructor).  Laptop-scale sweeps stay below it, keeping their
#: historical single-stream histograms bit-identical.
DEFAULT_SAMPLE_SHARD_SHOTS = 262_144

_ENV_SHARD_SHOTS = "REPRO_SAMPLE_SHARD_SHOTS"

__all__ = ["ExecutionEngine"]


@dataclass(frozen=True)
class _TranspileArtifact:
    """Cached output of one transpilation: executed circuit + layout info."""

    circuit: QuantumCircuit
    permutation: tuple[int, ...]
    num_swaps: int


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


def _sample_task(task: tuple) -> tuple[str, Distribution, float]:
    """Draw one job's histogram in one stream, from its own ``SeedSequence``."""
    key, circuit, ideal, noise_model, shots, entropy, _ = task
    # ``entropy`` is (seed, job index).
    with trace_span("engine.task.sample", job=entropy[1], shots=shots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        start = time.perf_counter()
        counter_add("sampler.jobs")
        counter_add("sampler.shots", shots)
        # A one-request batch is bit-identical to a lone draw, and perfbench
        # counts sampled shots through this name.
        (noisy,) = sample_bitflip_batch(circuit, noise_model, [(shots, rng)], ideal=ideal)
        return key, noisy, time.perf_counter() - start


def _sample_shard_task(task: tuple) -> tuple[str, int, np.ndarray, np.ndarray, float]:
    """Draw one fixed-size shot chunk of a sharded job as (words, counts)."""
    key, chunk, circuit, ideal, noise_model, chunk_shots, entropy = task
    counter_add("sampler.chunks")
    counter_add("sampler.chunk_shots", chunk_shots)
    # ``entropy`` is (seed, job index, chunk).
    with trace_span("executor.shard", job=entropy[1], chunk=chunk, shots=chunk_shots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        start = time.perf_counter()
        words, counts = sample_bitflip_chunk(circuit, noise_model, chunk_shots, rng, ideal=ideal)
        return key, chunk, words, counts, time.perf_counter() - start


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
        # The caller's instance, or the named one resolved at the first
        # sharded batch; only the latter is the engine's to close.
        self._shard_executor: ShardExecutor | None = None
        self._owns_shard_executor = not isinstance(shard_executor, ShardExecutor)
        executor_override = shard_executor is not None
        if isinstance(shard_executor, ShardExecutor):
            self._shard_executor = shard_executor
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
        #: Every :meth:`run` and :meth:`hammer` call's metrics since
        #: construction.  Studies that issue several batches through one
        #: shared engine (fig12, headline, the dataset emulators) report
        #: these, so the provenance covers the whole sweep.
        self.metrics = MetricsRegistry()
        #: The metrics snapshot of the latest :meth:`run`.
        self.last_run: dict | None = None
        #: Transport provenance of the engine's shard executor as of its
        #: latest sharded batch (:meth:`~ShardExecutor.provenance`): the
        #: broker's lifetime chunk and lease counts, and the fault tallies
        #: of the executor; empty while only local executors ran.
        self.transport: dict = {}
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
        """Close the shard executor the engine resolved and the pool it may borrow.

        Later runs recreate both lazily.  A shard executor instance passed
        in as ``shard_executor=`` belongs to the caller, who closes it.
        """
        if self._owns_shard_executor and self._shard_executor is not None:
            self._shard_executor.close()
            self._shard_executor = None
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
        # Workers count into a task-scoped registry; fold each payload back.
        results = []
        for result, payload in pool.map(
            partial(observed_call, fn, traced=tracing_active()),
            tasks,
            chunksize=self._pool_chunksize(len(tasks)),
        ):
            absorb_payload(payload)
            results.append(result)
        return results

    def _cached_map(
        self, namespace: str, compute: Callable[[list], Iterable], tasks: Iterable
    ) -> tuple[dict[str, Any], dict[str, float]]:
        """Serve each task from cache ``namespace``, computing every distinct miss once.

        A task's first element is its cache key.  ``compute`` is the phase's
        map step: it takes the list of missed tasks and yields ``(key,
        artifact, seconds)`` for each, in any order.  A key repeated among
        ``tasks`` is looked up and computed once; computed artifacts are
        stored.  Returns every key's artifact and the seconds of each
        computed one.
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
        for key, artifact, elapsed in compute(list(misses.values())):
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

    def _resolve_shard_executor(self) -> ShardExecutor:
        """The executor of this batch's shard tasks, recording provenance.

        A named executor is resolved once, at the engine's first sharded
        batch, and kept until :meth:`close`.  Shard chunks are by
        construction big enough to amortize worker dispatch, so every name
        but ``serial`` opens the pool when the worker count allows fan-out
        (``broker`` for its no-worker fallback), even for a one-job batch.
        """
        if self._shard_executor is None:
            name = self._shard_executor_name
            pool = self._get_pool() if name != "serial" else None
            self._shard_executor = resolve_shard_executor(name, pool)
        executor = self._shard_executor
        source = "override" if self._shard_executor_override else "heuristic"
        # An info gauge (1 = chunks ran here), not a counter: ``auto`` picks
        # the executor from the worker count, and counters count only work
        # units, equal at any worker count.
        gauge_set(f"planner.shard-executor.{executor.name}/{source}", 1)
        return executor

    def _sample(self, pool: ProcessPoolExecutor | None, tasks: list[tuple]) -> Iterator[tuple]:
        """The sample phase's map step: draw each missed job's histogram.

        A task is ``(key, circuit, ideal, noise model, shots, entropy, chunk
        shots)``.  Jobs drawn in one stream (``chunk shots`` is ``None``) map
        through :func:`_sample_task`.  A sharded job splits
        into fixed-size chunks with per-chunk seed streams ``(*entropy,
        chunk)``; the chunks run on the shard executor and merge into the
        job's fixed-shape reduction tree *as they complete* (no barrier, peak
        live segments ``O(log chunks)`` per job, bit-identical for any
        executor and completion order), and the job's histogram is yielded
        when its tree completes, with its chunks' summed seconds.
        """
        yield from self._map(pool, _sample_task, [task for task in tasks if task[-1] is None])
        trees: dict[str, ReductionTree] = {}
        chunk_tasks: list[tuple] = []
        for key, circuit, ideal, noise_model, shots, entropy, chunk_shots in tasks:
            if chunk_shots is None:
                continue
            sizes = [chunk_shots] * (shots // chunk_shots)
            if shots % chunk_shots:
                sizes.append(shots % chunk_shots)
            counter_add("engine.sharded_jobs")
            trees[key] = ReductionTree(len(sizes), circuit.num_qubits)
            chunk_tasks.extend(
                (key, chunk, circuit, ideal, noise_model, size, (*entropy, chunk))
                for chunk, size in enumerate(sizes)
            )
        if not chunk_tasks:
            return
        executor = self._resolve_shard_executor()
        seconds = dict.fromkeys(trees, 0.0)
        # Each chunk counts into a task-scoped registry, wherever it runs,
        # and ships the snapshot back with its (words, counts).
        shard_fn = partial(observed_call, _sample_shard_task, traced=tracing_active())
        try:
            for item, payload in executor.run(shard_fn, chunk_tasks):
                key, chunk, words, counts, elapsed = item
                tree = trees.get(key)
                if tree is None or tree.arrived(chunk):
                    # Second delivery of a chunk an at-least-once transport
                    # retried or duplicated: drop it — payload included, so
                    # the work-unit counters stay exactly equal to a
                    # fault-free run's.
                    counter_add("engine.duplicate_chunks_dropped")
                    continue
                absorb_payload(payload)
                seconds[key] += elapsed
                tree.add(chunk, words, counts)
                if tree.complete:
                    del trees[key]
                    tree_stats = tree.stats()
                    gauge_max("reduction.tree_depth", tree_stats.depth)
                    gauge_max("reduction.peak_live_segments", tree_stats.peak_live_segments)
                    observe_hist("reduction.merge_seconds", tree_stats.merge_seconds)
                    yield key, tree.distribution(), seconds[key]
        finally:
            self.transport = executor.provenance()

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
        """Execute a batch of jobs and return results in batch order.

        The batch counts into one metrics scope; its snapshot becomes
        :attr:`last_run` and folds into :attr:`metrics`.
        """
        jobs = list(jobs)
        with MetricsScope(self.metrics) as scope:
            results = self._run_batch(jobs, seed) if jobs else []
        self.last_run = scope.snapshot
        return results

    def _run_batch(self, jobs: list[CircuitJob], seed: int) -> list[JobResult]:
        wall_start = time.perf_counter()
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
        results = self._run_phases(jobs, seed, pool)
        wall_seconds = time.perf_counter() - wall_start
        observe_hist("engine.wall_seconds", wall_seconds)
        record_span(
            "engine.run", wall_seconds, num_jobs=len(jobs), max_workers=self.max_workers
        )
        return results

    def _plan_shard(self, job: CircuitJob) -> int | None:
        """Chunk size of one job's shard layout (``None``: one stream).

        ``None`` means the historical single-stream draw, for jobs at or
        below the shard threshold.
        """
        chunk = self.sample_shard_shots if job.shots > self.sample_shard_shots else None
        choice = "none" if chunk is None else f"chunk:{chunk}"
        source = "override" if self._shard_override else "heuristic"
        counter_add(f"planner.shard.{choice}/{source}")
        return chunk

    def _run_phases(
        self,
        jobs: list[CircuitJob],
        seed: int,
        pool: ProcessPoolExecutor | None,
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
            "transpile", partial(self._map, pool, _transpile_task), transpile_tasks
        )
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
            "ideal", partial(self._map, pool, _ideal_task), ideal_tasks
        )
        record_phase_seconds("ideal", time.perf_counter() - phase_start)

        # ---- Phase 3: noisy sampling (one independent RNG stream per job) ----
        # The sample key digests the executed circuit, the noise fingerprint
        # (calibration snapshot included), shots, the job's seed entropy and
        # its shard layout, so a hit is exactly the histogram the job's
        # stream(s) would draw, at any worker count.
        phase_start = time.perf_counter()
        job_skeys: list[str] = []
        sample_tasks: list[tuple] = []
        for index, job in enumerate(jobs):
            chunk_shots = self._plan_shard(job)
            executed = executed_circuits[index]
            key = sample_key(
                executed,
                job.noise_model,
                job.shots,
                (seed, index),
                backend=job_backends[index],
                shard_shots=chunk_shots,
            )
            job_skeys.append(key)
            sample_tasks.append(
                (
                    key,
                    executed,
                    ideal_distributions[job_ikeys[index]],
                    job.noise_model,
                    job.shots,
                    (seed, index),
                    chunk_shots,
                )
            )
        sampled, sample_seconds = self._cached_map(
            "sample", partial(self._sample, pool), sample_tasks
        )
        record_phase_seconds("sample", time.perf_counter() - phase_start)

        # ---- Assemble results in batch order ----
        transpile_owner = _owners(job_tkeys, transpile_seconds)
        ideal_owner = _owners(job_ikeys, ideal_seconds)
        results: list[JobResult] = []
        for index, job in enumerate(jobs):
            skey = job_skeys[index]
            noisy = sampled[skey]
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
                    sample_seconds=sample_seconds.get(skey, 0.0),
                    metadata=dict(job.metadata),
                    sample_cache_hit=skey not in sample_seconds,
                    measurement_permutation=measurement_permutation,
                    executed_circuit=executed,
                    backend=job_backends[index],
                )
            )
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
        kernel plan, so the plan it names is the plan that runs.  The call
        counts into one metrics scope (the ``hammer`` phase, ``kernel.*``
        and ``cache.hammer.*``), folded into :attr:`metrics` and into the
        caller's scope.
        """
        with MetricsScope(self.metrics):
            tasks = [(hammer_key(noisy, config), noisy, config) for noisy, config in requests]
            reconstructed, _ = self._cached_map(
                "hammer", partial(self._map, None, _hammer_task), tasks
            )
        return [reconstructed[key] for key, _, _ in tasks]
