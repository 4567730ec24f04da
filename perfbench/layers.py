"""Per-layer spans for the traced run, recorded from outside the program.

While a :class:`Recorder` is installed, each layer's public entry point is
replaced, in every ``repro`` module that binds it, by a wrapper that records
a span; :meth:`Recorder.uninstall` puts the originals back.  Nothing in
``src/`` changes and no ``repro.obs`` span or counter is read, so a rewrite
of the program's own metrics cannot change what is counted here.

A layer's self time is the duration of its spans minus the part their
direct child spans cover: a cache read inside ``ExecutionEngine.run`` counts
for the cache, not for the engine.  On ``shots-broker`` the sampler runs in
the worker processes; its seconds are the per-chunk times the workers
report back (``JobResult.sample_seconds``), shown as ``transport.compute_s``
and included in ``sample.busy_s``.  The benchmark process therefore adds up as::

    trace.wall_s = kernel.busy_s + (sample.busy_s - transport.compute_s)
                   + ideal.busy_s + transpile.busy_s + cache.get_s + cache.put_s
                   + reduce.busy_s + transport.busy_s + post.busy_s
                   + engine.self_s + unattributed_s

Standard library only at import time: ``run.py`` derives the metrics from
the totals without importing the program.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from contextlib import contextmanager

#: Layers timed in the benchmark process: the keys of the self-time totals.
LAYERS = (
    "engine", "transpile", "ideal", "sample", "cache.get", "cache.put",
    "reduce", "transport", "kernel", "post",
)

#: Kernel plans counted by name; a plan not listed here counts as ``other``.
KERNEL_PLANS = ("dense", "tiled", "streaming", "spectral", "other")

#: Every per-layer metric with its unit, in report order.
METRICS = (
    ("kernel.busy_s", "s"),
    ("kernel.calls", "count"),
    ("kernel.pairs", "count"),
    *((f"kernel.plan.{plan}", "count") for plan in KERNEL_PLANS),
    ("sample.busy_s", "s"),
    ("sample.shots", "count"),
    ("ideal.busy_s", "s"),
    ("ideal.calls", "count"),
    ("transpile.busy_s", "s"),
    ("transpile.calls", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_bytes", "bytes"),
    ("reduce.busy_s", "s"),
    ("reduce.merges", "count"),
    ("transport.busy_s", "s"),
    ("transport.compute_s", "s"),
    ("transport.chunks", "count"),
    ("transport.leases_reissued", "count"),
    ("transport.useful_ratio", "ratio"),
    ("post.busy_s", "s"),
    ("post.calls", "count"),
    ("engine.self_s", "s"),
    ("engine.jobs", "count"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever a ``repro`` module binds ``original``.

    Returns the ``(module, name, original)`` patches for :func:`restore`.
    """
    patches = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None)
        if not isinstance(name, str) or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                patches.append((module, attribute, original))
    if not patches:
        raise RuntimeError(f"entry point {original.__qualname__} is not bound anywhere")
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


class Recorder:
    """Spans and counts of one traced iteration."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, float] = {}
        #: Sampling seconds the broker's workers reported for chunks they ran.
        self.remote_sample_s = 0.0
        #: ``(layer, start, duration, parent span index or None)``.
        self.spans: list[tuple | None] = []
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, layer: str):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        self.spans.append(None)
        frame = [index, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            self.spans[index] = (layer, start, duration, parent)
            self.self_s[layer] += duration - frame[1]
            if self._open:
                self._open[-1][1] += duration

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points; undo with :meth:`uninstall`."""
        from repro.backends import available_backends, get_backend
        from repro.baselines.readout_mitigation import mitigate_readout
        from repro.core.hammer import neighborhood_scores
        from repro.engine.broker import BrokerExecutor
        from repro.engine.cache import ExecutionCache
        from repro.engine.engine import ExecutionEngine
        from repro.engine.reduction import ReductionTree
        from repro.metrics.fidelity import inference_strength, probability_of_successful_trial
        from repro.quantum.sampler import sample_bitflip_batch, sample_bitflip_chunk
        from repro.quantum.transpiler import transpile

        try:
            self._function(transpile, "transpile", lambda call, _: self.count("transpile.calls"))
            backends = {type(get_backend(name)) for name in available_backends()}
            owners = {
                next(cls for cls in backend.__mro__ if "ideal_distribution" in vars(cls))
                for backend in backends
            }
            for owner in owners:
                self._method(
                    owner, "ideal_distribution", "ideal",
                    lambda call, _: self.count("ideal.calls"),
                )
            self._function(
                sample_bitflip_batch, "sample",
                lambda call, _: self.count(
                    "sample.shots", sum(shots for shots, _ in call["requests"])
                ),
            )
            self._function(
                sample_bitflip_chunk, "sample",
                lambda call, _: self.count("sample.shots", call["shots"]),
            )
            self._method(ExecutionCache, "get", "cache.get", self._after_cache_get)
            self._method(ExecutionCache, "put", "cache.put")
            self._function(neighborhood_scores, "kernel", self._after_kernel)
            for function in (mitigate_readout, probability_of_successful_trial, inference_strength):
                self._function(function, "post", lambda call, _: self.count("post.calls"))
            self._replace(ReductionTree, "add", self._reduce_add)
            self._replace(BrokerExecutor, "run", self._transport_stream)
            self._replace(ExecutionEngine, "run", self._engine_run)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()

    def _replace(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def _method(self, owner, name: str, layer: str, after=None) -> None:
        self._replace(owner, name, lambda original: self._timed(original, layer, after))

    def _function(self, original, layer: str, after=None) -> None:
        self._patches.extend(rebind(original, self._timed(original, layer, after)))

    def _timed(self, original, layer: str, after=None):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            with self.span(layer):
                result = original(*args, **kwargs)
                if after is not None:
                    after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Entry points that need more than a plain span
    # ------------------------------------------------------------------
    def _after_cache_get(self, call, result) -> None:
        self.count("cache.gets")
        if result is not None:
            self.count("cache.hits")

    def _after_kernel(self, call, result) -> None:
        support = call["distribution"].num_outcomes
        plan = result.kernel if result.kernel in KERNEL_PLANS else "other"
        self.count("kernel.calls")
        self.count("kernel.pairs", support * support)
        self.count(f"kernel.plan.{plan}")

    def _reduce_add(self, original):
        @functools.wraps(original)
        def add(tree, index, words, counts):
            if threading.get_ident() != self._thread:
                return original(tree, index, words, counts)
            with self.span("reduce"):
                merges = tree.stats().merges
                original(tree, index, words, counts)
                self.count("reduce.adds")
                self.count("reduce.merges", tree.stats().merges - merges)

        return add

    def _transport_stream(self, original):
        """Time the engine inside the broker executor's result stream."""

        @functools.wraps(original)
        def run(executor, fn, tasks):
            stream = original(executor, fn, tasks)
            try:
                while True:
                    with self.span("transport"):
                        try:
                            item = next(stream)
                        except StopIteration:
                            return
                    self.count("transport.chunks")
                    yield item
            finally:
                stream.close()

        return run

    def _engine_run(self, original):
        @functools.wraps(original)
        def run(engine, jobs, seed=0):
            if threading.get_ident() != self._thread:
                return original(engine, jobs, seed)
            jobs = list(jobs)
            delivered = self.counts.get("transport.chunks", 0)
            with self.span("engine"):
                results = original(engine, jobs, seed)
                self.count("engine.jobs", len(jobs))
                if self.counts.get("transport.chunks", 0) > delivered:
                    # Chunks crossed the transport, so the sharded jobs were
                    # sampled by the workers: take the seconds they reported.
                    for job, result in zip(jobs, results):
                        if not result.sample_cache_hit and job.shots > engine.sample_shard_shots:
                            self.remote_sample_s += result.sample_seconds
                            self.count("sample.shots", job.shots)
            return results

        return run

    # ------------------------------------------------------------------
    def totals(self, wall_s: float, counts: dict, disk_bytes: int) -> dict:
        """This iteration as a totals record (see :func:`merge_totals`)."""
        merged = dict(self.counts)
        for name, value in counts.items():
            merged[name] = merged.get(name, 0) + value
        return {
            "self_s": dict(self.self_s),
            "counts": merged,
            "remote_sample_s": self.remote_sample_s,
            "wall_s": wall_s,
            "iterations": 1,
            "disk_bytes": disk_bytes,
        }

    def trace_events(self, pid: int) -> list[dict]:
        """The spans as Chrome trace events (microseconds)."""
        return [
            {
                "name": layer, "cat": "perfbench", "ph": "X", "pid": pid, "tid": 0,
                "ts": start * 1e6, "dur": duration * 1e6, "args": {"parent": parent},
            }
            for layer, start, duration, parent in self.spans
        ]


def merge_totals(items: list[dict]) -> dict:
    """Sum totals records; ``disk_bytes`` takes the largest."""
    merged = {
        "self_s": dict.fromkeys(LAYERS, 0.0), "counts": {}, "remote_sample_s": 0.0,
        "wall_s": 0.0, "iterations": 0, "disk_bytes": 0,
    }
    for item in items:
        for layer in LAYERS:
            merged["self_s"][layer] += item["self_s"][layer]
        for name, value in item["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for key in ("remote_sample_s", "wall_s", "iterations"):
            merged[key] += item[key]
        merged["disk_bytes"] = max(merged["disk_bytes"], item["disk_bytes"])
    return merged


def layer_metrics(totals: dict, untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Every per-layer metric, per traced iteration."""
    n = totals["iterations"]
    self_s = {layer: seconds / n for layer, seconds in totals["self_s"].items()}
    counts = totals["counts"]

    def per(name: str) -> float:
        return counts.get(name, 0) / n

    remote = totals["remote_sample_s"] / n
    wall = totals["wall_s"] / n
    gets, chunks = per("cache.gets"), per("transport.chunks")
    return {
        "kernel.busy_s": self_s["kernel"],
        "kernel.calls": per("kernel.calls"),
        "kernel.pairs": per("kernel.pairs"),
        **{f"kernel.plan.{plan}": per(f"kernel.plan.{plan}") for plan in KERNEL_PLANS},
        "sample.busy_s": self_s["sample"] + remote,
        "sample.shots": per("sample.shots"),
        "ideal.busy_s": self_s["ideal"],
        "ideal.calls": per("ideal.calls"),
        "transpile.busy_s": self_s["transpile"],
        "transpile.calls": per("transpile.calls"),
        "cache.get_s": self_s["cache.get"],
        "cache.put_s": self_s["cache.put"],
        "cache.hit_ratio": per("cache.hits") / gets if gets else 0.0,
        "cache.disk_bytes": totals["disk_bytes"],
        "reduce.busy_s": self_s["reduce"],
        "reduce.merges": per("reduce.merges"),
        "transport.busy_s": self_s["transport"],
        "transport.compute_s": remote,
        "transport.chunks": chunks,
        "transport.leases_reissued": per("transport.leases_reissued"),
        "transport.useful_ratio": per("reduce.adds") / chunks if chunks else 0.0,
        "post.busy_s": self_s["post"],
        "post.calls": per("post.calls"),
        "engine.self_s": self_s["engine"],
        "engine.jobs": per("engine.jobs"),
        "unattributed_s": wall - sum(self_s.values()),
        "trace.wall_s": wall,
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
    }
