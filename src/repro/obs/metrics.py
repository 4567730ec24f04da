"""Named counters, gauges and latency histograms with snapshot/merge semantics.

The registry is the metrics twin of the span recorder in
:mod:`repro.obs.trace`, and the one store of a run's account: instrumented
layers report into the *active* registry (one per thread) through
module-level helpers —

:func:`counter_add`
    Monotonic totals of *work units* (cache hits per namespace, shots
    sampled, reduction merges, kernel-plan choices).  Counters must count
    work, never dispatches: a counter incremented once per *job sampled*
    merges to the same total whether the jobs ran in one process or four,
    which is what makes the merged metrics of a ``--jobs 4`` run exactly
    equal to a serial run's.
:func:`gauge_max` / :func:`gauge_set`
    Level measurements (peak in-flight shard chunks, reduction tree depth).
    Merging takes the maximum, so gauges are deterministic only when the
    underlying level is; they are reported separately from counters.
:func:`observe_hist`
    Latency samples (per-phase seconds) into fixed log-scaled buckets.
    Bucket *boundaries* are fixed so histograms merge by adding bucket
    counts; the values are wall times and therefore never expected to be
    identical across runs.

A :class:`MetricsScope` activates a fresh registry for the enclosed block
and, on exit, restores the previous one and folds itself into it.  Scopes
nest: every ``ExecutionEngine.run`` and ``ExecutionEngine.hammer`` call is
one (so the engine always counts), and an
:class:`~repro.obs.observe.Observation` or a ``repro profile`` repeat is an
outer one that the engine's scopes fold into, each count once.  Outside
any scope every helper is a no-op behind a single ``is None`` check.

Worker processes count into a task-scoped registry (installed around each
task by :func:`repro.obs.observe.observed_call`), export it with
:meth:`MetricsRegistry.snapshot`, and the parent folds the payload into its
active registry with :meth:`MetricsRegistry.merge_snapshot` — counter
addition is associative and commutative, so the fold is deterministic for
any completion order.
"""

from __future__ import annotations

import threading

from repro.exceptions import ObservabilityError

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "metrics_active",
    "active_registry",
    "counter_add",
    "gauge_max",
    "gauge_set",
    "observe_hist",
]

#: Upper bucket bounds (seconds) of every latency histogram: one decade per
#: bucket from 1 µs to 1000 s, plus an implicit overflow bucket.  Fixed
#: boundaries are what make histograms mergeable by bucket-count addition.
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(10.0**exp for exp in range(-6, 4))


class Histogram:
    """Log-bucketed samples with count/sum/min/max and additive merging."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = 0
        for bound in HISTOGRAM_BOUNDS:
            if value <= bound:
                break
            bucket += 1
        self.counts[bucket] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> dict:
        """JSON-safe state: fixed bucket labels -> counts, plus summaries."""
        buckets = {f"le:{bound:g}": count for bound, count in zip(HISTOGRAM_BOUNDS, self.counts)}
        buckets["le:inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        buckets = snapshot.get("buckets", {})
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            self.counts[index] += int(buckets.get(f"le:{bound:g}", 0))
        self.counts[-1] += int(buckets.get("le:inf", 0))
        self.count += int(snapshot.get("count", 0))
        self.total += float(snapshot.get("sum", 0.0))
        for key, fold in (("min", min), ("max", max)):
            value = snapshot.get(key)
            if value is None:
                continue
            current = getattr(self, key)
            setattr(self, key, float(value) if current is None else fold(current, float(value)))


class MetricsRegistry:
    """One process's (or one worker task's) named metrics."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter_add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        value = float(value)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe, key-sorted state — the worker export / report payload.

        The ``counters`` section is deterministic across worker counts (by
        the work-unit convention above); ``gauges`` and ``histograms``
        carry level / timing measurements and are not.
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].snapshot() for name in sorted(self.histograms)
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Deterministically fold another registry's :meth:`snapshot` in.

        Counters add, gauges take the maximum, histograms add bucket
        counts — all associative and commutative, so the merged state does
        not depend on the order worker payloads arrive.
        """
        if not isinstance(snapshot, dict):
            raise ObservabilityError(
                f"metrics snapshot must be a dict, got {type(snapshot).__name__}"
            )
        for name, value in snapshot.get("counters", {}).items():
            self.counter_add(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, state in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge_snapshot(state)

    def as_rows(self) -> list[dict]:
        """Flat rows (kind / name / value / count) for CLI metric tables.

        Every row carries the same keys — :func:`format_table` derives its
        columns from the first row, so ragged rows would drop columns.
        """
        rows: list[dict] = []
        for name in sorted(self.counters):
            rows.append(
                {"kind": "counter", "name": name, "value": self.counters[name], "count": ""}
            )
        for name in sorted(self.gauges):
            rows.append(
                {"kind": "gauge", "name": name, "value": self.gauges[name], "count": ""}
            )
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            rows.append(
                {
                    "kind": "histogram",
                    "name": name,
                    "value": histogram.total,
                    "count": histogram.count,
                }
            )
        return rows


class _ActiveRegistry(threading.local):
    """The active registry, one per thread.

    A scope counts the work of the thread that opened it (and the worker
    payloads that thread folds in), so a task-scoped registry installed on
    another thread — an in-process broker worker's — cannot swap out a
    run's.  ``None`` (the default, outside any scope) disables metrics:
    every helper below is then a single ``is None`` check.
    """

    registry: MetricsRegistry | None = None


_active = _ActiveRegistry()


def metrics_active() -> bool:
    """True when a registry is active on this thread."""
    return _active.registry is not None


def active_registry() -> MetricsRegistry | None:
    """This thread's active registry, or ``None`` when metrics are disabled."""
    return _active.registry


def _set_active(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as this thread's active one, returning the previous."""
    previous = _active.registry
    _active.registry = registry
    return previous


class MetricsScope:
    """A nestable metrics scope: a fresh registry for the enclosed block.

    Entering installs :attr:`registry` as the active registry.  Exiting
    restores the previous one, takes :attr:`snapshot` and folds it into the
    previous registry and into every registry in ``into`` — so work counted
    in a nested scope reaches each enclosing scope exactly once.
    """

    def __init__(self, *into: MetricsRegistry) -> None:
        self.registry = MetricsRegistry()
        self.snapshot: dict | None = None
        self._into = into
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> "MetricsScope":
        self._previous = _set_active(self.registry)
        return self

    def __exit__(self, *exc_info) -> None:
        _set_active(self._previous)
        self.snapshot = self.registry.snapshot()
        for target in (self._previous, *self._into):
            if target is not None:
                target.merge_snapshot(self.snapshot)


def counter_add(name: str, value: float = 1) -> None:
    """Add to a named counter (no-op while metrics are disabled)."""
    registry = _active.registry
    if registry is not None:
        registry.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a named gauge (no-op while metrics are disabled)."""
    registry = _active.registry
    if registry is not None:
        registry.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a named gauge to at least ``value`` (no-op while disabled)."""
    registry = _active.registry
    if registry is not None:
        registry.gauge_max(name, value)


def observe_hist(name: str, value: float) -> None:
    """Record one sample into a named histogram (no-op while disabled)."""
    registry = _active.registry
    if registry is not None:
        registry.observe(name, value)
