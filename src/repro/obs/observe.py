"""Activating observation, and carrying it across process boundaries.

:class:`Observation` is the front door of the layer: a context manager
that installs a fresh :class:`~repro.obs.trace.TraceRecorder` as this
thread's active recorder and opens an outer
:class:`~repro.obs.metrics.MetricsScope` for the enclosed run, then
restores the previous state on exit::

    with Observation() as obs:
        report = run_bv_study(config, engine=engine)
    obs.chrome_trace()   # Chrome trace-event JSON object
    obs.meta()           # the ``report.meta["obs"]`` block

The engine counts with or without an observation (each ``run`` and
``hammer`` call is a metrics scope of its own); an observation adds spans
and logs, and its registry receives the engine's counts through the same
scope fold, once.  An observation belongs to the thread that opened it, as
the recorder and registry it installs and the log records it reads do:
another thread's work is not observed by it, and that thread may open an
observation of its own.
Observations do not nest on one thread — a second activation raises
:class:`~repro.exceptions.ObservabilityError` — which keeps span
attribution unambiguous.

**Worker tasks.**  A ``ProcessPoolExecutor`` or broker worker starts with
no registry (the globals do not pickle across ``fork``/``spawn`` usefully,
and a long-lived worker serves many tasks).  The engine instead wraps each
task function with :func:`observed_call` via ``functools.partial`` —
picklable because both the wrapper and the task function are module-level.
The wrapper counts the call into a *task-scoped* registry (and, when the
parent is tracing, records its spans and logs), then ships ``(result,
payload)`` back; the parent folds the payload into its active registry with
:func:`absorb_payload`.  Because counters count work units and merge by
addition, the folded metrics are deterministic for any task→worker
placement and completion order.
"""

from __future__ import annotations

import os
import threading

from repro.exceptions import ObservabilityError
from repro.obs import logs as _logs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, MetricsScope
from repro.obs.trace import DEFAULT_MAX_EVENTS, TraceRecorder

__all__ = [
    "Observation",
    "observation_active",
    "current_observation",
    "observed_call",
    "absorb_payload",
]


class _ActiveObservation(threading.local):
    """The active observation, one per thread (``None`` outside one)."""

    observation: "Observation | None" = None


_active = _ActiveObservation()


def observation_active() -> bool:
    """True when an :class:`Observation` is active on this thread."""
    return _active.observation is not None


def current_observation() -> "Observation | None":
    """This thread's active observation, or ``None``."""
    return _active.observation


class Observation:
    """One observed run: an active trace recorder plus an outer metrics scope."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.recorder = TraceRecorder(max_events=max_events)
        self._scope = MetricsScope()
        self.registry = self._scope.registry
        self._log_start = 0
        self._thread: int | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Observation":
        if _active.observation is not None:
            raise ObservabilityError("an observation is already active on this thread")
        _active.observation = self
        self._log_start = _logs.current_sequence()
        self._thread = threading.get_ident()
        _trace._set_active(self.recorder)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        _trace._set_active(None)
        self._scope.__exit__(*exc_info)
        _active.observation = None

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The buffered spans as a Chrome trace-event JSON object."""
        return self.recorder.chrome_trace()

    def log_records(self) -> list[dict]:
        """Structured log records this thread emitted (or absorbed) during the run."""
        return _logs.records_since(self._log_start, self._thread)

    def meta(self) -> dict:
        """The ``report.meta["obs"]`` block: metrics + span/log summaries.

        The metrics snapshot's ``counters`` section is the deterministic
        part — a ``--jobs 4`` run's merged counters equal a serial run's.
        """
        return {
            "metrics": self.registry.snapshot(),
            "spans": {
                "events": self.recorder.num_events,
                "dropped": self.recorder.dropped,
                "names": sorted(self.recorder.span_names()),
            },
            "log": [
                {key: record[key] for key in ("level", "logger", "event", "message", "fields")}
                for record in self.log_records()
            ],
        }


def observed_call(fn, task, traced: bool = True):
    """Run ``fn(task)`` against a task-scoped registry (worker side).

    Module-level so ``functools.partial(observed_call, fn, traced=...)``
    pickles into pool and broker workers.  Saves whatever registry and
    recorder this thread had, installs task-scoped ones, and restores the
    saved state after the call — so an in-process "worker" (the serial
    executor, a broker's local fallback, a broker worker's thread) neither
    clobbers nor double-counts into the parent's live scope, and spans the
    parent's own thread records meanwhile stay the parent's.  Returns
    ``(result, payload)``: the payload carries the task's metrics snapshot
    and, when ``traced``, its span events (absolute wall-clock timestamps,
    this process's pid) and the structured log records it produced.
    """
    registry = MetricsRegistry()
    recorder = TraceRecorder() if traced else None
    log_start = _logs.current_sequence()
    saved_recorder = _trace._set_active(recorder)
    saved_registry = _metrics._set_active(registry)
    try:
        result = fn(task)
    finally:
        _trace._set_active(saved_recorder)
        _metrics._set_active(saved_registry)
    payload = {"metrics": registry.snapshot()}
    if recorder is not None:
        payload["events"] = recorder.events()
        payload["logs"] = _logs.records_since(log_start, threading.get_ident())
    return result, payload


def absorb_payload(payload: dict) -> None:
    """Fold one task's payload into the active registry and recorder.

    Metrics go to the active registry (the engine's run scope), spans to
    the active trace recorder and another process's log records to this
    process's log; each is a no-op when nothing receives it.
    """
    if not isinstance(payload, dict):
        raise ObservabilityError(
            f"worker observability payload must be a dict, got {type(payload).__name__}"
        )
    registry = _metrics.active_registry()
    if registry is not None:
        registry.merge_snapshot(payload["metrics"])
    recorder = _trace.active_recorder()
    events = payload.get("events")
    if events and recorder is not None:
        recorder.absorb(events)
    # A task that ran on this very thread logged into its account already;
    # another process's or another thread's records join it here.
    here = (os.getpid(), threading.get_ident())
    records = [record for record in payload.get("logs", ()) if (record["pid"], record["thread"]) != here]
    if records:
        _logs.absorb_records(records)
