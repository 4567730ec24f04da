"""Span tracing: nested timed regions, a per-process ring buffer, Chrome export.

A *span* is one timed region of the pipeline — an engine phase, a shard
chunk, a reduction merge, a kernel invocation — opened with
:func:`trace_span`::

    with trace_span("kernel.hammer", support=packed.num_outcomes) as span:
        ...
        span.set(plan=plan)          # attrs discovered mid-span

Spans nest naturally: each thread keeps a stack, so a span opened inside
another records its depth and the viewer reconstructs the hierarchy from
time containment.  Every completed span lands in the active
:class:`TraceRecorder`'s bounded ring buffer as one *complete event*
(Chrome trace-event ``"ph": "X"``) carrying wall-clock start, duration,
process id, thread id and attributes.

**Disabled cost.**  Tracing is off by default: :func:`trace_span` then
performs a single ``is None`` check on this thread's recorder slot and
returns a shared no-op span, so instrumented hot paths pay (almost)
nothing.  Sites hot enough to care about the kwargs dict can guard on
:func:`tracing_active` first.

**Threads.**  The active recorder is per thread, like the active metrics
registry: an :class:`~repro.obs.observe.Observation` traces the thread
that opened it, and a task-scoped recorder installed on another thread
(an in-process broker worker's) cannot capture that thread's spans.

**Multiprocessing.**  Each process records into its own buffer; worker
processes export their events (absolute wall-clock timestamps, their own
pid) through :func:`repro.obs.observe.observed_call` and the parent
absorbs them with :meth:`TraceRecorder.absorb`, so one exported trace
shows every process on a shared timeline.

**Export.**  :meth:`TraceRecorder.chrome_trace` renders the buffer as
Chrome trace-event JSON (the ``{"traceEvents": [...]}`` object form),
loadable in ``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "TraceRecorder",
    "tracing_active",
    "active_recorder",
    "trace_span",
    "record_span",
]

#: Ring-buffer capacity of a recorder unless the caller picks another;
#: beyond it the *oldest* events are dropped (and counted) so a runaway
#: sweep degrades to a truncated trace, never to unbounded memory.
DEFAULT_MAX_EVENTS = 200_000


class TraceRecorder:
    """Bounded per-process buffer of completed span events.

    Events are plain dicts, already in (nearly) Chrome trace-event shape:
    ``name`` / ``cat`` (the dotted prefix of the name) / ``pid`` / ``tid``
    / ``args`` / ``dur_us``, plus ``wall`` — the absolute wall-clock start
    in seconds, converted to the relative ``ts`` microseconds at export so
    events absorbed from other processes align on one timeline.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = int(max_events)
        self._events: deque[dict] = deque(maxlen=self.max_events)
        self.dropped = 0
        self._local = threading.local()
        #: Wall-clock second the recorder was created: the trace epoch every
        #: exported ``ts`` is relative to.
        self.epoch = time.time()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def record(self, event: dict) -> None:
        """Append one completed event, dropping the oldest past capacity."""
        if len(self._events) == self.max_events:
            self.dropped += 1
        self._events.append(event)

    def absorb(self, events: list[dict]) -> None:
        """Fold events exported by another process (worker payloads) in."""
        for event in events:
            self.record(event)

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self._events)

    def events(self) -> list[dict]:
        """The buffered events, oldest first (internal representation)."""
        return list(self._events)

    def span_names(self) -> set[str]:
        return {event["name"] for event in self._events}

    def chrome_trace(self) -> dict:
        """Render the buffer as a Chrome trace-event JSON object.

        Complete (``"ph": "X"``) events carry microsecond ``ts`` relative
        to the recorder's epoch plus ``dur``; one metadata (``"ph": "M"``)
        ``process_name`` event is emitted per distinct pid so viewers label
        worker processes.
        """
        trace_events: list[dict] = []
        seen_pids: set[int] = set()
        root_pid = os.getpid()
        for event in self._events:
            pid = event["pid"]
            if pid not in seen_pids:
                seen_pids.add(pid)
                role = "repro" if pid == root_pid else "repro-worker"
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"{role} (pid {pid})"},
                    }
                )
            trace_events.append(
                {
                    "name": event["name"],
                    "cat": event["cat"],
                    "ph": "X",
                    "ts": max(0.0, (event["wall"] - self.epoch) * 1e6),
                    "dur": event["dur_us"],
                    "pid": pid,
                    "tid": event["tid"],
                    "args": event["args"],
                }
            )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped,
            },
        }


class _ActiveRecorder(threading.local):
    """The active recorder, one per thread.

    ``None`` (the default) disables tracing on that thread:
    :func:`trace_span` then costs one ``is None`` check.
    """

    recorder: TraceRecorder | None = None


_active = _ActiveRecorder()


def tracing_active() -> bool:
    """True when a recorder is active on this thread."""
    return _active.recorder is not None


def active_recorder() -> TraceRecorder | None:
    """This thread's active recorder, or ``None`` when tracing is disabled."""
    return _active.recorder


def _set_active(recorder: TraceRecorder | None) -> TraceRecorder | None:
    """Install ``recorder`` as this thread's active one, returning the previous.

    Only :mod:`repro.obs.observe` calls this (observation contexts and the
    worker-side save/swap/restore); it is not part of the public surface.
    """
    previous = _active.recorder
    _active.recorder = recorder
    return previous


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        """Discard late attributes (mirror of :meth:`_Span.set`)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a complete event into its recorder on exit."""

    __slots__ = ("_recorder", "_name", "_args", "_wall", "_start", "_depth")

    def __init__(self, recorder: TraceRecorder, name: str, args: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack()
        self._depth = len(stack)
        stack.append(self._name)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self._args.update(attrs)

    def __exit__(self, *exc_info) -> None:
        duration_us = (time.perf_counter() - self._start) * 1e6
        stack = self._recorder._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        args = self._args
        args["depth"] = self._depth
        self._recorder.record(
            {
                "name": self._name,
                "cat": self._name.split(".", 1)[0],
                "wall": self._wall,
                "dur_us": duration_us,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": args,
            }
        )


def record_span(name: str, duration_seconds: float, wall_start: float | None = None, **attrs):
    """Record an already-measured region as one completed span.

    For sites that time a region themselves (the engine's phase timers):
    no re-nesting of the surrounding code, just one call next to the
    existing ``elapsed`` computation.  ``wall_start`` defaults to "now
    minus the duration".  No-op while tracing is disabled.  Chrome viewers
    reconstruct nesting from time containment, so post-hoc spans still
    enclose the live spans recorded inside their region.
    """
    recorder = _active.recorder
    if recorder is None:
        return
    if wall_start is None:
        wall_start = time.time() - duration_seconds
    attrs["depth"] = len(recorder._stack())
    recorder.record(
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "wall": wall_start,
            "dur_us": duration_seconds * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": attrs,
        }
    )


def trace_span(name: str, **attrs):
    """Open a span named ``name`` with the given attributes.

    Returns a context manager.  While tracing is disabled (the default)
    this is one ``is None`` check on this thread's slot and the shared
    no-op span — safe on hot paths.  Span names are dotted, coarsest
    category first (``engine.phase.sample``, ``executor.shard``,
    ``reduction.merge``, ``kernel.hammer``, ``cache.get``); the prefix
    before the first dot becomes the Chrome event category.
    """
    recorder = _active.recorder
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, attrs)
