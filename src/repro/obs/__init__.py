"""Runtime observability: spans, metrics, structured logs, phase timings.

The layer has four pieces, each usable alone but designed to activate
together under one :class:`~repro.obs.observe.Observation`:

:mod:`repro.obs.trace`
    ``trace_span(name, **attrs)`` nested timed regions into a per-process
    ring buffer, exportable as Chrome trace-event JSON.
:mod:`repro.obs.metrics`
    Named counters / gauges / histograms with snapshot + deterministic
    merge semantics across worker processes.
:mod:`repro.obs.logs`
    A structured logger (``REPRO_LOG=text|json|off``) whose records land
    in run artifacts, replacing stderr-only warn-once paths.
:mod:`repro.obs.phases`
    The per-phase timing collector (the engine's transpile / ideal /
    sample phases and the HAMMER kernel report into it).

Everything is disabled by default; every instrumentation helper is a
single ``is None`` check until an observation activates the globals, so
experiment rows are bit-identical with tracing on or off.
"""

from repro.obs.logs import ENV_LOG, LOG_MODES, get_logger, log_mode, log_records, reset_logs
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter_add,
    gauge_max,
    gauge_set,
    metrics_active,
    observe_hist,
)
from repro.obs.observe import (
    Observation,
    absorb_payload,
    current_observation,
    observation_active,
    observed_call,
)
from repro.obs.phases import PHASE_ORDER, PhaseTimings, collect_phases, record_phase_seconds
from repro.obs.trace import (
    DEFAULT_MAX_EVENTS,
    TraceRecorder,
    active_recorder,
    record_span,
    trace_span,
    tracing_active,
)

__all__ = [
    "ENV_LOG",
    "LOG_MODES",
    "get_logger",
    "log_mode",
    "log_records",
    "reset_logs",
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "counter_add",
    "gauge_max",
    "gauge_set",
    "metrics_active",
    "observe_hist",
    "Observation",
    "absorb_payload",
    "current_observation",
    "observation_active",
    "observed_call",
    "PHASE_ORDER",
    "PhaseTimings",
    "collect_phases",
    "record_phase_seconds",
    "DEFAULT_MAX_EVENTS",
    "TraceRecorder",
    "active_recorder",
    "record_span",
    "trace_span",
    "tracing_active",
]
