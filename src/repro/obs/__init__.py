"""Runtime observability: spans, metrics, structured logs, phase timings.

The layer has four pieces, each usable alone but designed to activate
together under one :class:`~repro.obs.observe.Observation`:

:mod:`repro.obs.trace`
    ``trace_span(name, **attrs)`` nested timed regions into a per-process
    ring buffer, exportable as Chrome trace-event JSON.
:mod:`repro.obs.metrics`
    Named counters / gauges / histograms with snapshot + deterministic
    merge semantics across worker processes, activated by nestable
    scopes (:class:`~repro.obs.metrics.MetricsScope`).  It is the one store of a
    run's account: the engine counts into a scope per ``run`` and
    ``hammer`` call, and ``report.meta``, ``repro profile`` and the trace
    read its snapshots.
:mod:`repro.obs.logs`
    A structured logger (``REPRO_LOG=text|json|off``) whose records land
    in run artifacts, replacing stderr-only warn-once paths.
:mod:`repro.obs.phases`
    Per-phase timing: the engine's transpile / ideal / sample phases and
    the HAMMER kernel each record a ``phase.<name>`` histogram sample and
    span.

Spans and logs are opt-in: every span helper is a single ``is None`` check
until an observation activates the recorder.  Metrics count inside any
scope.  Neither changes what is computed, so experiment rows are
bit-identical with tracing on or off.
"""

from repro.obs.logs import ENV_LOG, LOG_MODES, get_logger, log_mode, log_records, reset_logs
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    MetricsScope,
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
from repro.obs.phases import PHASE_ORDER, phase_totals, record_phase_seconds
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
    "MetricsScope",
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
    "phase_totals",
    "record_phase_seconds",
    "DEFAULT_MAX_EVENTS",
    "TraceRecorder",
    "active_recorder",
    "record_span",
    "trace_span",
    "tracing_active",
]
