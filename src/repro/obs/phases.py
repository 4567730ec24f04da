"""Per-phase timing collection for ``repro profile`` and the perf scripts.

The pipeline's phase boundaries live in different layers — transpile / ideal /
sample inside the execution engine, the HAMMER kernel inside ``repro.core``
— so the collector is a process-global that any layer can report into with
:func:`record_phase_seconds`.  When no collector is active (the default) the
call is a single ``is None`` check, so instrumented hot paths pay nothing.

``repro profile`` and ``benchmarks/perf_profile.py`` activate a collector
around one experiment run::

    with collect_phases() as phases:
        run_bv_study(config, engine=engine)
    phases.as_rows()   # [{"phase": "ideal", "seconds": ..., "calls": ...}, ...]

Collectors do not nest: activating a new one while another is active raises,
which keeps attribution unambiguous.

Since PR 8 this module is part of the observability layer: every
:func:`record_phase_seconds` call *also* feeds a ``phase.<name>`` latency
histogram in the active metrics registry (when one is active), so phase
timing shows up in ``report.meta["obs"]`` without a separate collector.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["PHASE_ORDER", "PhaseTimings", "collect_phases", "record_phase_seconds"]

#: Canonical phase order for reports; unknown phases sort after these.
PHASE_ORDER = ("transpile", "ideal", "sample", "hammer")


@dataclass
class PhaseTimings:
    """Accumulated wall seconds and call counts per pipeline phase."""

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def record(self, phase: str, elapsed: float) -> None:
        """Fold one timed region into the phase's totals."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + float(elapsed)
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def total_seconds(self) -> float:
        """Sum over every recorded phase."""
        return float(sum(self.seconds.values()))

    def ordered_phases(self) -> list[str]:
        """Phases in canonical pipeline order, extras alphabetically after."""
        known = [phase for phase in PHASE_ORDER if phase in self.seconds]
        extras = sorted(set(self.seconds) - set(PHASE_ORDER))
        return known + extras

    def as_rows(self) -> list[dict[str, object]]:
        """One row per phase (pipeline order) for report tables / JSON."""
        total = self.total_seconds()
        return [
            {
                "phase": phase,
                "seconds": self.seconds[phase],
                "calls": self.calls[phase],
                "share": self.seconds[phase] / total if total > 0 else 0.0,
            }
            for phase in self.ordered_phases()
        ]


_active: PhaseTimings | None = None


def record_phase_seconds(phase: str, elapsed: float) -> None:
    """Report a timed region to the active collector (no-op when inactive).

    Also lands one sample in the ``phase.<name>`` latency histogram when a
    metrics registry is active, and one ``phase.<name>`` span when tracing
    is, so phase timing reaches ``meta["obs"]`` and exported traces.
    """
    if _active is not None:
        _active.record(phase, elapsed)
    _metrics.observe_hist(f"phase.{phase}", elapsed)
    _trace.record_span(f"phase.{phase}", elapsed)


@contextmanager
def collect_phases():
    """Activate a fresh :class:`PhaseTimings` collector for the enclosed run."""
    global _active
    if _active is not None:
        raise ExperimentError("a phase-timing collector is already active")
    collector = PhaseTimings()
    _active = collector
    try:
        yield collector
    finally:
        _active = None
