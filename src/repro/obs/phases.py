"""Per-phase timing for ``repro profile``, ``meta["obs"]`` and traces.

The pipeline's phase boundaries live in different layers — transpile / ideal /
sample inside the execution engine, the HAMMER kernel inside ``repro.core``
— so any layer reports a timed region with :func:`record_phase_seconds`.
Each call lands one sample in the active metrics registry's
``phase.<name>`` latency histogram and one ``phase.<name>`` span in the
active trace recorder; with neither active it costs two ``is None`` checks.

``repro profile`` opens a :class:`~repro.obs.metrics.MetricsScope` around
each repeat and reads the phases back with :func:`phase_totals`::

    with MetricsScope() as scope:
        run_bv_study(config, engine=engine)
    phase_totals(scope.registry)   # {"transpile": (seconds, calls), ...}
"""

from __future__ import annotations

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry

__all__ = ["PHASE_ORDER", "phase_totals", "record_phase_seconds"]

#: Canonical phase order for reports; unknown phases sort after these.
PHASE_ORDER = ("transpile", "ideal", "sample", "hammer")


def record_phase_seconds(phase: str, elapsed: float) -> None:
    """Report one timed region as a ``phase.<name>`` histogram sample and span."""
    _metrics.observe_hist(f"phase.{phase}", elapsed)
    _trace.record_span(f"phase.{phase}", elapsed)


def phase_totals(registry: MetricsRegistry) -> dict[str, tuple[float, int]]:
    """Each phase's ``(seconds, calls)`` in ``registry``, in pipeline order.

    Phases outside :data:`PHASE_ORDER` follow alphabetically.
    """
    found = {
        name[len("phase."):]: histogram
        for name, histogram in registry.histograms.items()
        if name.startswith("phase.")
    }
    order = [phase for phase in PHASE_ORDER if phase in found]
    order += sorted(set(found) - set(PHASE_ORDER))
    return {phase: (found[phase].total, found[phase].count) for phase in order}
