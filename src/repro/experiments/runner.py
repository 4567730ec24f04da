"""Shared helpers for the experiment modules.

Every experiment module produces a list of flat row dictionaries (one per
data point of the corresponding paper figure/table).  The helpers here format
those rows for the CLI / benchmark output and compute the summary statistics
(geometric-mean improvements) the paper quotes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ExperimentError
from repro.metrics.fidelity import geometric_mean

__all__ = [
    "ExperimentReport",
    "attach_engine_meta",
    "format_table",
    "gmean_of_ratios",
    "trace_pipeline",
]


def trace_pipeline(pipeline, distribution) -> tuple[Any, list[dict[str, Any]]]:
    """Run a post-processing pipeline, tracking the packed view per stage.

    The input's packed view is materialised up front and then flows through
    the stage chain (each built-in stage shares or slices it — see
    :mod:`repro.core.pipeline`), so the returned rows record, per stage, the
    support size and whether the output arrived with its packing already
    attached (``packed_cached``) rather than deferred to the next consumer.

    Returns ``(final_distribution, rows)``; the rows slot directly into
    :class:`ExperimentReport`.
    """
    distribution.packed()
    rows: list[dict[str, Any]] = [
        {
            "stage": "input",
            "num_outcomes": distribution.num_outcomes,
            "packed_cached": True,
        }
    ]
    trace = pipeline.apply_with_trace(distribution)
    for stage_name, staged in trace:
        rows.append(
            {
                "stage": stage_name,
                "num_outcomes": staged.num_outcomes,
                "packed_cached": staged.has_packed_view(),
            }
        )
    return trace[-1][1], rows


def format_table(rows: Sequence[Mapping[str, Any]], float_format: str = "{:.4f}") -> str:
    """Render rows as a fixed-width text table (used by the CLI and benches)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: list[list[str]] = []
    for row in rows:
        rendered_row = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered_row.append(float_format.format(value))
            else:
                rendered_row.append(str(value))
        rendered.append(rendered_row)
    widths = [max(len(column), max(len(r[i]) for r in rendered)) for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered)
    return f"{header}\n{separator}\n{body}"


def gmean_of_ratios(rows: Iterable[Mapping[str, Any]], ratio_key: str) -> float:
    """Geometric mean of a ratio column across experiment rows."""
    values = [float(row[ratio_key]) for row in rows if ratio_key in row]
    if not values:
        raise ExperimentError(f"no rows contain the ratio column {ratio_key!r}")
    return geometric_mean(values)


def _json_default(value: Any) -> Any:
    """Coerce the numpy scalars/arrays that land in experiment rows to JSON."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"value of type {type(value).__name__} is not JSON serialisable")


def _json_sanitize(value: Any) -> Any:
    """Replace non-finite floats with ``None`` so the artifact is strict JSON.

    ``inf`` is a legitimate row value (e.g. IST improvement over a zero
    baseline) but ``json.dumps`` would emit the non-standard ``Infinity``
    token, which strict parsers (jq, JavaScript) reject.
    """
    if isinstance(value, dict):
        return {key: _json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_json_sanitize(item) for item in value.tolist()]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


@dataclass
class ExperimentReport:
    """A named experiment result: rows plus headline summary numbers.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure8_bv_improvement"``).
    rows:
        One flat dictionary per data point of the reproduced figure/table.
    summary:
        Headline scalars (e.g. ``{"gmean_pst_improvement": 1.41}``).
    meta:
        Run provenance that is not part of the reproduced figure — engine
        statistics (cache hits, timings, worker count), per-job trace rows,
        configuration echoes.  Serialised by :meth:`to_json`, omitted from
        :meth:`to_text`.
    """

    name: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        """Human-readable rendering: summary block followed by the row table."""
        lines = [f"== {self.name} =="]
        for key, value in self.summary.items():
            lines.append(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
        lines.append(format_table(self.rows))
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        """Machine-readable artifact: name, rows, summary and meta as JSON.

        Non-finite floats serialise as ``null`` (strict JSON has no
        ``Infinity``/``NaN`` tokens).
        """
        payload = _json_sanitize(
            {
                "name": self.name,
                "rows": self.rows,
                "summary": self.summary,
                "meta": self.meta,
            }
        )
        return json.dumps(payload, indent=indent, allow_nan=False, default=_json_default)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ExperimentError(f"invalid report JSON: {error}") from error
        if not isinstance(payload, dict) or "name" not in payload:
            raise ExperimentError("report JSON must be an object with a 'name' field")
        return cls(
            name=str(payload["name"]),
            rows=list(payload.get("rows", [])),
            summary=dict(payload.get("summary", {})),
            meta=dict(payload.get("meta", {})),
        )

    def summary_value(self, key: str) -> float:
        """Fetch one headline number, raising a clear error when missing."""
        if key not in self.summary:
            raise ExperimentError(f"report {self.name!r} has no summary value {key!r}")
        return self.summary[key]


def attach_engine_meta(report: ExperimentReport, engine, trace=None) -> ExperimentReport:
    """Record an engine's lifetime statistics (and optional per-job trace) on a report.

    The lifetime totals are used rather than the last batch's: studies like
    fig12 or headline push several batches through one shared engine, and the
    report should account for the whole sweep (consistent with the cache's
    cumulative hit/miss counters, which ride along).

    ``trace`` accepts the :class:`~repro.engine.jobs.JobResult` list of a
    run; each result contributes one ``as_trace_row`` dict, giving the JSON
    artifact the same per-stage visibility :func:`trace_pipeline` rows give
    the post-processing pipeline.

    A ``planner`` block records how the sweep was scheduled: the engine's
    shard-layout and shard-executor decisions with their sources
    (``override`` or ``heuristic``), the reduction-tree totals and, when the
    shard executor reports any, its transport provenance — so every JSON
    artifact shows which path produced it.  Kernel plans and backends are
    counted by the ``kernel.plan.*`` metrics and ``stabilizer_jobs``.

    When an :class:`~repro.obs.observe.Observation` is active, an ``obs``
    block (metrics snapshot, span summary, structured log records) rides
    along too, so traced/metered runs are diagnosable from the artifact
    alone.
    """
    from repro.obs.observe import current_observation

    stats = getattr(engine, "lifetime_stats", None)
    if stats is not None and stats.num_jobs > 0:
        engine_meta = stats.as_dict()
        engine_meta.update(engine.cache.stats())
        report.meta["engine"] = engine_meta
        report.meta["planner"] = {
            "engine": {
                kind: dict(counts)
                for kind, counts in sorted(stats.planner_decisions.items())
            },
            "reduction": {
                "merges": stats.reduction_merges,
                "tree_depth": stats.reduction_tree_depth,
                "peak_live_segments": stats.reduction_peak_live_segments,
                "merge_seconds": stats.merge_seconds,
                "duplicate_chunks_dropped": stats.duplicate_chunks_dropped,
            },
        }
        if stats.transport:
            # Networked and fault-injecting executors only (socket, broker,
            # fault injector): chunk counts, retries, re-placements, leases
            # and injected-fault tallies.
            report.meta["planner"]["transport"] = stats.transport
    observation = current_observation()
    if observation is not None:
        report.meta["obs"] = observation.meta()
    if trace is not None:
        report.meta["jobs"] = [result.as_trace_row() for result in trace]
    return report
