"""Output checks: every timed iteration against its seed's reference.

A reference is one iteration's outcome: per job, the shots its histogram
holds and a digest of that histogram, plus the study report's rows and
summary and the iteration's ``pst_gain``.  For the default and hold-out
seeds it is recorded in ``references.json`` (``record_references.py``
rewrites it); for any other seed it is the run's untimed warm-up iteration,
and ``run.py`` also compares the references of a run's set-ups.

Tolerances: sampled histograms are bit-identical, the contract across
executors and worker counts; report values, which carry HAMMER's outputs,
agree within a relative 1e-12, because a spectral kernel plan is not
bit-identical to ``tiled``; ``pst_gain`` agrees within a relative 1e-9.

Standard library only: ``run.py`` compares references without importing
the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: The seed a run uses by default, and the seed held out for re-checking claims.
DEFAULT_SEED = 8
HOLDOUT_SEED = 29

ROW_RTOL = 1e-12
PST_GAIN_RTOL = 1e-9


def histogram_digest(distribution) -> str:
    """SHA-256 of a histogram's sorted ``(outcome, count)`` pairs."""
    return hashlib.sha256(repr(sorted(distribution.counts().items())).encode()).hexdigest()


def _plain(value):
    """``value`` as it reads back from JSON (NumPy scalars become numbers)."""
    return json.loads(json.dumps(value, default=lambda item: item.item()))


def pst_gain(pairs) -> float:
    """Geometric mean of HAMMER PST / raw PST over ``(raw, hammer)`` pairs."""
    ratios = [hammer / raw for raw, hammer in pairs if raw > 0 and hammer > 0]
    if not ratios:
        return 0.0
    return math.exp(math.fsum(math.log(ratio) for ratio in ratios) / len(ratios))


def capture(workload, report, batches) -> dict:
    """The checked outputs of one iteration."""
    jobs = [job for batch_jobs, _ in batches for job in batch_jobs]
    results = [result for _, batch_results in batches for result in batch_results]
    return {
        "jobs": [job.job_id for job in jobs],
        "shots": [job.shots for job in jobs],
        "counted": [result.noisy.total_weight for result in results],
        "digests": [histogram_digest(result.noisy) for result in results],
        "rows": _plain(report.rows),
        "row_jobs": [workload.row_job(index) for index in range(len(report.rows))],
        "summary": _plain(report.summary),
        "pst_gain": pst_gain(workload.pst_pairs(report)),
    }


def same(actual, expected) -> bool:
    """Equal, except that floats may differ by a relative ``ROW_RTOL``."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(same(actual[key], expected[key]) for key in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(map(same, actual, expected))
        )
    if isinstance(expected, float) and isinstance(actual, float):
        return actual == expected or math.isclose(actual, expected, rel_tol=ROW_RTOL, abs_tol=0.0)
    return actual == expected


def compare(outcome: dict, reference: dict) -> dict[int, str]:
    """The failed jobs of ``outcome`` against ``reference``: job index -> reason."""
    jobs = range(len(reference["jobs"]))
    if outcome["jobs"] != reference["jobs"] or len(outcome["rows"]) != len(reference["rows"]):
        return dict.fromkeys(jobs, "jobs or report rows differ from the reference")
    problems: dict[int, str] = {}
    for job in jobs:
        if outcome["counted"][job] != outcome["shots"][job]:
            problems[job] = (
                f"histogram holds {outcome['counted'][job]} of {outcome['shots'][job]} shots"
            )
        elif outcome["digests"][job] != reference["digests"][job]:
            problems[job] = "sampled histogram differs from the reference"
    for index, (row, expected) in enumerate(zip(outcome["rows"], reference["rows"])):
        if not same(row, expected):
            problems.setdefault(
                outcome["row_jobs"][index], f"report row {index} differs from the reference"
            )
    if not problems and not (
        same(outcome["summary"], reference["summary"])
        and math.isclose(outcome["pst_gain"], reference["pst_gain"], rel_tol=PST_GAIN_RTOL)
    ):
        problems = dict.fromkeys(jobs, "summary or pst_gain differs from the reference")
    return problems


def recorded(workload: str, seed: int) -> dict | None:
    """The recorded reference of ``workload`` at ``seed``, if there is one."""
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text())["workloads"].get(workload, {}).get(str(seed))
