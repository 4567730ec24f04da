"""Table 3 and Section 6.6: computational complexity of HAMMER.

HAMMER's cost is quadratic in the number of unique outcomes ``N`` and its
memory footprint linear in the number of qubits.  This module reproduces the
paper's operation-count table analytically and measures the actual runtime of
the implementation on synthetic histograms of increasing support size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import tuning
from repro.core.distribution import Distribution
from repro.core.hammer import neighborhood_scores
from repro.core.kernels import choose_plan
from repro.engine import ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport

__all__ = [
    "ComplexityStudyConfig",
    "analytic_operation_count",
    "run_operation_count_table",
    "run_runtime_scaling",
    "synthetic_histogram",
]


@dataclass(frozen=True)
class ComplexityStudyConfig:
    """Parameters of the runtime-scaling measurement."""

    support_sizes: tuple[int, ...] = (250, 500, 1000, 2000)
    num_bits: int = 24
    seed: int = 99

    def __post_init__(self) -> None:
        if not self.support_sizes:
            raise ExperimentError("support_sizes must not be empty")
        if self.num_bits < 2:
            raise ExperimentError("num_bits must be at least 2")


def analytic_operation_count(num_unique_outcomes: int) -> int:
    """Paper's operation count: ``2*N^2 + 2*N`` elementary steps.

    (``N^2 + N`` for the Hamming weight vector, ``N^2`` for the likelihoods
    and ``N`` for the normalisation — Section 6.6.)
    """
    if num_unique_outcomes <= 0:
        raise ExperimentError("num_unique_outcomes must be positive")
    n = num_unique_outcomes
    return 2 * n * n + 2 * n


def run_operation_count_table(
    trial_counts: tuple[int, ...] = (32_000, 256_000),
    unique_fractions: tuple[float, ...] = (0.1, 1.0),
) -> ExperimentReport:
    """Reproduce Table 3: operation counts for 32K / 256K trials.

    The paper notes the counts are independent of the qubit count (100 or 500
    qubits give the same number of operations); the rows therefore list one
    value per (trials, unique-outcome fraction) combination.
    """
    rows = []
    for trials in trial_counts:
        for fraction in unique_fractions:
            unique = int(trials * fraction)
            operations = analytic_operation_count(unique)
            rows.append(
                {
                    "trials": trials,
                    "unique_fraction": fraction,
                    "unique_outcomes": unique,
                    "operations_billion": operations / 1e9,
                }
            )
    report = ExperimentReport(name="table3_operation_counts", rows=rows)
    report.summary["max_operations_billion"] = max(float(r["operations_billion"]) for r in rows)
    return report


def synthetic_histogram(
    support_size: int, num_bits: int, rng: np.random.Generator
) -> Distribution:
    """A synthetic noisy histogram with a Hamming-clustered structure.

    One "correct" outcome receives ~10% of the mass, its close neighbourhood
    an exponentially decaying share, and the rest is spread over random
    outcomes — the same qualitative shape as a real NISQ histogram, which is
    what the runtime measurement should be fed.
    """
    if support_size < 2:
        raise ExperimentError("support_size must be at least 2")
    if support_size > 2**num_bits:
        raise ExperimentError("support_size exceeds the number of possible outcomes")
    correct = "".join(rng.choice(["0", "1"]) for _ in range(num_bits))
    data: dict[str, float] = {correct: 0.1}
    while len(data) < support_size:
        distance = int(min(num_bits, rng.geometric(0.3)))
        positions = rng.choice(num_bits, size=distance, replace=False)
        outcome = list(correct)
        for position in positions:
            outcome[position] = "1" if outcome[position] == "0" else "0"
        key = "".join(outcome)
        weight = float(rng.random() * (0.5 ** min(distance, 8)) + 1e-6)
        data[key] = data.get(key, 0.0) + weight
    return Distribution(data, num_bits=num_bits, validate=False)


def _time_pair_sweep(distribution: Distribution) -> tuple[float, str]:
    """Engine task: the fastest of five HAMMER calls on the forced ``tiled`` plan.

    Returns that time and the plan that ran.  The plan is forced inside the
    task (module-level, so it pickles), so worker processes time it too.
    """
    best = float("inf")
    with tuning.forced_kernel("tiled"):
        for _ in range(5):
            started = time.perf_counter()
            plan = neighborhood_scores(distribution).kernel
            best = min(best, time.perf_counter() - started)
    return best, plan


def run_runtime_scaling(
    config: ComplexityStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Measure HAMMER wall-clock time vs number of unique outcomes.

    Section 6.6 claims the ``O(N^2)`` pair sweep, so every size is timed on
    the one plan that runs it (``tiled``): left to the dispatcher, supports
    of up to 256 outcomes run ``dense`` and larger ones on at most 20 bits
    ``spectral``, and the exponent would compare two plans.  Each row keeps
    the plan the dispatcher would pick, the fastest of five calls and the
    pair count ``N^2``; ``work_scaling_exponent`` is the exponent of that
    count (exactly 2), ``empirical_scaling_exponent`` the timed one.

    The timings run through the engine's generic
    :meth:`~repro.engine.engine.ExecutionEngine.map_timed`; keep the default
    serial engine for clean timings (parallel workers contend for cores and
    perturb the scaling exponent).
    """
    config = config or ComplexityStudyConfig()
    engine = engine or ExecutionEngine()
    rng = np.random.default_rng(config.seed)
    distributions = [
        synthetic_histogram(support_size, config.num_bits, rng)
        for support_size in config.support_sizes
    ]
    rows = []
    for distribution, ((elapsed, plan), _) in zip(
        distributions, engine.map_timed(_time_pair_sweep, distributions)
    ):
        rows.append(
            {
                "unique_outcomes": distribution.num_outcomes,
                "num_bits": config.num_bits,
                "plan": plan,
                "dispatched_plan": choose_plan(distribution.num_outcomes, config.num_bits),
                "runtime_seconds": elapsed,
                "pairs": distribution.num_outcomes**2,
                "operations_billion": analytic_operation_count(distribution.num_outcomes) / 1e9,
            }
        )
    report = ExperimentReport(name="table3_runtime_scaling", rows=rows)
    report.summary["max_runtime_seconds"] = max(float(r["runtime_seconds"]) for r in rows)
    if len(rows) >= 2:
        first, last = rows[0], rows[-1]
        log_size_ratio = np.log(last["unique_outcomes"] / first["unique_outcomes"])
        time_ratio = last["runtime_seconds"] / max(first["runtime_seconds"], 1e-9)
        report.summary["empirical_scaling_exponent"] = float(np.log(time_ratio) / log_size_ratio)
        report.summary["work_scaling_exponent"] = float(
            np.log(last["pairs"] / first["pairs"]) / log_size_ratio
        )
    return report
