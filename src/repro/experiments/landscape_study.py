"""Cost-landscape experiments (Figures 1(c), 5 and 10(b)).

* :func:`run_neighbor_cost_study` — Figure 5: the cost of every assignment at
  Hamming distance 1 / 2 from the optimal cuts of a max-cut instance,
  demonstrating that even one or two bit flips degrade the cost severely.
* :func:`run_landscape_study` — Figures 1(c)/10(b): the (β, γ) cost-ratio
  landscape under ideal execution, noisy execution, and HAMMER-corrected
  noisy execution, plus the gradient-sharpness statistic the paper's claim
  ("HAMMER sharpens the gradients") maps to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hammer import HammerConfig
from repro.engine import CircuitJob, ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport, attach_engine_meta
from repro.maxcut.cost import CutCostEvaluator
from repro.maxcut.graphs import regular_graph_problem
from repro.maxcut.landscape import landscape_circuits, landscape_sharpness, scan_from_distributions
from repro.quantum.device import DeviceProfile, google_sycamore

__all__ = ["LandscapeStudyConfig", "run_neighbor_cost_study", "run_landscape_study"]


@dataclass(frozen=True)
class LandscapeStudyConfig:
    """Parameters of the landscape experiments.

    Attributes
    ----------
    num_nodes:
        Problem size (paper: QAOA-10 for Figure 5, QAOA-14 for Figure 10(b)).
    grid_points:
        Number of points along each of the β and γ axes.
    shots:
        Trials per grid point.
    noise_scale:
        Multiplier on the device noise model.
    seed:
        RNG seed for the problem instance and sampling.
    """

    num_nodes: int = 10
    grid_points: int = 5
    shots: int = 4096
    noise_scale: float = 1.0
    seed: int = 14

    def __post_init__(self) -> None:
        if self.num_nodes < 4:
            raise ExperimentError("num_nodes must be at least 4")
        if self.grid_points < 2:
            raise ExperimentError("grid_points must be at least 2")
        if self.shots <= 0:
            raise ExperimentError("shots must be positive")


def run_neighbor_cost_study(
    config: LandscapeStudyConfig | None = None,
) -> ExperimentReport:
    """Figure 5: cost of assignments at Hamming distance 1 and 2 from the optimum."""
    config = config or LandscapeStudyConfig()
    nodes = config.num_nodes if config.num_nodes % 2 == 0 else config.num_nodes + 1
    problem = regular_graph_problem(nodes, degree=3, seed=config.seed)
    evaluator = CutCostEvaluator(problem)
    minimum_cost = evaluator.minimum_cost()
    rows = []
    summary: dict[str, float] = {"minimum_cost": minimum_cost}
    for distance in (1, 2):
        costs = evaluator.costs_at_hamming_distance(distance)
        for index, cost in enumerate(sorted(costs)):
            rows.append(
                {
                    "hamming_distance": distance,
                    "rank": index,
                    "cost": cost,
                    "cost_over_cmin": cost / minimum_cost,
                }
            )
        summary[f"mean_cost_distance_{distance}"] = float(np.mean(costs))
        summary[f"worst_cost_distance_{distance}"] = float(np.max(costs))
        summary[f"mean_degradation_distance_{distance}"] = float(
            np.mean([(cost - minimum_cost) for cost in costs]) / abs(minimum_cost)
        )
    report = ExperimentReport(name="figure5_neighbor_costs", rows=rows)
    report.summary.update(summary)
    return report


def run_landscape_study(
    config: LandscapeStudyConfig | None = None,
    device: DeviceProfile | None = None,
    hammer_config: HammerConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Figures 1(c)/10(b): (β, γ) landscape for ideal / baseline / HAMMER executions.

    The whole grid is one engine batch; the ideal scan reuses the engine's
    per-circuit ideal distributions and the HAMMER scan post-processes the
    same noisy histograms the baseline scan scores (paired surfaces, as when
    post-processing one hardware run).
    """
    config = config or LandscapeStudyConfig()
    device = device or google_sycamore()
    engine = engine or ExecutionEngine()
    nodes = config.num_nodes if config.num_nodes % 2 == 0 else config.num_nodes + 1
    problem = regular_graph_problem(nodes, degree=3, seed=config.seed)
    betas = np.linspace(-0.8, 0.0, config.grid_points)
    gammas = np.linspace(0.0, 1.2, config.grid_points)

    noise_model = device.noise_model.scaled(config.noise_scale)
    grid = landscape_circuits(problem, betas, gammas)
    jobs = [
        CircuitJob(
            job_id=f"landscape-{device.name}-b{index // len(gammas)}-g{index % len(gammas)}",
            circuit=circuit,
            shots=config.shots,
            noise_model=noise_model,
            metadata={"beta": beta, "gamma": gamma},
        )
        for index, (beta, gamma, circuit) in enumerate(grid)
    ]
    results = engine.run(jobs, seed=config.seed)

    scans = {
        "ideal": scan_from_distributions(problem, betas, gammas, [r.ideal for r in results]),
        "baseline": scan_from_distributions(problem, betas, gammas, [r.noisy for r in results]),
        "hammer": scan_from_distributions(
            problem, betas, gammas, engine.hammer((r.noisy, hammer_config) for r in results)
        ),
    }
    rows = []
    for label, scan in scans.items():
        for point in scan.points:
            rows.append(
                {
                    "execution": label,
                    "beta": point.beta,
                    "gamma": point.gamma,
                    "cost_ratio": point.cost_ratio,
                }
            )
    report = ExperimentReport(name="figure10b_landscape", rows=rows)
    for label, scan in scans.items():
        report.summary[f"{label}_mean_cr"] = scan.mean_cost_ratio()
        report.summary[f"{label}_best_cr"] = scan.best_point().cost_ratio
        report.summary[f"{label}_sharpness"] = landscape_sharpness(scan)
    report.summary["sharpness_gain"] = (
        report.summary["hammer_sharpness"] - report.summary["baseline_sharpness"]
    )
    return attach_engine_meta(report, engine)
