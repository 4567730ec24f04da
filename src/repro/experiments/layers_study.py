"""Figure 10(a): quality of solution vs number of QAOA layers.

In the noiseless case the Cost Ratio improves monotonically with ``p``.  On
hardware, deeper circuits accumulate more error, so the baseline quality
peaks at a small ``p`` (the paper observes p=2 on Sycamore) and then
degrades; HAMMER pushes the peak to a larger ``p`` (p=3 in the paper),
reclaiming some of the algorithmic benefit of depth.

The (node count x layer count) sweep is one engine batch: every grid point
is an independent job, and the noiseless Cost Ratio comes straight from the
engine's (cached) ideal distribution — no separate statevector pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.qaoa import default_qaoa_parameters, qaoa_circuit
from repro.core.hammer import HammerConfig
from repro.engine import CircuitJob, ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport, attach_engine_meta
from repro.maxcut.cost import CutCostEvaluator
from repro.maxcut.graphs import grid_graph_problem
from repro.metrics.qaoa_metrics import cost_ratio
from repro.quantum.device import DeviceProfile, google_sycamore

__all__ = ["LayersStudyConfig", "run_layers_study"]


@dataclass(frozen=True)
class LayersStudyConfig:
    """Sweep parameters for the layer-depth study.

    Attributes
    ----------
    node_values:
        Grid-graph sizes to average over (paper: 6-20 node grids).
    layer_values:
        QAOA depths to sweep (paper: 1-5).
    shots:
        Trials per circuit.
    noise_scale:
        Multiplier on the Sycamore noise model.
    seed:
        RNG seed.
    """

    node_values: tuple[int, ...] = (10, 12, 14)
    layer_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    shots: int = 8192
    noise_scale: float = 1.0
    seed: int = 20

    def __post_init__(self) -> None:
        if not self.node_values or not self.layer_values:
            raise ExperimentError("node_values and layer_values must not be empty")
        if self.shots <= 0:
            raise ExperimentError("shots must be positive")


def run_layers_study(
    config: LayersStudyConfig | None = None,
    device: DeviceProfile | None = None,
    hammer_config: HammerConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Reproduce Figure 10(a): CR vs p for noiseless, baseline and HAMMER."""
    config = config or LayersStudyConfig()
    device = device or google_sycamore()
    engine = engine or ExecutionEngine()
    rng = np.random.default_rng(config.seed)
    noise_model = device.noise_model.scaled(config.noise_scale)

    evaluators: dict[int, CutCostEvaluator] = {}
    jobs: list[CircuitJob] = []
    for num_nodes in config.node_values:
        problem = grid_graph_problem(num_nodes, seed=int(rng.integers(0, 2**31)))
        evaluators[num_nodes] = CutCostEvaluator(problem)
        for num_layers in config.layer_values:
            jobs.append(
                CircuitJob(
                    job_id=f"layers-{device.name}-n{num_nodes}-p{num_layers}",
                    circuit=qaoa_circuit(problem, default_qaoa_parameters(num_layers)),
                    shots=config.shots,
                    noise_model=noise_model,
                    metadata={"num_nodes": num_nodes, "num_layers": num_layers},
                )
            )
    results = engine.run(jobs, seed=config.seed)
    reconstructions = engine.hammer((result.noisy, hammer_config) for result in results)

    per_layer: dict[int, dict[str, list[float]]] = {
        p: {"noiseless": [], "baseline": [], "hammer": []} for p in config.layer_values
    }
    for result, reconstructed in zip(results, reconstructions):
        evaluator = evaluators[result.metadata["num_nodes"]]
        minimum_cost = evaluator.minimum_cost()
        num_layers = result.metadata["num_layers"]
        per_layer[num_layers]["noiseless"].append(
            cost_ratio(result.ideal, evaluator.cost, minimum_cost)
        )
        per_layer[num_layers]["baseline"].append(
            cost_ratio(result.noisy, evaluator.cost, minimum_cost)
        )
        per_layer[num_layers]["hammer"].append(
            cost_ratio(reconstructed, evaluator.cost, minimum_cost)
        )

    rows = []
    for num_layers in config.layer_values:
        rows.append(
            {
                "num_layers": num_layers,
                "noiseless_cr": float(np.mean(per_layer[num_layers]["noiseless"])),
                "baseline_cr": float(np.mean(per_layer[num_layers]["baseline"])),
                "hammer_cr": float(np.mean(per_layer[num_layers]["hammer"])),
            }
        )
    report = ExperimentReport(name="figure10a_layers_study", rows=rows)
    report.summary["noiseless_best_p"] = float(max(rows, key=lambda r: r["noiseless_cr"])["num_layers"])
    report.summary["baseline_best_p"] = float(max(rows, key=lambda r: r["baseline_cr"])["num_layers"])
    report.summary["hammer_best_p"] = float(max(rows, key=lambda r: r["hammer_cr"])["num_layers"])
    report.summary["mean_hammer_gain"] = float(
        np.mean([r["hammer_cr"] - r["baseline_cr"] for r in rows])
    )
    return attach_engine_meta(report, engine)
