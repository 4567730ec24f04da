"""Classical optimisation loop for variational QAOA (Section 2.3 substrate).

The hybrid loop executes the parametric circuit, scores the measured
distribution with the expected cut cost and feeds that value to a classical
optimiser which proposes new angles.  We wrap :func:`scipy.optimize.minimize`
(Nelder–Mead by default, gradient-free like the COBYLA loop used in
practice) and record the full optimisation trace so experiments can compare
how the baseline and HAMMER-corrected expectation values steer the search.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.qaoa import QaoaParameters, default_qaoa_parameters, qaoa_circuit
from repro.core.distribution import Distribution
from repro.exceptions import ExperimentError
from repro.maxcut.cost import CutCostEvaluator
from repro.maxcut.graphs import MaxCutProblem

__all__ = ["OptimizationTracePoint", "QaoaOptimizationResult", "optimize_qaoa"]

CircuitExecutor = Callable[[object], Distribution]


@dataclass(frozen=True)
class OptimizationTracePoint:
    """One objective evaluation of the variational loop."""

    iteration: int
    parameters: QaoaParameters
    expected_cost: float


@dataclass
class QaoaOptimizationResult:
    """Outcome of a variational QAOA optimisation run.

    Attributes
    ----------
    best_parameters:
        Angles achieving the lowest expected cost seen during the search.
    best_expected_cost:
        That lowest expected cost.
    best_cost_ratio:
        ``best_expected_cost / C_min`` for the instance.
    trace:
        Every objective evaluation, in order.
    num_evaluations:
        Total number of circuit executions used.
    """

    best_parameters: QaoaParameters
    best_expected_cost: float
    best_cost_ratio: float
    trace: list[OptimizationTracePoint] = field(default_factory=list)
    num_evaluations: int = 0


def optimize_qaoa(
    problem: MaxCutProblem,
    executor: CircuitExecutor,
    num_layers: int = 1,
    initial_parameters: QaoaParameters | None = None,
    max_evaluations: int = 60,
    method: str = "Nelder-Mead",
) -> QaoaOptimizationResult:
    """Run the hybrid variational loop for one max-cut instance.

    Parameters
    ----------
    executor:
        Maps a QAOA circuit to the measurement distribution whose expected
        cost drives the optimiser (plug in the noisy sampler, optionally
        followed by HAMMER, to reproduce the paper's setting).
    max_evaluations:
        Budget of objective evaluations (circuit executions).

    SciPy is imported on the first call, so importing this module does not
    load it.
    """
    if max_evaluations <= 0:
        raise ExperimentError(f"max_evaluations must be positive, got {max_evaluations}")
    evaluator = CutCostEvaluator(problem)
    minimum_cost = evaluator.minimum_cost()
    start = initial_parameters or default_qaoa_parameters(num_layers)
    if start.num_layers != num_layers:
        raise ExperimentError(
            f"initial parameters have {start.num_layers} layers, expected {num_layers}"
        )

    trace: list[OptimizationTracePoint] = []

    def objective(flat_parameters: np.ndarray) -> float:
        parameters = QaoaParameters.from_flat(list(flat_parameters))
        distribution = executor(qaoa_circuit(problem, parameters))
        expected = evaluator.expected_cost(distribution)
        trace.append(
            OptimizationTracePoint(
                iteration=len(trace), parameters=parameters, expected_cost=float(expected)
            )
        )
        return float(expected)

    from scipy import optimize

    optimize.minimize(
        objective,
        np.array(start.to_flat(), dtype=float),
        method=method,
        options={"maxfev": max_evaluations, "maxiter": max_evaluations, "xatol": 1e-3, "fatol": 1e-3}
        if method == "Nelder-Mead"
        else {"maxiter": max_evaluations},
    )
    if not trace:
        raise ExperimentError("optimizer performed no objective evaluations")
    best = min(trace, key=lambda point: point.expected_cost)
    return QaoaOptimizationResult(
        best_parameters=best.parameters,
        best_expected_cost=best.expected_cost,
        best_cost_ratio=float(best.expected_cost / minimum_cost),
        trace=trace,
        num_evaluations=len(trace),
    )
