"""Max-cut problem substrate: graphs, cost evaluation, landscapes, optimizer."""

from repro.maxcut.cost import CutCostEvaluator, cut_cost, cut_size
from repro.maxcut.graphs import (
    MaxCutProblem,
    erdos_renyi_problem,
    grid_graph_problem,
    regular_graph_problem,
    ring_graph_problem,
    sherrington_kirkpatrick_problem,
)
from repro.maxcut.landscape import LandscapePoint, LandscapeScan, landscape_sharpness
from repro.maxcut.optimizer import OptimizationTracePoint, QaoaOptimizationResult, optimize_qaoa

__all__ = [
    "CutCostEvaluator",
    "cut_cost",
    "cut_size",
    "MaxCutProblem",
    "erdos_renyi_problem",
    "grid_graph_problem",
    "regular_graph_problem",
    "ring_graph_problem",
    "sherrington_kirkpatrick_problem",
    "LandscapePoint",
    "LandscapeScan",
    "landscape_sharpness",
    "OptimizationTracePoint",
    "QaoaOptimizationResult",
    "optimize_qaoa",
]
