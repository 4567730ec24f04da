"""(β, γ) cost-landscape scans for QAOA (Figures 1(c), 5 and 10(b)).

A landscape scan evaluates the expected cut cost over a 2-D grid of the
first-layer angles (β, γ) while holding any additional layers fixed.  The
paper uses such scans to show that (a) hardware noise flattens the landscape
and (b) HAMMER restores the gradients, which is what
:func:`repro.experiments.landscape_study` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.qaoa import QaoaParameters, qaoa_circuit
from repro.core.distribution import Distribution
from repro.exceptions import ExperimentError
from repro.maxcut.cost import CutCostEvaluator
from repro.maxcut.graphs import MaxCutProblem

__all__ = [
    "LandscapePoint",
    "LandscapeScan",
    "landscape_circuits",
    "scan_from_distributions",
    "landscape_sharpness",
]


@dataclass(frozen=True)
class LandscapePoint:
    """One grid point of a landscape scan."""

    beta: float
    gamma: float
    expected_cost: float
    cost_ratio: float


@dataclass(frozen=True)
class LandscapeScan:
    """A full 2-D landscape: grid axes plus the cost-ratio surface."""

    betas: np.ndarray
    gammas: np.ndarray
    cost_ratio_grid: np.ndarray
    points: tuple[LandscapePoint, ...]

    def best_point(self) -> LandscapePoint:
        """Grid point with the highest cost ratio."""
        return max(self.points, key=lambda point: point.cost_ratio)

    def mean_cost_ratio(self) -> float:
        """Average cost ratio over the grid."""
        return float(np.mean(self.cost_ratio_grid))


def landscape_circuits(
    problem: MaxCutProblem,
    beta_values: np.ndarray | list[float],
    gamma_values: np.ndarray | list[float],
    extra_layers: int = 0,
) -> list[tuple[float, float, object]]:
    """Enumerate the grid's circuits as ``(beta, gamma, circuit)`` triples.

    Grid order is beta-major (all gammas for the first beta, then the next
    beta), matching :func:`scan_from_distributions`.  Build the circuits
    here, run them through an execution engine, and fold the measured
    distributions back with :func:`scan_from_distributions`.
    """
    betas = np.asarray(list(beta_values), dtype=float)
    gammas = np.asarray(list(gamma_values), dtype=float)
    if betas.size == 0 or gammas.size == 0:
        raise ExperimentError("landscape scan needs non-empty beta and gamma axes")
    triples: list[tuple[float, float, object]] = []
    for beta in betas:
        for gamma in gammas:
            layer_gammas = [float(gamma)] + [0.5] * extra_layers
            layer_betas = [float(beta)] + [0.25] * extra_layers
            parameters = QaoaParameters(gammas=tuple(layer_gammas), betas=tuple(layer_betas))
            triples.append((float(beta), float(gamma), qaoa_circuit(problem, parameters)))
    return triples


def scan_from_distributions(
    problem: MaxCutProblem,
    beta_values: np.ndarray | list[float],
    gamma_values: np.ndarray | list[float],
    distributions: list[Distribution],
) -> LandscapeScan:
    """Fold pre-measured grid distributions into a :class:`LandscapeScan`.

    ``distributions`` must be in the beta-major order produced by
    :func:`landscape_circuits`.
    """
    betas = np.asarray(list(beta_values), dtype=float)
    gammas = np.asarray(list(gamma_values), dtype=float)
    if betas.size == 0 or gammas.size == 0:
        raise ExperimentError("landscape scan needs non-empty beta and gamma axes")
    if len(distributions) != betas.size * gammas.size:
        raise ExperimentError(
            f"expected {betas.size * gammas.size} grid distributions, got {len(distributions)}"
        )
    evaluator = CutCostEvaluator(problem)
    minimum_cost = evaluator.minimum_cost()
    grid = np.zeros((betas.size, gammas.size), dtype=float)
    points: list[LandscapePoint] = []
    for flat_index, distribution in enumerate(distributions):
        beta_index, gamma_index = divmod(flat_index, gammas.size)
        expected = evaluator.expected_cost(distribution)
        ratio = float(expected / minimum_cost)
        grid[beta_index, gamma_index] = ratio
        points.append(
            LandscapePoint(
                beta=float(betas[beta_index]),
                gamma=float(gammas[gamma_index]),
                expected_cost=float(expected),
                cost_ratio=ratio,
            )
        )
    return LandscapeScan(betas=betas, gammas=gammas, cost_ratio_grid=grid, points=tuple(points))


def landscape_sharpness(scan: LandscapeScan) -> float:
    """Mean absolute gradient of the cost-ratio surface.

    The paper's claim that HAMMER "sharpens the gradients" translates to this
    number being larger for the HAMMER-processed landscape than for the noisy
    baseline landscape.
    """
    grid = scan.cost_ratio_grid
    if grid.size < 4:
        raise ExperimentError("landscape too small to estimate gradients")
    gradient_beta, gradient_gamma = np.gradient(grid)
    return float(np.mean(np.abs(gradient_beta)) + np.mean(np.abs(gradient_gamma)))
