"""Tests for (beta, gamma) landscape scans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import hammer
from repro.exceptions import ExperimentError
from repro.maxcut import landscape_sharpness, ring_graph_problem
from repro.maxcut.landscape import landscape_circuits, scan_from_distributions
from repro.quantum import NoiseModel, NoisySampler, simulate_statevector


@pytest.fixture
def ring6():
    return ring_graph_problem(6)


def ideal_executor(circuit):
    return simulate_statevector(circuit).measurement_distribution()


def scan_grid(problem, executor, beta_values, gamma_values, extra_layers=0):
    """Build the grid's circuits, run each through ``executor`` and fold the scan.

    The landscape study takes the same two steps, with an engine batch in
    between.
    """
    triples = landscape_circuits(problem, beta_values, gamma_values, extra_layers=extra_layers)
    return scan_from_distributions(
        problem, beta_values, gamma_values, [executor(circuit) for _, _, circuit in triples]
    )


class TestScan:
    def test_grid_shape_and_points(self, ring6):
        scan = scan_grid(ring6, ideal_executor, beta_values=[-0.4, -0.2], gamma_values=[0.2, 0.4, 0.6])
        assert scan.cost_ratio_grid.shape == (2, 3)
        assert len(scan.points) == 6

    def test_best_point_is_max_of_grid(self, ring6):
        scan = scan_grid(ring6, ideal_executor, beta_values=np.linspace(-0.6, 0, 3),
                         gamma_values=np.linspace(0.1, 0.9, 3))
        assert scan.best_point().cost_ratio == pytest.approx(scan.cost_ratio_grid.max())

    def test_mean_cost_ratio(self, ring6):
        scan = scan_grid(ring6, ideal_executor, beta_values=[-0.4], gamma_values=[0.4])
        assert scan.mean_cost_ratio() == pytest.approx(scan.cost_ratio_grid.mean())

    def test_rejects_empty_axes(self, ring6):
        with pytest.raises(ExperimentError):
            scan_grid(ring6, ideal_executor, beta_values=[], gamma_values=[0.1])

    def test_extra_layers_supported(self, ring6):
        scan = scan_grid(ring6, ideal_executor, beta_values=[-0.4], gamma_values=[0.4], extra_layers=1)
        assert len(scan.points) == 1

    def test_landscape_is_not_flat_for_ideal_execution(self, ring6):
        scan = scan_grid(
            ring6, ideal_executor,
            beta_values=np.linspace(-0.6, 0.0, 4), gamma_values=np.linspace(0.0, 1.0, 4),
        )
        assert scan.cost_ratio_grid.max() - scan.cost_ratio_grid.min() > 0.1


class TestSharpness:
    def test_sharpness_positive_for_varying_landscape(self, ring6):
        scan = scan_grid(
            ring6, ideal_executor,
            beta_values=np.linspace(-0.6, 0.0, 4), gamma_values=np.linspace(0.0, 1.0, 4),
        )
        assert landscape_sharpness(scan) > 0

    def test_sharpness_rejects_tiny_grid(self, ring6):
        scan = scan_grid(ring6, ideal_executor, beta_values=[-0.4], gamma_values=[0.4])
        with pytest.raises(ExperimentError):
            landscape_sharpness(scan)

    def test_hammer_sharpens_noisy_landscape(self, ring6):
        """The paper's Figure 10(b) claim, on a small instance."""
        noise = NoiseModel(single_qubit_error=0.004, two_qubit_error=0.04)
        sampler = NoisySampler(noise, shots=3000, seed=4)

        def noisy_executor(circuit):
            return sampler.run(circuit)

        def hammer_executor(circuit):
            return hammer(noisy_executor(circuit))

        betas = np.linspace(-0.6, 0.0, 3)
        gammas = np.linspace(0.0, 1.0, 3)
        noisy_scan = scan_grid(ring6, noisy_executor, betas, gammas)
        hammer_scan = scan_grid(ring6, hammer_executor, betas, gammas)
        assert hammer_scan.mean_cost_ratio() > noisy_scan.mean_cost_ratio()
