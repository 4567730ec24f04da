"""Hamming-structure metrics used for the characterisation studies.

These wrap :mod:`repro.core.spectrum` with the derived statistics the paper's
Section 7 plots need: EHD (already in core), cluster density, the
Spearman rank correlation between EHD and entanglement entropy / fidelity
(Figure 11), and summary records that the experiment modules aggregate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.distribution import Distribution
from repro.core.spectrum import _expected_distance_of_bins, spectrum_bins, uniform_model_ehd
from repro.exceptions import DistributionError

__all__ = [
    "HammingStructureSummary",
    "summarize_hamming_structure",
    "cluster_density",
    "structure_ratio",
    "spearman_correlation",
]


@dataclass(frozen=True)
class HammingStructureSummary:
    """Summary statistics of the Hamming structure of one noisy distribution.

    Attributes
    ----------
    num_bits:
        Output width of the circuit.
    ehd:
        Expected Hamming distance to the correct set.
    uniform_ehd:
        EHD of the uniform-error model (``n/2``) for reference.
    correct_probability:
        Total probability of the correct outcomes (PST).
    mass_within_two:
        Probability mass within Hamming distance 2 of the correct set.
    num_outcomes:
        Support size of the distribution.
    """

    num_bits: int
    ehd: float
    uniform_ehd: float
    correct_probability: float
    mass_within_two: float
    num_outcomes: int

    @property
    def normalized_ehd(self) -> float:
        """EHD divided by the uniform-model EHD (1.0 means "no structure")."""
        return self.ehd / self.uniform_ehd if self.uniform_ehd > 0 else 0.0


def summarize_hamming_structure(
    distribution: Distribution, correct_outcomes: Sequence[str]
) -> HammingStructureSummary:
    """Compute the full Hamming-structure summary for one distribution.

    The spectrum bins (shortest distances + weighted bincount on the packed
    view, via the kernel layer's popcount dispatch) are computed once on the
    bins-only fast path — no per-outcome membership lists or strings — and
    EHD and all derived statistics read them.
    """
    bins = spectrum_bins(distribution, correct_outcomes)
    ehd = _expected_distance_of_bins(bins)
    mass_within_two = float(bins[: min(3, len(bins))].sum())
    return HammingStructureSummary(
        num_bits=distribution.num_bits,
        ehd=ehd,
        uniform_ehd=uniform_model_ehd(distribution.num_bits),
        correct_probability=float(bins[0]),
        mass_within_two=mass_within_two,
        num_outcomes=distribution.num_outcomes,
    )


def cluster_density(
    distribution: Distribution, correct_outcomes: Sequence[str], radius: int = 2
) -> float:
    """Fraction of the *erroneous* probability mass within ``radius`` of the correct set.

    1.0 means every erroneous outcome is inside the cluster; small values mean
    the errors are scattered across the Hamming space.
    """
    if radius < 0:
        raise DistributionError(f"radius must be >= 0, got {radius}")
    bins = spectrum_bins(distribution, correct_outcomes)
    erroneous_mass = float(bins[1:].sum())
    if erroneous_mass <= 0:
        return 1.0
    clustered = float(bins[1 : radius + 1].sum())
    return clustered / erroneous_mass


def structure_ratio(distribution: Distribution, correct_outcomes: Sequence[str]) -> float:
    """How far below the uniform-error EHD the measured EHD sits.

    Returns ``1 - EHD / (n/2)``: 0 means no structure (uniform-like errors),
    values close to 1 mean errors are tightly clustered around the correct
    answers.
    """
    ehd = _expected_distance_of_bins(spectrum_bins(distribution, correct_outcomes))
    uniform = uniform_model_ehd(distribution.num_bits)
    return float(1.0 - ehd / uniform)


def spearman_correlation(x_values: Sequence[float], y_values: Sequence[float]) -> float:
    """Spearman rank correlation coefficient (Figure 11 uses this statistic).

    Returns 0.0 when either series is constant, where the rank correlation
    is undefined.  SciPy is imported on the first non-constant call, so
    importing this module does not load it.
    """
    if len(x_values) != len(y_values):
        raise DistributionError("x and y must have the same length")
    if len(x_values) < 3:
        raise DistributionError("need at least 3 points for a rank correlation")
    x, y = np.asarray(x_values), np.asarray(y_values)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    from scipy import stats

    coefficient, _ = stats.spearmanr(x, y)
    if np.isnan(coefficient):
        return 0.0
    return float(coefficient)
