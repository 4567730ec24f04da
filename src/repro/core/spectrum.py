"""Hamming spectrum, Cumulative Hamming Strength (CHS) and EHD.

Section 3 of the paper introduces three characterisation tools that this
module implements:

* The **Hamming spectrum** of a distribution with respect to a set of correct
  answers: each outcome is bucketed into the bin given by its (shortest)
  Hamming distance to a correct answer (Figure 3 of the paper).
* The **Cumulative Hamming Strength (CHS)** of an outcome: a vector whose
  ``d``-th entry is the total probability of all outcomes exactly ``d``
  Hamming distance away from it (Figure 7(b)).
* The **Expected Hamming Distance (EHD)**: the probability-weighted average
  Hamming distance between the erroneous outcomes and the correct answer(s)
  (Figures 1(b), 11 and 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.bitstring import PackedOutcomes, validate_bitstring
from repro.core.distribution import Distribution
from repro.core.kernels import chs_histogram
from repro.exceptions import DistributionError

__all__ = [
    "HammingSpectrum",
    "hamming_spectrum",
    "spectrum_bins",
    "cumulative_hamming_strength",
    "average_chs",
    "expected_hamming_distance",
    "uniform_model_ehd",
    "distance_to_correct_set",
]


@dataclass(frozen=True)
class HammingSpectrum:
    """Bucketed view of a distribution in Hamming space.

    Attributes
    ----------
    bins:
        ``bins[d]`` is the total probability of outcomes whose shortest
        Hamming distance to the correct set equals ``d``; length ``n + 1``.
    bin_members:
        ``bin_members[d]`` lists ``(outcome, probability)`` pairs in bin ``d``.
    correct_outcomes:
        The reference outcomes the spectrum was computed against.
    num_bits:
        Output width of the underlying circuit.
    """

    bins: np.ndarray
    bin_members: tuple[tuple[tuple[str, float], ...], ...]
    correct_outcomes: tuple[str, ...]
    num_bits: int

    def bin_probability(self, distance: int) -> float:
        """Total probability mass at the given Hamming distance."""
        if not 0 <= distance <= self.num_bits:
            raise DistributionError(f"distance {distance} out of range [0, {self.num_bits}]")
        return float(self.bins[distance])

    def bin_average_probability(self, distance: int) -> float:
        """Average per-outcome probability of the bin at ``distance`` (0 if empty)."""
        members = self.bin_members[distance]
        if not members:
            return 0.0
        return float(sum(p for _, p in members) / len(members))

    def correct_probability(self) -> float:
        """Probability mass of the correct outcomes (the distance-0 bin)."""
        return float(self.bins[0])

    def expected_distance(self) -> float:
        """Probability-weighted mean bin index — the EHD of the distribution."""
        return _expected_distance_of_bins(self.bins)

    def nonzero_bins(self) -> list[int]:
        """Indices of bins with non-zero probability mass."""
        return [int(d) for d in np.nonzero(self.bins > 0)[0]]

    def as_series(self) -> list[tuple[int, float]]:
        """Return ``(distance, probability)`` pairs for plotting."""
        return [(d, float(p)) for d, p in enumerate(self.bins)]


def _packed_correct_set(correct_outcomes: Sequence[str], num_bits: int) -> PackedOutcomes:
    """Validate and pack a correct-answer set for popcount comparisons."""
    if not correct_outcomes:
        raise DistributionError("correct_outcomes must not be empty")
    for correct in correct_outcomes:
        validate_bitstring(correct, num_bits=num_bits)
    return PackedOutcomes.from_strings(
        list(correct_outcomes), num_bits=num_bits, validate=False
    )


def distance_to_correct_set(outcome: str, correct_outcomes: Sequence[str]) -> int:
    """Shortest Hamming distance from ``outcome`` to any correct outcome.

    Computed with packed-word popcounts rather than per-character comparisons.
    """
    validate_bitstring(outcome)
    correct = _packed_correct_set(correct_outcomes, len(outcome))
    return int(correct.distances_to_reference(outcome).min())


def spectrum_bins(
    distribution: Distribution, correct_outcomes: Sequence[str]
) -> np.ndarray:
    """Hamming-spectrum bins only — no per-outcome members, no strings.

    ``bins[d]`` is the probability mass at shortest distance ``d`` to the
    correct set, exactly as :func:`hamming_spectrum` computes it, but the
    expensive per-bin ``(outcome, probability)`` membership lists (which
    force every support row to be rendered to a string) are skipped.  The
    summary metrics in :mod:`repro.metrics.hamming_metrics` — EHD, cluster
    density, structure ratio — only need the bins, so at large supports they
    run entirely on the packed view.
    """
    num_bits = distribution.num_bits
    correct = _packed_correct_set(correct_outcomes, num_bits)
    packed = distribution.packed()
    distances = packed.min_distances_to(correct)
    return np.bincount(
        distances, weights=packed.probabilities, minlength=num_bits + 1
    )[: num_bits + 1].astype(float)


def _expected_distance_of_bins(bins: np.ndarray) -> float:
    """Probability-weighted mean bin index (shared EHD arithmetic)."""
    total = float(bins.sum())
    if total <= 0:
        raise DistributionError("distribution has no probability mass")
    distances = np.arange(bins.size, dtype=float)
    return float(np.dot(distances, bins) / total)


def hamming_spectrum(
    distribution: Distribution, correct_outcomes: Sequence[str]
) -> HammingSpectrum:
    """Compute the Hamming spectrum of ``distribution`` w.r.t. the correct set.

    For circuits with multiple correct outcomes the shortest distance to any
    of them is used, matching Section 3.2 of the paper.  The per-outcome
    shortest distances come from the packed view (XOR + popcount against each
    correct outcome); the bins are one weighted ``bincount``.
    """
    num_bits = distribution.num_bits
    correct = _packed_correct_set(correct_outcomes, num_bits)
    packed = distribution.packed()
    distances = packed.min_distances_to(correct)
    probabilities = packed.probabilities
    bins = np.bincount(distances, weights=probabilities, minlength=num_bits + 1)[
        : num_bits + 1
    ].astype(float)
    members: list[list[tuple[str, float]]] = [[] for _ in range(num_bits + 1)]
    for outcome, distance, probability in zip(packed.to_strings(), distances, probabilities):
        members[distance].append((outcome, float(probability)))
    return HammingSpectrum(
        bins=bins,
        bin_members=tuple(tuple(bucket) for bucket in members),
        correct_outcomes=tuple(correct_outcomes),
        num_bits=num_bits,
    )


def cumulative_hamming_strength(
    distribution: Distribution,
    outcome: str,
    max_distance: int | None = None,
) -> np.ndarray:
    """CHS vector of a single outcome.

    ``chs[d]`` holds the total probability of every outcome in the
    distribution at exactly Hamming distance ``d`` from ``outcome``
    (including the outcome itself at ``d = 0``).

    Parameters
    ----------
    max_distance:
        Length of the returned vector minus one.  Defaults to ``num_bits``.
    """
    num_bits = distribution.num_bits
    validate_bitstring(outcome, num_bits=num_bits)
    limit = num_bits if max_distance is None else max_distance
    if limit < 0:
        raise DistributionError(f"max_distance must be >= 0, got {max_distance}")
    packed = distribution.packed()
    distances = packed.distances_to_reference(outcome)
    within = distances <= limit
    return np.bincount(
        distances[within], weights=packed.probabilities[within], minlength=limit + 1
    )[: limit + 1].astype(float)


def average_chs(distribution: Distribution, max_distance: int | None = None) -> np.ndarray:
    """Average CHS over every outcome in the distribution.

    This is the "global neighbourhood information" of Section 4.3: because the
    vast majority of outcomes are erroneous, the average CHS approximates the
    CHS of a typical erroneous outcome and is what HAMMER inverts to obtain
    its per-distance weights.

    The computation is the probability-weighted *unnormalised* sum used by
    Algorithm 1 (every ordered pair ``(x, y)`` contributes ``P(y)`` to bin
    ``d(x, y)``), divided by the number of outcomes so the result is an
    average rather than a sum.  It is one call to the shared
    :func:`~repro.core.kernels.chs_histogram` kernel (dense Walsh–Hadamard
    for narrow registers with wide supports; otherwise blocked popcount +
    ``bincount`` up to :data:`~repro.core.kernels.DENSE_SUPPORT_MAX`
    outcomes and the symmetric triangular sweep above) — no ``N x N``
    distance matrix, per-distance mask, or string is ever materialised.
    """
    num_bits = distribution.num_bits
    limit = num_bits if max_distance is None else max_distance
    packed = distribution.packed()
    chs = chs_histogram(packed, packed.probabilities, min(limit, num_bits))
    result = np.zeros(limit + 1, dtype=float)
    copy_length = min(limit, num_bits) + 1
    result[:copy_length] = chs[:copy_length]
    return result / packed.num_outcomes


def expected_hamming_distance(
    distribution: Distribution, correct_outcomes: Sequence[str]
) -> float:
    """Expected Hamming Distance (EHD) of a noisy distribution.

    EHD is the probability-weighted mean of the shortest Hamming distance
    between each outcome and the correct set.  It is 0 for a perfect
    distribution and approaches ``n / 2`` for uniform errors.  Computed on
    the bins-only fast path (no per-outcome strings are rendered).
    """
    return _expected_distance_of_bins(spectrum_bins(distribution, correct_outcomes))


def uniform_model_ehd(num_bits: int) -> float:
    """EHD predicted by the uniform-error model (all outcomes equally likely).

    Exact value: ``sum_d d * C(n, d) / 2**n = n / 2`` for a single correct
    outcome; returned in closed form.
    """
    if num_bits <= 0:
        raise DistributionError(f"num_bits must be positive, got {num_bits}")
    return num_bits / 2.0
