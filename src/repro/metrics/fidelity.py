"""Histogram-level figures of merit used in the paper's evaluation.

* **PST** (Probability of Successful Trial) — Equation (3): fraction of
  trials that produced a correct outcome.
* **IST** (Inference Strength) — Equation (4): probability of the correct
  outcome divided by the probability of the strongest incorrect outcome.
  IST > 1 means the correct answer can be inferred by taking the argmax.
* **TVD** (Total Variation Distance), Hellinger distance and classical
  fidelity between the measured and the ideal distribution (used for the
  Section 6.4 IBM QAOA results).
* Relative-improvement helpers and the geometric mean used for the paper's
  headline "Gmean PST 1.38x / IST 1.74x" summary.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.distribution import Distribution
from repro.exceptions import DistributionError


def _aligned_probability_vectors(
    first: Distribution, second: Distribution
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter two histograms onto their union support as aligned vectors.

    Outcome identity is resolved on the packed uint64 words (unique rows of
    the concatenated supports), so no string sets or dict unions are built.
    """
    if first.num_bits != second.num_bits:
        raise DistributionError("cannot compare distributions of different bit widths")
    first_packed = first.packed()
    second_packed = second.packed()
    stacked = np.concatenate([first_packed.words, second_packed.words], axis=0)
    unique_rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    p = np.zeros(unique_rows.shape[0], dtype=float)
    q = np.zeros(unique_rows.shape[0], dtype=float)
    p[inverse[: first_packed.num_outcomes]] = first_packed.probabilities
    q[inverse[first_packed.num_outcomes :]] = second_packed.probabilities
    return p, q

__all__ = [
    "probability_of_successful_trial",
    "inference_strength",
    "correct_outcome_rank",
    "inference_is_correct",
    "total_variation_distance",
    "hellinger_distance",
    "classical_fidelity",
    "relative_improvement",
    "geometric_mean",
]


def probability_of_successful_trial(
    distribution: Distribution, correct_outcomes: Sequence[str] | str
) -> float:
    """PST: total probability assigned to the correct outcome(s)."""
    correct = [correct_outcomes] if isinstance(correct_outcomes, str) else list(correct_outcomes)
    if not correct:
        raise DistributionError("correct_outcomes must not be empty")
    return float(sum(distribution.probability(outcome) for outcome in correct))


def inference_strength(
    distribution: Distribution, correct_outcomes: Sequence[str] | str
) -> float:
    """IST: probability of the correct outcome over the strongest incorrect one.

    For circuits with multiple correct outcomes the *largest* correct
    probability is compared against the largest incorrect probability.
    Returns ``math.inf`` when no incorrect outcome appears in the support.
    The correct rows are found with :meth:`Distribution.support_mask`, on
    the packed words of a packed-form histogram.
    """
    correct = [correct_outcomes] if isinstance(correct_outcomes, str) else list(correct_outcomes)
    if not correct:
        raise DistributionError("correct_outcomes must not be empty")
    best_correct = max(distribution.probability(outcome) for outcome in correct)
    probabilities = distribution.probability_vector()
    incorrect_mask = ~distribution.support_mask(correct)
    if not incorrect_mask.any():
        return math.inf
    best_incorrect = float(probabilities[incorrect_mask].max())
    if best_incorrect <= 0:
        return math.inf
    return float(best_correct / best_incorrect)


def correct_outcome_rank(
    distribution: Distribution, correct_outcomes: Sequence[str] | str
) -> int:
    """1-based rank of the best correct outcome in the probability ordering."""
    correct = [correct_outcomes] if isinstance(correct_outcomes, str) else list(correct_outcomes)
    correct_set = set(correct)
    for rank, (outcome, _) in enumerate(distribution.ranked_outcomes(), start=1):
        if outcome in correct_set:
            return rank
    # None of the correct outcomes were observed at all.
    return distribution.num_outcomes + 1


def inference_is_correct(
    distribution: Distribution, correct_outcomes: Sequence[str] | str
) -> bool:
    """True when the argmax of the distribution is a correct outcome."""
    return correct_outcome_rank(distribution, correct_outcomes) == 1


def total_variation_distance(first: Distribution, second: Distribution) -> float:
    """TVD between two distributions: ``0.5 * Σ |p(x) - q(x)|``."""
    p, q = _aligned_probability_vectors(first, second)
    return 0.5 * float(np.abs(p - q).sum())


def hellinger_distance(first: Distribution, second: Distribution) -> float:
    """Hellinger distance between two distributions (in [0, 1])."""
    p, q = _aligned_probability_vectors(first, second)
    squared = float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
    return float(math.sqrt(0.5 * squared))


def classical_fidelity(first: Distribution, second: Distribution) -> float:
    """Bhattacharyya/classical fidelity ``(Σ sqrt(p q))^2`` between histograms."""
    p, q = _aligned_probability_vectors(first, second)
    overlap = float(np.sqrt(p * q).sum())
    return float(overlap**2)


def relative_improvement(baseline: float, improved: float) -> float:
    """Return ``improved / baseline`` guarding against a zero baseline."""
    if baseline <= 0:
        return math.inf if improved > 0 else 1.0
    return float(improved / baseline)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (ignores non-finite entries)."""
    usable = [v for v in values if math.isfinite(v) and v > 0]
    if not usable:
        raise DistributionError("geometric mean requires at least one positive finite value")
    return float(math.exp(sum(math.log(v) for v in usable) / len(usable)))
