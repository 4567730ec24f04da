"""Simple inference baselines for comparing against HAMMER.

The paper's baseline is the raw measured histogram: the program's answer is
read off as the most frequent outcome (for single-answer circuits) or the
histogram is used directly for expectation values (QAOA).  These helpers make
that baseline explicit and add two cheap alternatives used in the ablation
benchmarks:

* *majority-vote bit inference* — infer each output bit independently from
  its marginal, a folklore trick that works when errors are independent but
  ignores correlations; and
* *top-k re-ranking by Hamming centrality* — rank outcomes by how much
  probability mass sits within Hamming distance 1, a simplified neighbour
  heuristic that HAMMER generalises.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitstring import hamming_distance
from repro.core.distribution import Distribution
from repro.exceptions import DistributionError

__all__ = ["most_frequent_outcome", "majority_vote_outcome", "hamming_centrality_ranking"]


def most_frequent_outcome(distribution: Distribution) -> str:
    """The raw-histogram baseline: return the most probable outcome."""
    return distribution.most_probable()


def majority_vote_outcome(distribution: Distribution) -> str:
    """Infer each bit from its marginal probability of being '1'.

    Each marginal is a column sum of the support's bit matrix weighted by
    the outcome probabilities.  ``np.cumsum`` adds the rows in support
    order, one at a time, as a walk over :meth:`Distribution.items` would,
    so every marginal (and every 0.5 tie) comes out bit for bit the same.
    """
    probabilities = distribution.weight_vector() / distribution.total_weight
    bits = distribution.packed().bit_matrix()
    ones_probability = np.cumsum(bits * probabilities[:, None], axis=0)[-1]
    return "".join("1" if p >= 0.5 else "0" for p in ones_probability)


def hamming_centrality_ranking(distribution: Distribution, top_k: int = 10) -> list[tuple[str, float]]:
    """Rank the top outcomes by probability mass within Hamming distance 1.

    Returns ``(outcome, centrality score)`` pairs sorted by decreasing score;
    only the ``top_k`` most probable outcomes are scored (the heuristic is a
    cheap stand-in for HAMMER's full neighbourhood analysis).
    """
    if top_k <= 0:
        raise DistributionError(f"top_k must be positive, got {top_k}")
    candidates = [outcome for outcome, _ in distribution.ranked_outcomes()[:top_k]]
    scores: list[tuple[str, float]] = []
    for candidate in candidates:
        score = distribution.probability(candidate)
        for outcome, probability in distribution.items():
            if outcome != candidate and hamming_distance(candidate, outcome) == 1:
                score += probability
        scores.append((candidate, float(score)))
    scores.sort(key=lambda pair: -pair[1])
    return scores
