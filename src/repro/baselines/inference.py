"""Simple inference baselines for comparing against HAMMER.

The paper's baseline is the raw measured histogram: the program's answer is
read off as the most frequent outcome (for single-answer circuits) or the
histogram is used directly for expectation values (QAOA).  These helpers make
that baseline explicit and add a cheap alternative that the scenario study
reports: *majority-vote bit inference*, which infers each output bit
independently from its marginal, a folklore trick that works when errors are
independent but ignores correlations.
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import Distribution

__all__ = ["most_frequent_outcome", "majority_vote_outcome"]


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
