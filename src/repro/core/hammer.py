"""Hamming Reconstruction (HAMMER) — the paper's core contribution.

HAMMER post-processes the noisy measurement histogram of a NISQ program so
that outcomes with a rich Hamming neighbourhood (which are likely correct) are
boosted and isolated spurious outcomes are suppressed.  The algorithm follows
Algorithm 1 in the paper's appendix:

1. *Create Hamming spectrum*: compute the average Cumulative Hamming Strength
   (CHS) of the distribution — for each distance ``d < n/2``, the total
   probability mass of all ordered outcome pairs at that distance.
2. *Compute per-distance weights*: ``W[d] = 1 / CHS[d]`` (zero beyond
   ``n/2``).
3. *Update probabilities*: for every outcome ``x`` accumulate
   ``score(x) = P(x) + Σ_{y : d(x,y) < n/2, P(y) < P(x)} W[d(x,y)] · P(y)``
   and set ``P_out(x) ∝ P(x) · score(x)``, then renormalise.

Two implementations are provided:

* :func:`hammer_reference` — a direct transcription of Algorithm 1 with
  explicit double loops; used as the ground truth in tests.
* :func:`hammer` — a vectorised implementation operating on the
  distribution's cached :class:`~repro.core.bitstring.PackedOutcomes` view
  (uint64 words + probability vector).  The ``O(N^2)`` pairwise Hamming
  structure is evaluated with numpy popcounts in fixed-size row blocks and
  the per-distance CHS accumulation is a weighted ``bincount``; no strings
  are materialised anywhere inside the step-1/step-3 block loops.  The
  reconstructed distribution shares the input's packed words, so chained
  pipeline stages pack each support exactly once.  This is the
  implementation the experiments and benchmarks use.

Both accept a :class:`HammerConfig` that exposes the design knobs the paper
discusses (neighbourhood cutoff, weight scheme, the low-probability filter)
so the ablation studies in ``benchmarks/`` can toggle them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.distribution import Distribution
from repro.core.kernels import hammer_pass
from repro.core.weights import InverseChsWeights, WeightScheme, resolve_weight_scheme
from repro.exceptions import DistributionError
from repro.obs.phases import record_phase_seconds

__all__ = [
    "HammerConfig",
    "HammerResult",
    "hammer",
    "hammer_reference",
    "neighborhood_scores",
]


@dataclass(frozen=True)
class HammerConfig:
    """Tunable parameters of Hamming Reconstruction.

    Attributes
    ----------
    weight_scheme:
        How per-distance weights are derived from the average CHS.  The paper
        inverts the average CHS (:class:`~repro.core.weights.InverseChsWeights`).
    neighborhood_cutoff:
        Largest Hamming distance (exclusive) whose neighbours contribute to
        the score.  ``None`` selects the paper's choice of ``n // 2``.
    use_filter:
        If True (paper behaviour), an outcome only receives credit from
        neighbours with *strictly lower* probability, preventing
        low-probability strings from free-riding on rich neighbourhoods.
    include_self_probability:
        If True (paper behaviour), the score is seeded with the outcome's own
        probability before neighbourhood contributions are added.
    """

    weight_scheme: WeightScheme | str = field(default_factory=InverseChsWeights)
    neighborhood_cutoff: int | None = None
    use_filter: bool = True
    include_self_probability: bool = True

    def resolved_cutoff(self, num_bits: int) -> int:
        """Return the effective (exclusive) cutoff distance for an ``num_bits``-bit program.

        The paper's rule is "distance < n/2"; for odd widths that means
        distances up to ``(n-1)/2`` are included, so the exclusive integer
        bound is ``ceil(n/2)``.
        """
        if self.neighborhood_cutoff is None:
            cutoff = (num_bits + 1) // 2
        else:
            cutoff = self.neighborhood_cutoff
        if cutoff < 0:
            raise DistributionError(f"neighborhood cutoff must be >= 0, got {cutoff}")
        return min(cutoff, num_bits + 1)


@dataclass(frozen=True)
class HammerResult:
    """Full output of a HAMMER run, retaining intermediate artefacts.

    Attributes
    ----------
    distribution:
        The reconstructed (post-processed, renormalised) distribution.
    weights:
        The per-distance weight vector ``W`` used in step 2.
    average_chs:
        The (unnormalised, Algorithm-1 style) cumulative Hamming strength
        vector computed in step 1.
    score_vector:
        The neighbourhood score of each outcome, in the input's outcome order
        (which :attr:`distribution` keeps).
    config:
        The configuration the run used.
    """

    distribution: Distribution
    weights: np.ndarray
    average_chs: np.ndarray
    score_vector: np.ndarray
    config: HammerConfig
    #: Kernel plan the pairwise pass ran: "dense" for the exact legacy
    #: arithmetic at small supports, "spectral" above that on registers of
    #: up to 20 bits, "tiled" on wider ones.
    kernel: str = "dense"

    @property
    def num_bits(self) -> int:
        """Output width of the reconstructed distribution."""
        return self.distribution.num_bits

    @cached_property
    def scores(self) -> dict[str, float]:
        """The neighbourhood score of each outcome, keyed by outcome.

        Rendered on first access: HAMMER itself never needs the bitstrings.
        """
        return dict(zip(self.distribution.outcomes(), self.score_vector.tolist()))


def hammer_reference(
    distribution: Distribution, config: HammerConfig | None = None
) -> Distribution:
    """Direct transcription of Algorithm 1 (pure-Python double loops).

    Kept deliberately close to the paper's pseudocode; the vectorised
    :func:`hammer` is checked against this implementation in the test suite.
    """
    cfg = config or HammerConfig()
    num_bits = distribution.num_bits
    cutoff = cfg.resolved_cutoff(num_bits)
    probabilities = distribution.probabilities()
    outcomes = list(probabilities)

    # Step 1: cumulative Hamming strength over all ordered pairs.
    chs = [0.0] * (num_bits + 1)
    for x in outcomes:
        for y in outcomes:
            distance = sum(a != b for a, b in zip(x, y))
            if distance < cutoff:
                chs[distance] += probabilities[y]

    # Step 2: per-distance weights.
    scheme = resolve_weight_scheme(cfg.weight_scheme)
    weights = scheme.compute(np.array(chs, dtype=float), num_bits, cutoff)

    # Step 3: update the probability of every outcome.
    updated: dict[str, float] = {}
    for x in outcomes:
        score = probabilities[x] if cfg.include_self_probability else 0.0
        for y in outcomes:
            distance = sum(a != b for a, b in zip(x, y))
            if distance >= cutoff:
                continue
            if cfg.use_filter and not probabilities[x] > probabilities[y]:
                continue
            if not cfg.use_filter and x == y:
                continue
            score += weights[distance] * probabilities[y]
        updated[x] = score * probabilities[x]

    total = sum(updated.values())
    if total <= 0:
        # Degenerate case (e.g. single outcome): fall back to the input.
        return distribution.normalized()
    normalized = {outcome: value / total for outcome, value in updated.items()}
    return Distribution(normalized, num_bits=num_bits, validate=False)


def neighborhood_scores(
    distribution: Distribution, config: HammerConfig | None = None
) -> HammerResult:
    """Run HAMMER and return the full :class:`HammerResult` with intermediates.

    This is the vectorised implementation: it reads the distribution's cached
    packed view (uint64 words + probability vector) and evaluates the
    ``O(N^2)`` pairwise Hamming structure through the shape-dispatched
    kernel plans of :mod:`repro.core.kernels` in bounded memory; the plan
    that ran is :attr:`HammerResult.kernel`.  ``hammer(dist)`` is a thin
    wrapper returning only the reconstructed distribution.
    """
    cfg = config or HammerConfig()
    num_bits = distribution.num_bits
    cutoff = cfg.resolved_cutoff(num_bits)
    packed = distribution.packed()
    probabilities = packed.probabilities
    started = time.perf_counter()

    # Steps 1-3 run through the shape-dispatched kernel layer: the CHS
    # spectrum, the per-distance weights and the neighbourhood scores come
    # back from one call.
    scheme = resolve_weight_scheme(cfg.weight_scheme)

    def weight_fn(chs: np.ndarray) -> np.ndarray:
        weights = scheme.compute(chs, num_bits, cutoff)
        if len(weights) < num_bits + 1:
            weights = np.pad(weights, (0, num_bits + 1 - len(weights)))
        return weights

    chs, weights, scores, plan = hammer_pass(
        packed, probabilities, cutoff, weight_fn, cfg.use_filter
    )
    if cfg.include_self_probability:
        scores = scores + probabilities

    updated = scores * probabilities
    record_phase_seconds("hammer", time.perf_counter() - started)
    total = float(updated.sum())
    if total <= 0:
        reconstructed = distribution.normalized()
    else:
        # Share the packed words with the output so later pipeline stages
        # (or a second HAMMER pass) never re-pack the support.
        reconstructed = Distribution.from_packed(
            packed.with_probabilities(updated / total)
        )
    return HammerResult(
        distribution=reconstructed,
        weights=weights,
        average_chs=chs,
        score_vector=scores,
        config=cfg,
        kernel=plan,
    )


def hammer(distribution: Distribution, config: HammerConfig | None = None) -> Distribution:
    """Apply Hamming Reconstruction to a noisy measurement distribution.

    Parameters
    ----------
    distribution:
        The noisy histogram measured on (or simulated for) a NISQ device.
    config:
        Optional :class:`HammerConfig`; defaults to the paper's settings.

    Returns
    -------
    Distribution
        The reconstructed distribution over the same support, renormalised.
    """
    return neighborhood_scores(distribution, config).distribution
