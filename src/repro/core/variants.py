"""Pre-configured HAMMER variants used by the ablation studies.

HAMMER makes four design choices: the ``P(y) < P(x)`` credit filter, the
self term, the ``n/2`` neighbourhood cutoff and the inverse-CHS weights.
``benchmarks/bench_ablation_variants.py`` quantifies each one's impact.
Each factory below returns a :class:`HammerConfig` exercising one
alternative, so experiments can run e.g.::

    from repro.core import variants, hammer
    reconstructed = hammer(noisy, variants.no_filter())
"""

from __future__ import annotations

from repro.core.hammer import HammerConfig
from repro.core.weights import (
    ExponentialDecayWeights,
    NearestNeighborWeights,
    UniformWeights,
)

__all__ = [
    "paper_default",
    "no_filter",
    "no_self_term",
    "full_neighborhood",
    "nearest_neighbor_only",
    "uniform_weights",
    "exponential_weights",
    "fixed_cutoff",
    "all_variants",
]


def paper_default() -> HammerConfig:
    """The configuration used throughout the paper's evaluation."""
    return HammerConfig()


def no_filter() -> HammerConfig:
    """Disable the ``P(y) < P(x)`` credit filter of Section 4.4."""
    return HammerConfig(use_filter=False)


def no_self_term() -> HammerConfig:
    """Do not seed the neighbourhood score with the outcome's own probability."""
    return HammerConfig(include_self_probability=False)


def full_neighborhood() -> HammerConfig:
    """Let every Hamming distance contribute (no ``n/2`` cutoff).

    The paper argues this dilutes the score towards uniformity; the ablation
    bench verifies the fidelity gain shrinks accordingly.
    """
    return HammerConfig(neighborhood_cutoff=10**6)


def nearest_neighbor_only() -> HammerConfig:
    """Only distance-0/1 neighbours contribute (Section 4.2's "too small" case)."""
    return HammerConfig(weight_scheme=NearestNeighborWeights())


def uniform_weights() -> HammerConfig:
    """Replace the inverse-CHS weights with uniform per-distance weights."""
    return HammerConfig(weight_scheme=UniformWeights())


def exponential_weights(decay: float = 0.5) -> HammerConfig:
    """Replace the inverse-CHS weights with an exponential decay in distance."""
    return HammerConfig(weight_scheme=ExponentialDecayWeights(decay=decay))


def fixed_cutoff(cutoff: int) -> HammerConfig:
    """Use an explicit neighbourhood cutoff instead of ``n // 2``."""
    return HammerConfig(neighborhood_cutoff=cutoff)


def all_variants() -> dict[str, HammerConfig]:
    """Return every named variant, keyed by a short identifier."""
    return {
        "paper_default": paper_default(),
        "no_filter": no_filter(),
        "no_self_term": no_self_term(),
        "full_neighborhood": full_neighborhood(),
        "nearest_neighbor_only": nearest_neighbor_only(),
        "uniform_weights": uniform_weights(),
        "exponential_weights": exponential_weights(),
    }
