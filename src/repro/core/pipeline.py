"""Composable post-processing pipelines over measurement distributions.

Real evaluations chain several classical corrections: the Google baseline in
the paper already applies a readout-bias correction before HAMMER is run on
top.  This module provides a tiny pipeline abstraction so such chains can be
expressed declaratively and reused by the experiments, examples and CLI::

    pipeline = PostProcessingPipeline([
        ReadoutMitigationStage(device.readout_calibration()),
        HammerStage(),
    ])
    corrected = pipeline(noisy_distribution)

Pack-once guarantee
-------------------
Every built-in stage consumes and produces the packed array view cached on
:class:`~repro.core.distribution.Distribution` (see
:meth:`Distribution.packed`): HAMMER emits its output via
``Distribution.from_packed`` sharing the input's uint64 words, truncation
slices the packed rows, and the identity/normalisation stages carry the cache
through.  A multi-stage chain therefore packs the support exactly once — at
the sampler for simulated histograms (whose bit matrices arrive pre-packed)
or lazily at the first stage for dict-built histograms.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig, hammer
from repro.exceptions import DistributionError

__all__ = [
    "PostProcessingStage",
    "IdentityStage",
    "HammerStage",
    "TruncationStage",
    "CallableStage",
    "PostProcessingPipeline",
]


class PostProcessingStage(abc.ABC):
    """A single transformation of a measurement distribution."""

    #: human-readable name used in pipeline reports
    name: str = "stage"

    @abc.abstractmethod
    def apply(self, distribution: Distribution) -> Distribution:
        """Return the transformed distribution (must not mutate the input)."""

    def __call__(self, distribution: Distribution) -> Distribution:
        return self.apply(distribution)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityStage(PostProcessingStage):
    """No-op stage; represents the raw-histogram baseline in comparisons."""

    name = "identity"

    def apply(self, distribution: Distribution) -> Distribution:
        return distribution.normalized()


class HammerStage(PostProcessingStage):
    """Apply Hamming Reconstruction with a given configuration."""

    name = "hammer"

    def __init__(self, config: HammerConfig | None = None) -> None:
        self.config = config or HammerConfig()

    def apply(self, distribution: Distribution) -> Distribution:
        return hammer(distribution, self.config)


class TruncationStage(PostProcessingStage):
    """Keep only the ``top_k`` most probable outcomes before later stages.

    Useful to bound the ``O(N^2)`` cost of HAMMER when the raw histogram has
    a very long tail of single-shot outcomes.  Ties at the truncation
    boundary are broken lexicographically (``Distribution.top_k``), so the
    kept support is deterministic; the packed view is sliced, not re-packed.
    """

    name = "truncate"

    def __init__(self, top_k: int) -> None:
        if top_k <= 0:
            raise DistributionError(f"top_k must be positive, got {top_k}")
        self.top_k = top_k

    def apply(self, distribution: Distribution) -> Distribution:
        if distribution.num_outcomes <= self.top_k:
            return distribution.normalized()
        return distribution.top_k(self.top_k).normalized()


class CallableStage(PostProcessingStage):
    """Adapt any ``Distribution -> Distribution`` callable into a stage."""

    def __init__(self, func, name: str = "callable") -> None:
        self._func = func
        self.name = name

    def apply(self, distribution: Distribution) -> Distribution:
        result = self._func(distribution)
        if not isinstance(result, Distribution):
            raise DistributionError(
                f"stage {self.name!r} returned {type(result).__name__}, expected Distribution"
            )
        return result


class PostProcessingPipeline:
    """An ordered chain of :class:`PostProcessingStage` objects."""

    def __init__(self, stages: Sequence[PostProcessingStage]) -> None:
        self.stages: list[PostProcessingStage] = list(stages)
        if not self.stages:
            raise DistributionError("pipeline must contain at least one stage")

    def __call__(self, distribution: Distribution) -> Distribution:
        return self.apply(distribution)

    def apply(self, distribution: Distribution) -> Distribution:
        """Run every stage in order and return the final distribution."""
        current = distribution
        for stage in self.stages:
            current = stage.apply(current)
        return current

    def stage_names(self) -> list[str]:
        """Names of the stages in execution order."""
        return [stage.name for stage in self.stages]

    @classmethod
    def hammer_default(cls, top_k: int | None = None) -> "PostProcessingPipeline":
        """Convenience constructor: optional truncation followed by HAMMER."""
        stages: list[PostProcessingStage] = []
        if top_k is not None:
            stages.append(TruncationStage(top_k))
        stages.append(HammerStage())
        return cls(stages)

    @classmethod
    def baseline(cls) -> "PostProcessingPipeline":
        """The raw-histogram baseline (identity pipeline)."""
        return cls([IdentityStage()])
