"""Core HAMMER algorithm and the data structures it operates on.

Public surface:

* :class:`~repro.core.distribution.Distribution` — measurement histograms.
* :func:`~repro.core.hammer.hammer` / :func:`~repro.core.hammer.hammer_reference`
  / :func:`~repro.core.hammer.neighborhood_scores` — Hamming Reconstruction.
* :class:`~repro.core.hammer.HammerConfig` and the weight schemes in
  :mod:`repro.core.weights`.
* Hamming-space characterisation tools in :mod:`repro.core.spectrum`
  (Hamming spectrum, CHS, EHD).
* Post-processing pipelines in :mod:`repro.core.pipeline` and named ablation
  variants in :mod:`repro.core.variants`.
* The shape-adaptive pairwise kernels in :mod:`repro.core.kernels` and the
  forced kernel plan in :mod:`repro.core.tuning`.
"""

from repro.core import tuning, variants
from repro.core.kernels import choose_plan, chs_histogram, popcount_u64
from repro.core.bitstring import (
    PackedOutcomes,
    flip_bits,
    hamming_distance,
    int_to_bitstring,
    neighbors_at_distance,
    pack_bit_matrix,
    unpack_bit_matrix,
    validate_bitstring,
)
from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig, HammerResult, hammer, hammer_reference, neighborhood_scores
from repro.core.pipeline import (
    CallableStage,
    HammerStage,
    IdentityStage,
    PostProcessingPipeline,
    PostProcessingStage,
    TruncationStage,
)
from repro.core.spectrum import (
    HammingSpectrum,
    average_chs,
    cumulative_hamming_strength,
    distance_to_correct_set,
    expected_hamming_distance,
    hamming_spectrum,
    spectrum_bins,
    uniform_model_ehd,
)
from repro.core.weights import (
    ExponentialDecayWeights,
    InverseChsWeights,
    NearestNeighborWeights,
    NoiseAwareWeights,
    UniformWeights,
    WeightScheme,
    resolve_weight_scheme,
)

__all__ = [
    # bitstrings / packed backend
    "PackedOutcomes",
    "flip_bits",
    "hamming_distance",
    "int_to_bitstring",
    "neighbors_at_distance",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "validate_bitstring",
    # distribution
    "Distribution",
    # hammer
    "HammerConfig",
    "HammerResult",
    "hammer",
    "hammer_reference",
    "neighborhood_scores",
    # spectrum
    "HammingSpectrum",
    "average_chs",
    "cumulative_hamming_strength",
    "distance_to_correct_set",
    "expected_hamming_distance",
    "hamming_spectrum",
    "spectrum_bins",
    "uniform_model_ehd",
    # weights
    "ExponentialDecayWeights",
    "InverseChsWeights",
    "NearestNeighborWeights",
    "NoiseAwareWeights",
    "UniformWeights",
    "WeightScheme",
    "resolve_weight_scheme",
    # pipeline
    "CallableStage",
    "HammerStage",
    "IdentityStage",
    "PostProcessingPipeline",
    "PostProcessingStage",
    "TruncationStage",
    # variants
    "variants",
    # kernels / tuning
    "choose_plan",
    "chs_histogram",
    "popcount_u64",
    "tuning",
]
