"""Baseline post-processing and inference schemes HAMMER is compared against."""

from repro.baselines.inference import (
    majority_vote_outcome,
    most_frequent_outcome,
)
from repro.baselines.readout_mitigation import (
    ReadoutCalibration,
    ReadoutMitigationStage,
    mitigate_readout,
)

__all__ = [
    "majority_vote_outcome",
    "most_frequent_outcome",
    "ReadoutCalibration",
    "ReadoutMitigationStage",
    "mitigate_readout",
]
