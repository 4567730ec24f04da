"""Experiment modules — one per paper figure/table (see the README's Architecture map)."""

from repro.experiments.bv_study import BvStudyConfig, run_bv_single_example, run_bv_study
from repro.experiments.complexity_study import (
    ComplexityStudyConfig,
    analytic_operation_count,
    run_operation_count_table,
    run_runtime_scaling,
    synthetic_histogram,
)
from repro.experiments.ehd_study import EhdStudyConfig, run_ehd_dataset_comparison, run_ehd_scaling
from repro.experiments.entanglement_study import EntanglementStudyConfig, run_entanglement_study
from repro.experiments.landscape_study import (
    LandscapeStudyConfig,
    run_landscape_study,
    run_neighbor_cost_study,
)
from repro.experiments.layers_study import LayersStudyConfig, run_layers_study
from repro.experiments.qaoa_study import (
    run_cost_ratio_scurve,
    run_ibm_qaoa_study,
    run_quality_distribution_example,
)
from repro.experiments.runner import ExperimentReport, format_table, gmean_of_ratios
from repro.experiments.scenario_study import ScenarioStudyConfig, run_scenario_study
from repro.experiments.spectrum_study import (
    SpectrumStudyConfig,
    run_bv_histogram_example,
    run_chs_pipeline,
    run_ghz_clustering,
    run_hamming_spectrum,
    run_noise_impact_example,
)
from repro.experiments.summary import run_headline_summary, score_quality_improvement

__all__ = [
    "BvStudyConfig",
    "run_bv_single_example",
    "run_bv_study",
    "ComplexityStudyConfig",
    "analytic_operation_count",
    "run_operation_count_table",
    "run_runtime_scaling",
    "synthetic_histogram",
    "EhdStudyConfig",
    "run_ehd_dataset_comparison",
    "run_ehd_scaling",
    "EntanglementStudyConfig",
    "run_entanglement_study",
    "LandscapeStudyConfig",
    "run_landscape_study",
    "run_neighbor_cost_study",
    "LayersStudyConfig",
    "run_layers_study",
    "run_cost_ratio_scurve",
    "run_ibm_qaoa_study",
    "run_quality_distribution_example",
    "ExperimentReport",
    "format_table",
    "gmean_of_ratios",
    "ScenarioStudyConfig",
    "run_scenario_study",
    "SpectrumStudyConfig",
    "run_bv_histogram_example",
    "run_chs_pipeline",
    "run_ghz_clustering",
    "run_hamming_spectrum",
    "run_noise_impact_example",
    "run_headline_summary",
    "score_quality_improvement",
]
