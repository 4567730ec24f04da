"""Cross-scenario HAMMER study over the device scenario zoo.

The paper's headline claim — Hamming reconstruction helps across machines
with very different error characters — is exercised here on the calibration
subsystem's scenario registry: every registered
:class:`~repro.calibration.scenario.Scenario` (topology x calibration x
shots) runs its workload (Bernstein–Vazirani by default, GHZ for scenarios
that declare it) through one shared
:class:`~repro.engine.engine.ExecutionEngine` batch, and per scenario the
raw-histogram baseline, majority-vote bit inference, tensored readout
mitigation, paper-config HAMMER and calibration-aware HAMMER
(:class:`~repro.core.weights.NoiseAwareWeights`) are compared on PST.

Backends: ``config.backend`` selects the ideal-simulation backend for every
job.  The default ``"statevector"`` keeps the historical RNG streams (the
standard-zoo row table is bit-identical to pre-backend releases at a fixed
seed); ``"stabilizer"`` or ``"auto"`` unlock the large-width tier
(``heavy-hex-127-bv``, ``sycamore-53-ghz``), whose Clifford workloads run
at full device scale — far beyond the dense simulator's 24-qubit limit.

Determinism: secret keys are drawn from ``config.seed`` in registry order
and every job's sampling stream is ``SeedSequence((seed, batch index))``,
so the row table is bit-identical for any ``--jobs`` worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.inference import majority_vote_outcome
from repro.baselines.readout_mitigation import ReadoutCalibration, mitigate_readout
from repro.calibration.scenario import Scenario, all_scenarios, get_scenario, scenario_device
from repro.circuits.bv import bernstein_vazirani, bv_correct_outcome, random_bv_key
from repro.circuits.ghz import ghz_circuit, ghz_correct_outcomes
from repro.core.hammer import HammerConfig
from repro.core.weights import NoiseAwareWeights
from repro.engine import CircuitJob, ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport, attach_engine_meta, gmean_of_ratios
from repro.metrics.fidelity import probability_of_successful_trial, relative_improvement

__all__ = ["ScenarioStudyConfig", "run_scenario_study"]


@dataclass(frozen=True)
class ScenarioStudyConfig:
    """Shape of the cross-scenario sweep.

    Attributes
    ----------
    scenarios:
        Registry names to run; ``None`` sweeps the standard zoo (large-tier
        scenarios must be named explicitly — they need a non-default
        backend).
    num_qubits:
        Workload circuit width for scenarios that do not pin their own
        ``workload_qubits`` (must fit every selected scenario's device).
    keys_per_scenario:
        Random secret keys per scenario (GHZ workloads have no key; they
        run this many identically-prepared circuits instead).
    shots:
        Override for the trials per circuit; ``None`` uses each scenario's
        own shot budget.
    transpile_circuits:
        Route + decompose onto each scenario's topology first (the SWAP
        overhead differs per topology, which is part of what the zoo
        compares).
    backend:
        Ideal-simulation backend for every job: ``"statevector"``
        (default, historical bit-identical streams), ``"stabilizer"`` or
        ``"auto"``.
    seed:
        RNG seed for key generation and the per-job sampling streams.
    """

    scenarios: tuple[str, ...] | None = None
    num_qubits: int = 8
    keys_per_scenario: int = 2
    shots: int | None = None
    transpile_circuits: bool = True
    backend: str = "statevector"
    seed: int = 12

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise ExperimentError(f"num_qubits must be >= 2, got {self.num_qubits}")
        if self.keys_per_scenario <= 0:
            raise ExperimentError("keys_per_scenario must be positive")
        if self.shots is not None and self.shots <= 0:
            raise ExperimentError("shots must be positive")

    def selected(self) -> list[Scenario]:
        """The scenarios to run, in deterministic registry order."""
        if self.scenarios is None:
            return all_scenarios()
        return [get_scenario(name) for name in self.scenarios]


def _scenario_workload(
    scenario: Scenario, config: ScenarioStudyConfig, rng: np.random.Generator
):
    """Build one (circuit, correct_outcomes, label) workload instance.

    BV scenarios consume one key draw from ``rng``; GHZ scenarios consume
    nothing, so adding GHZ entries to a selection never shifts the key
    sequence of the BV scenarios around them.
    """
    width = scenario.workload_qubits or config.num_qubits
    if scenario.workload == "ghz":
        return ghz_circuit(width), ghz_correct_outcomes(width), "ghz"
    secret_key = random_bv_key(width, rng)
    return bernstein_vazirani(secret_key), [bv_correct_outcome(secret_key)], secret_key


def _noise_aware_config(device, result) -> HammerConfig:
    """Calibration-aware HAMMER for one job: the analytic flip spectrum of what ran.

    The flips must describe the executed circuit (routing SWAPs dominate the
    flip mass on sparse topologies), gathered into the histogram's logical
    bit order.
    """
    flip_probabilities = device.noise_model.accumulated_bitflip_probabilities(
        result.executed_circuit
    )
    return HammerConfig(
        weight_scheme=NoiseAwareWeights(result.to_logical_order(flip_probabilities))
    )


def run_scenario_study(
    config: ScenarioStudyConfig | None = None,
    hammer_config: HammerConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Run HAMMER vs the inference baselines across the scenario zoo."""
    config = config or ScenarioStudyConfig()
    engine = engine or ExecutionEngine()
    scenarios = config.selected()
    if not scenarios:
        raise ExperimentError("no scenarios selected")

    rng = np.random.default_rng(config.seed)
    jobs: list[CircuitJob] = []
    correct_by_job: dict[str, list[str]] = {}
    devices = {scenario.name: scenario_device(scenario.name) for scenario in scenarios}
    for scenario in scenarios:
        device = devices[scenario.name]
        shots = config.shots if config.shots is not None else scenario.shots
        for key_index in range(config.keys_per_scenario):
            circuit, correct, label = _scenario_workload(scenario, config, rng)
            job_id = f"scenario-{scenario.name}-n{circuit.num_qubits}-k{key_index}"
            correct_by_job[job_id] = correct
            jobs.append(
                CircuitJob(
                    job_id=job_id,
                    circuit=circuit,
                    shots=shots,
                    noise_model=device.noise_model,
                    coupling_map=device.coupling_map if config.transpile_circuits else None,
                    basis_gates=device.basis_gates if config.transpile_circuits else None,
                    device=device,
                    backend=config.backend,
                    metadata={"scenario": scenario.name, "secret_key": label},
                )
            )

    results = engine.run(jobs, seed=config.seed)
    reconstructions = engine.hammer((result.noisy, hammer_config) for result in results)
    noise_aware_reconstructions = engine.hammer(
        (result.noisy, _noise_aware_config(devices[result.metadata["scenario"]], result))
        for result in results
    )

    rows: list[dict[str, object]] = []
    for result, reconstructed, noise_aware in zip(
        results, reconstructions, noise_aware_reconstructions
    ):
        scenario = get_scenario(result.metadata["scenario"])
        device = devices[scenario.name]
        correct = correct_by_job[result.job_id]
        noisy = result.noisy

        # The histogram is in logical bit order but the noise acted on
        # physical qubits: gather every per-physical-qubit quantity through
        # the measurement permutation before pairing it with the histogram.
        p10, p01 = device.noise_model.readout_flip_probabilities(noisy.num_bits)
        calibration = ReadoutCalibration.from_flip_probabilities(
            result.to_logical_order(p10), result.to_logical_order(p01)
        )
        mitigated = mitigate_readout(noisy, calibration)

        baseline_pst = probability_of_successful_trial(noisy, correct)
        mitigated_pst = probability_of_successful_trial(mitigated, correct)
        hammer_pst = probability_of_successful_trial(reconstructed, correct)
        noise_aware_pst = probability_of_successful_trial(noise_aware, correct)
        rows.append(
            {
                "scenario": scenario.name,
                "topology": scenario.topology,
                "device_qubits": scenario.num_qubits,
                "spread": scenario.spread,
                "drift_time": scenario.drift_time,
                "key": result.metadata["secret_key"],
                "two_qubit_gates": result.two_qubit_gates,
                "num_swaps": result.num_swaps,
                "baseline_pst": baseline_pst,
                "majority_vote_correct": float(majority_vote_outcome(noisy) in correct),
                "mitigated_pst": mitigated_pst,
                "hammer_pst": hammer_pst,
                "noise_aware_pst": noise_aware_pst,
                "hammer_vs_baseline": relative_improvement(baseline_pst, hammer_pst),
                "hammer_vs_mitigated": relative_improvement(mitigated_pst, hammer_pst),
                "noise_aware_vs_baseline": relative_improvement(baseline_pst, noise_aware_pst),
                "backend": result.backend,
            }
        )

    report = ExperimentReport(name="scenario_sweep", rows=rows)
    report.summary["num_scenarios"] = float(len(scenarios))
    report.summary["num_circuits"] = float(len(rows))
    report.summary["gmean_hammer_vs_baseline"] = gmean_of_ratios(rows, "hammer_vs_baseline")
    report.summary["gmean_noise_aware_vs_baseline"] = gmean_of_ratios(
        rows, "noise_aware_vs_baseline"
    )
    report.summary["majority_vote_accuracy"] = float(
        np.mean([row["majority_vote_correct"] for row in rows])
    )
    improved = sum(1 for row in rows if float(row["hammer_vs_baseline"]) >= 1.0)
    report.summary["fraction_improved"] = improved / len(rows)
    report.meta["config"] = {
        "num_qubits": config.num_qubits,
        "keys_per_scenario": config.keys_per_scenario,
        "shots": config.shots,
        "transpile_circuits": config.transpile_circuits,
        "backend": config.backend,
        "seed": config.seed,
        "scenarios": [scenario.name for scenario in scenarios],
    }
    return attach_engine_meta(report, engine, trace=results)
