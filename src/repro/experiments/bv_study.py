"""Figure 8: PST / IST improvement of HAMMER on Bernstein–Vazirani circuits.

The paper runs 250 BV circuits with 5-16 qubits on three IBM machines and
reports per-circuit relative improvement in PST and IST, with geometric means
of 1.38x (PST) and 1.74x (IST).  This module regenerates that sweep on the
simulated devices: every (device, width, key) combination becomes one
:class:`~repro.engine.jobs.CircuitJob`, the batch is handed to the shared
:class:`~repro.engine.engine.ExecutionEngine` (which dedupes transpiles and
ideal simulations and can fan the sweep out over worker processes), and the
two figures of merit are compared per returned histogram.

Seed semantics: each job's sampling stream is derived from
``(config.seed, job index)`` via :class:`numpy.random.SeedSequence`, so the
row table is bit-identical for any ``max_workers`` — but differs from the
pre-engine releases, which threaded one sequential RNG through the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.bv import bernstein_vazirani, random_bv_key
from repro.core.hammer import HammerConfig
from repro.datasets.ibm_suite import default_ibm_devices
from repro.engine import CircuitJob, ExecutionEngine
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport, attach_engine_meta, gmean_of_ratios
from repro.metrics.fidelity import (
    inference_strength,
    probability_of_successful_trial,
    relative_improvement,
)
from repro.quantum.device import DeviceProfile

__all__ = ["BvStudyConfig", "run_bv_study", "run_bv_single_example"]


@dataclass(frozen=True)
class BvStudyConfig:
    """Sweep parameters for the Figure 8 reproduction.

    Attributes
    ----------
    qubit_range:
        Inclusive (min, max) circuit widths (paper: 5-16).
    keys_per_size:
        Random secret keys per width and device.
    shots:
        Trials per circuit.
    noise_scale:
        Multiplier on each device's noise model.
    transpile_circuits:
        Route + decompose onto the device first (recommended: the SWAP
        overhead is what makes wide BV circuits fragile, as in the paper).
    seed:
        RNG seed for key generation and the per-job sampling streams.
    """

    qubit_range: tuple[int, int] = (5, 12)
    keys_per_size: int = 2
    shots: int = 8192
    noise_scale: float = 1.0
    transpile_circuits: bool = True
    seed: int = 8

    def __post_init__(self) -> None:
        if self.qubit_range[0] < 2 or self.qubit_range[0] > self.qubit_range[1]:
            raise ExperimentError(f"invalid qubit range {self.qubit_range}")
        if self.keys_per_size <= 0 or self.shots <= 0:
            raise ExperimentError("keys_per_size and shots must be positive")


def _bv_job(
    secret_key: str,
    job_id: str,
    device: DeviceProfile,
    noise_model,
    shots: int,
    transpile_circuits: bool,
    metadata: dict | None = None,
) -> CircuitJob:
    """Package one BV circuit execution for the engine."""
    return CircuitJob(
        job_id=job_id,
        circuit=bernstein_vazirani(secret_key),
        shots=shots,
        noise_model=noise_model,
        coupling_map=device.coupling_map if transpile_circuits else None,
        basis_gates=device.basis_gates if transpile_circuits else None,
        metadata={"secret_key": secret_key, "device": device.name, **(metadata or {})},
    )


def run_bv_study(
    config: BvStudyConfig | None = None,
    devices: list[DeviceProfile] | None = None,
    hammer_config: HammerConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Reproduce Figure 8(b): per-circuit PST / IST improvement and their gmeans."""
    config = config or BvStudyConfig()
    devices = devices if devices is not None else default_ibm_devices()
    engine = engine or ExecutionEngine()
    rng = np.random.default_rng(config.seed)
    low, high = config.qubit_range
    jobs: list[CircuitJob] = []
    for device in devices:
        noise_model = device.noise_model.scaled(config.noise_scale)
        for num_qubits in range(low, high + 1):
            for key_index in range(config.keys_per_size):
                secret_key = random_bv_key(num_qubits, rng)
                jobs.append(
                    _bv_job(
                        secret_key,
                        job_id=f"bv-{device.name}-n{num_qubits}-k{key_index}",
                        device=device,
                        noise_model=noise_model,
                        shots=config.shots,
                        transpile_circuits=config.transpile_circuits,
                        metadata={"num_qubits": num_qubits},
                    )
                )
    results = engine.run(jobs, seed=config.seed)
    reconstructions = engine.hammer((result.noisy, hammer_config) for result in results)

    rows: list[dict[str, object]] = []
    for result, reconstructed in zip(results, reconstructions):
        secret_key = result.metadata["secret_key"]
        noisy = result.noisy
        baseline_pst = probability_of_successful_trial(noisy, secret_key)
        hammer_pst = probability_of_successful_trial(reconstructed, secret_key)
        baseline_ist = inference_strength(noisy, secret_key)
        hammer_ist = inference_strength(reconstructed, secret_key)
        rows.append(
            {
                "device": result.metadata["device"],
                "num_qubits": result.metadata["num_qubits"],
                "key": secret_key,
                "two_qubit_gates": result.two_qubit_gates,
                "baseline_pst": baseline_pst,
                "hammer_pst": hammer_pst,
                "pst_improvement": relative_improvement(baseline_pst, hammer_pst),
                "baseline_ist": baseline_ist,
                "hammer_ist": hammer_ist,
                "ist_improvement": relative_improvement(baseline_ist, hammer_ist),
            }
        )
    report = ExperimentReport(name="figure8_bv_improvement", rows=rows)
    report.summary["num_circuits"] = float(len(rows))
    report.summary["gmean_pst_improvement"] = gmean_of_ratios(rows, "pst_improvement")
    report.summary["gmean_ist_improvement"] = gmean_of_ratios(rows, "ist_improvement")
    report.summary["max_pst_improvement"] = max(float(r["pst_improvement"]) for r in rows)
    report.summary["max_ist_improvement"] = max(
        float(r["ist_improvement"]) for r in rows if np.isfinite(r["ist_improvement"])
    )
    return attach_engine_meta(report, engine)


def run_bv_single_example(
    num_qubits: int = 10,
    device: DeviceProfile | None = None,
    shots: int = 8192,
    seed: int = 10,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Reproduce Figure 8(a): one BV-10 histogram before/after HAMMER.

    The rows list the ideal, baseline and HAMMER probabilities of the correct
    key and of the strongest incorrect outcome.
    """
    device = device or default_ibm_devices()[0]
    engine = engine or ExecutionEngine()
    secret_key = "".join("1" if i % 2 == 0 else "0" for i in range(num_qubits))
    job = _bv_job(
        secret_key,
        job_id=f"bv-example-{device.name}-n{num_qubits}",
        device=device,
        noise_model=device.noise_model,
        shots=shots,
        transpile_circuits=True,
    )
    result = engine.run_single(job, seed=seed)
    noisy = result.noisy
    (reconstructed,) = engine.hammer([(noisy, None)])
    strongest_incorrect = next(
        outcome for outcome, _ in noisy.ranked_outcomes() if outcome != secret_key
    )
    rows = [
        {
            "outcome": secret_key,
            "role": "correct key",
            "ideal": 1.0,
            "baseline": noisy.probability(secret_key),
            "hammer": reconstructed.probability(secret_key),
        },
        {
            "outcome": strongest_incorrect,
            "role": "top incorrect",
            "ideal": 0.0,
            "baseline": noisy.probability(strongest_incorrect),
            "hammer": reconstructed.probability(strongest_incorrect),
        },
    ]
    report = ExperimentReport(name="figure8a_bv10_example", rows=rows)
    report.summary["baseline_pst"] = noisy.probability(secret_key)
    report.summary["hammer_pst"] = reconstructed.probability(secret_key)
    report.summary["baseline_ist"] = inference_strength(noisy, secret_key)
    report.summary["hammer_ist"] = inference_strength(reconstructed, secret_key)
    return attach_engine_meta(report, engine)
