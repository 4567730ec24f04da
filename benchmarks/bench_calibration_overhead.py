"""Calibration overhead guard: heterogeneous sampling vs the uniform fast path.

The calibration subsystem routes per-qubit/per-edge rates through the same
array-based sampler kernels the uniform models use — the only extra work is
assembling the per-qubit probability arrays from the snapshot (per-edge
lookups in ``accumulated_bitflip_probabilities``, slicing the readout
vectors).  This bench runs the Figure-8 BV job batch twice — once with the
three uniform IBM models, once with a synthetic calibration snapshot
attached to each machine — with transpiles and ideal distributions
pre-warmed so the sampling phase dominates, and asserts the heterogeneous
path costs at most 1.5x the uniform fast path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.calibration import synthetic_snapshot
from repro.datasets.ibm_suite import default_ibm_devices
from repro.circuits.bv import bernstein_vazirani, random_bv_key
from repro.engine import CircuitJob, ExecutionEngine

_QUBIT_RANGE = (5, 12)
_KEYS_PER_SIZE = 2
_SHOTS = 8192
_SEED = 8
_SPREAD = 0.3


def _fig8_jobs(calibrated: bool) -> list[CircuitJob]:
    """The Figure-8 BV sweep, with or without per-machine snapshots."""
    rng = np.random.default_rng(_SEED)
    jobs: list[CircuitJob] = []
    for device in default_ibm_devices():
        noise_model = device.noise_model
        if calibrated:
            noise_model = noise_model.with_calibration(
                synthetic_snapshot(device, seed=_SEED, spread=_SPREAD)
            )
        for num_qubits in range(_QUBIT_RANGE[0], _QUBIT_RANGE[1] + 1):
            for key_index in range(_KEYS_PER_SIZE):
                secret_key = random_bv_key(num_qubits, rng)
                jobs.append(
                    CircuitJob(
                        job_id=f"bv-{device.name}-n{num_qubits}-k{key_index}",
                        circuit=bernstein_vazirani(secret_key),
                        shots=_SHOTS,
                        noise_model=noise_model,
                        coupling_map=device.coupling_map,
                        basis_gates=device.basis_gates,
                        device=device,
                    )
                )
    return jobs


def _sampling_seconds(engine: ExecutionEngine, calibrated: bool, repeats: int = 3) -> float:
    """Best-of-N wall time of the sampling phase (prepare work pre-warmed).

    Each repeat uses a fresh seed so the sample cache never short-circuits
    the path under measurement; transpiles and ideal distributions stay
    cached across repeats (they do not depend on the noise model).
    """
    engine.run(_fig8_jobs(calibrated), seed=_SEED)  # warm transpile/ideal tiers
    best = float("inf")
    for repeat in range(repeats):
        jobs = _fig8_jobs(calibrated)
        start = time.perf_counter()
        results = engine.run(jobs, seed=_SEED + 1 + repeat)
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(jobs)
        counters = engine.last_run["counters"]
        assert counters.get("engine.transpiles_computed", 0) == 0, "prepare work must be pre-warmed"
        assert counters.get("engine.ideals_computed", 0) == 0, "prepare work must be pre-warmed"
        assert counters.get("cache.sample.hits", 0) == 0, "sampling must actually run"
    return best


def test_heterogeneous_sampling_within_1p5x_of_uniform(benchmark):
    engine = ExecutionEngine()
    uniform_seconds = _sampling_seconds(engine, calibrated=False)
    calibrated_seconds = benchmark.pedantic(
        lambda: _sampling_seconds(engine, calibrated=True), rounds=1, iterations=1
    )

    ratio = calibrated_seconds / max(uniform_seconds, 1e-9)
    print()
    print(f"uniform fast path     : {uniform_seconds * 1e3:8.1f} ms")
    print(f"calibrated (hetero)   : {calibrated_seconds * 1e3:8.1f} ms")
    print(f"overhead ratio        : {ratio:8.2f}x  (budget: 1.50x)")
    assert ratio <= 1.5, f"heterogeneous sampler path costs {ratio:.2f}x the uniform fast path"


def test_calibrated_rows_bit_identical_across_worker_counts():
    """Correctness side of the guard: heterogeneity keeps engine determinism."""
    jobs = _fig8_jobs(calibrated=True)[:12]
    serial = ExecutionEngine(max_workers=1).run(jobs, seed=_SEED)
    parallel = ExecutionEngine(max_workers=4).run(_fig8_jobs(calibrated=True)[:12], seed=_SEED)
    for a, b in zip(serial, parallel):
        assert a.job_id == b.job_id
        assert a.noisy.counts() == b.noisy.counts()
