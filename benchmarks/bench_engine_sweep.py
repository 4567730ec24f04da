"""Engine microbenchmark: cached + parallel fig8 sweep vs uncached serial.

Guards the PR-2 tentpole: executing the Figure-8 BV job batch (paper-scale
widths 5-16, three IBM devices) through a warm :class:`ExecutionEngine` —
content-addressed cache populated, ``min(4, cpu_count)`` worker processes —
must be at least 2x faster than the same batch on a cold serial engine,
because the cache eliminates every transpile and ideal statevector
simulation and the workers fan out the per-job sampling.

Worker count is capped at the machine's core count: on a single-core runner
the honest "parallel" configuration is serial, and spawning processes there
would only measure pickling overhead, not the engine.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.circuits.bv import bernstein_vazirani, random_bv_key
from repro.datasets.ibm_suite import default_ibm_devices
from repro.engine import CircuitJob, ExecutionEngine

_QUBIT_RANGE = (5, 16)
_KEYS_PER_SIZE = 2
_SHOTS = 8192
_SEED = 8


def _fig8_jobs() -> list[CircuitJob]:
    """The Figure-8 sweep as an engine batch (identical across engines)."""
    rng = np.random.default_rng(_SEED)
    jobs: list[CircuitJob] = []
    for device in default_ibm_devices():
        for num_qubits in range(_QUBIT_RANGE[0], _QUBIT_RANGE[1] + 1):
            for key_index in range(_KEYS_PER_SIZE):
                secret_key = random_bv_key(num_qubits, rng)
                jobs.append(
                    CircuitJob(
                        job_id=f"bv-{device.name}-n{num_qubits}-k{key_index}",
                        circuit=bernstein_vazirani(secret_key),
                        shots=_SHOTS,
                        noise_model=device.noise_model,
                        coupling_map=device.coupling_map,
                        basis_gates=device.basis_gates,
                    )
                )
    return jobs


def _timed_run(engine: ExecutionEngine) -> tuple[float, list]:
    start = time.perf_counter()
    results = engine.run(_fig8_jobs(), seed=_SEED)
    elapsed = time.perf_counter() - start
    assert len(results) == 3 * (_QUBIT_RANGE[1] - _QUBIT_RANGE[0] + 1) * _KEYS_PER_SIZE
    return elapsed, results


def test_cached_parallel_sweep_beats_uncached_serial(benchmark):
    workers = min(4, os.cpu_count() or 1)

    cold = ExecutionEngine(max_workers=1)
    cold_seconds, cold_results = _timed_run(cold)

    # Same batch, warm cache (shared with the cold engine), worker pool.
    warm = ExecutionEngine(max_workers=workers, cache=cold.cache)
    warm_seconds, warm_results = benchmark.pedantic(
        lambda: _timed_run(warm), rounds=1, iterations=1
    )
    warm_counters = warm.last_run["counters"]
    assert warm_counters.get("engine.transpiles_computed", 0) == 0, "warm run must not re-transpile"
    assert warm_counters.get("engine.ideals_computed", 0) == 0, "warm run must not re-simulate"

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    prepare_seconds = sum(result.prepare_seconds for result in cold_results)
    sample_seconds = sum(result.sample_seconds for result in cold_results)
    print()
    print(f"uncached serial      : {cold_seconds * 1e3:8.1f} ms "
          f"(prepare {prepare_seconds * 1e3:.1f} ms, "
          f"sample {sample_seconds * 1e3:.1f} ms, {len(cold_results)} jobs)")
    print(f"cached + {workers} worker(s): {warm_seconds * 1e3:8.1f} ms "
          f"({sum(result.transpile_cache_hit for result in warm_results)} transpile hits, "
          f"{sum(result.ideal_cache_hit for result in warm_results)} ideal hits)")
    print(f"speedup              : {speedup:8.2f}x")
    assert speedup >= 2.0, f"cached+parallel sweep only {speedup:.2f}x faster than uncached serial"


def test_parallel_rows_bit_identical_to_serial():
    """Correctness side of the guard: worker count never changes the rows."""
    serial = ExecutionEngine(max_workers=1).run(_fig8_jobs()[:12], seed=_SEED)
    parallel = ExecutionEngine(max_workers=4).run(_fig8_jobs()[:12], seed=_SEED)
    for a, b in zip(serial, parallel):
        assert a.job_id == b.job_id
        assert a.noisy.counts() == b.noisy.counts()
