"""Tests for the shared execution engine: caching, determinism, parallelism."""

from __future__ import annotations

import pytest

from repro.calibration import synthetic_snapshot
from repro.circuits.bv import bernstein_vazirani
from repro.circuits.qaoa import default_qaoa_parameters, qaoa_circuit
from repro.engine import CircuitJob, ExecutionCache, ExecutionEngine
from repro.engine.hashing import circuit_fingerprint, transpile_key
from repro.exceptions import EngineError
from repro.obs import Observation
from repro.obs.metrics import MetricsScope
from repro.maxcut.graphs import regular_graph_problem
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import ibm_paris


def _bv_jobs(widths=(4, 5, 6), keys_per_width=2, shots=1024, transpile=True, calibrated=False):
    device = ibm_paris()
    noise_model, suffix = device.noise_model, ""
    if calibrated:
        noise_model = noise_model.with_calibration(synthetic_snapshot(device, seed=8, spread=0.3))
        suffix = "-calibrated"
    jobs = []
    for num_qubits in widths:
        for key_index in range(keys_per_width):
            jobs.append(
                CircuitJob(
                    job_id=f"bv-n{num_qubits}-k{key_index}{suffix}",
                    circuit=bernstein_vazirani("1" * num_qubits),
                    shots=shots,
                    noise_model=noise_model,
                    coupling_map=device.coupling_map if transpile else None,
                    basis_gates=device.basis_gates if transpile else None,
                    metadata={"num_qubits": num_qubits},
                )
            )
    return jobs


class TestHashing:
    def test_fingerprint_ignores_name_but_not_structure(self):
        a = QuantumCircuit(2, name="left").h(0).cx(0, 1)
        b = QuantumCircuit(2, name="right").h(0).cx(0, 1)
        c = QuantumCircuit(2).h(0).cx(1, 0)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)

    def test_fingerprint_sensitive_to_params_and_width(self):
        a = QuantumCircuit(1).rz(0.5, 0)
        b = QuantumCircuit(1).rz(0.6, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)
        assert circuit_fingerprint(QuantumCircuit(2).h(0)) != circuit_fingerprint(
            QuantumCircuit(3).h(0)
        )

    def test_transpile_key_includes_target(self):
        device = ibm_paris()
        circuit = bernstein_vazirani("101")
        with_map = transpile_key(circuit, device.coupling_map, device.basis_gates)
        without_map = transpile_key(circuit, None, device.basis_gates)
        other_basis = transpile_key(circuit, device.coupling_map, ("rz", "sx", "x", "cz"))
        assert len({with_map, without_map, other_basis}) == 3


class TestCacheAccounting:
    def test_within_batch_dedup(self):
        engine = ExecutionEngine()
        results = engine.run(_bv_jobs(), seed=1)
        counters = engine.last_run["counters"]
        assert counters["engine.jobs"] == 6
        # One transpile + one ideal simulation per unique width; the second
        # key of each width reuses both.
        assert counters["engine.transpiles_computed"] == 3
        assert counters["engine.ideals_computed"] == 3
        assert sum(result.transpile_cache_hit for result in results) == 3
        assert sum(result.ideal_cache_hit for result in results) == 3

    def test_second_run_is_fully_cached(self):
        # Every kind of sample goes through the one look-up: single-stream
        # jobs and a sharded job.
        noise_model = ibm_paris().noise_model
        jobs = _bv_jobs() + [
            CircuitJob(
                job_id="sharded",
                circuit=bernstein_vazirani("101"),
                shots=10_000,
                noise_model=noise_model,
            ),
        ]
        engine = ExecutionEngine(sample_shard_shots=4_096)
        first = engine.run(jobs, seed=1)
        counters = engine.last_run["counters"]
        assert counters["sampler.jobs"] == 6
        assert counters["engine.sharded_jobs"] == 1
        second = engine.run(jobs, seed=1)
        counters = engine.last_run["counters"]
        assert counters.get("engine.transpiles_computed", 0) == 0
        assert counters.get("engine.ideals_computed", 0) == 0
        assert counters["cache.sample.hits"] == len(jobs)
        assert [name for name in counters if name.startswith("sampler.")] == []
        assert sum(result.transpile_cache_hit for result in second) == 6
        assert sum(result.ideal_cache_hit for result in second) == len(jobs)
        for before, after in zip(first, second):
            assert before.noisy.counts() == after.noisy.counts()
            assert after.transpile_cache_hit == after.transpiled
            assert after.ideal_cache_hit and after.sample_cache_hit
            assert after.prepare_seconds == 0.0 and after.sample_seconds == 0.0

    def test_per_job_trace_rows(self):
        engine = ExecutionEngine()
        results = engine.run(_bv_jobs(widths=(4,), keys_per_width=2), seed=1)
        owner, duplicate = results
        assert owner.transpile_cache_hit is False and owner.ideal_cache_hit is False
        assert duplicate.transpile_cache_hit is True and duplicate.ideal_cache_hit is True
        row = duplicate.as_trace_row()
        assert row["job_id"] == "bv-n4-k1"
        assert row["transpile_cache_hit"] is True
        assert row["sample_seconds"] > 0.0

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        first = ExecutionEngine(cache_dir=str(cache_dir))
        first.run(_bv_jobs(), seed=1)
        assert any(cache_dir.rglob("*.pkl"))

        fresh = ExecutionEngine(cache_dir=str(cache_dir))
        fresh.run(_bv_jobs(), seed=1)
        counters = fresh.last_run["counters"]
        assert counters.get("engine.transpiles_computed", 0) == 0
        assert counters.get("engine.ideals_computed", 0) == 0

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        ExecutionEngine(cache_dir=str(cache_dir)).run(_bv_jobs(widths=(4,), keys_per_width=1), seed=1)
        for path in cache_dir.rglob("*.pkl"):
            path.write_bytes(b"not a pickle")
        healed = ExecutionEngine(cache_dir=str(cache_dir))
        results = healed.run(_bv_jobs(widths=(4,), keys_per_width=1), seed=1)
        assert results[0].noisy.num_bits == 4
        # Recomputed, no crash.
        assert healed.last_run["counters"]["engine.transpiles_computed"] == 1

    def test_cache_counters(self):
        cache = ExecutionCache()
        with MetricsScope() as scope:
            assert cache.get("ideal", "missing") is None
            cache.put("ideal", "k", object())
            assert cache.get("ideal", "k") is not None
        counters = scope.registry.counters
        assert counters["cache.ideal.hits"] == 1 and counters["cache.ideal.misses"] == 1
        with pytest.raises(EngineError):
            cache.get("histograms", "k")

    def test_memory_tier_is_bounded_lru(self):
        cache = ExecutionCache(max_memory_entries=2)
        cache.put("ideal", "a", "A")
        cache.put("ideal", "b", "B")
        assert cache.get("ideal", "a") == "A"  # refresh a -> b is now oldest
        cache.put("ideal", "c", "C")
        assert cache.num_memory_entries == 2
        assert cache.get("ideal", "b") is None  # evicted
        assert cache.get("ideal", "a") == "A"

    def test_disk_write_failure_degrades_to_memory_only(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        cache = ExecutionCache(cache_dir=str(cache_dir))
        # Put a file at the namespace directory's path so the disk
        # write fails (works even when the suite runs as root, for whom
        # permission bits are advisory).
        (cache_dir / "ideal").write_bytes(b"roadblock")
        with pytest.warns(UserWarning, match="continuing memory-only"):
            cache.put("ideal", "k", "V")
        assert cache.get("ideal", "k") == "V"  # memory tier still serves it


class TestDeterministicParallelism:
    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, max_workers):
        def jobs():
            return _bv_jobs() + _bv_jobs(calibrated=True)

        serial = ExecutionEngine(max_workers=1).run(jobs(), seed=9)
        parallel = ExecutionEngine(max_workers=max_workers).run(jobs(), seed=9)
        assert len(serial) == len(parallel) == 12
        for a, b in zip(serial, parallel):
            assert a.job_id == b.job_id
            assert a.noisy.counts() == b.noisy.counts()
            assert a.ideal.counts() == b.ideal.counts()
            assert a.num_swaps == b.num_swaps
            assert a.two_qubit_gates == b.two_qubit_gates

    def test_qaoa_jobs_identical_without_transpile(self):
        problem = regular_graph_problem(6, degree=3, seed=4)
        device = ibm_paris()
        jobs = [
            CircuitJob(
                job_id=f"qaoa-p{p}",
                circuit=qaoa_circuit(problem, default_qaoa_parameters(p)),
                shots=2048,
                noise_model=device.noise_model,
            )
            for p in (1, 2, 3)
        ]
        serial = ExecutionEngine(max_workers=1).run(jobs, seed=5)
        parallel = ExecutionEngine(max_workers=4).run(jobs, seed=5)
        for a, b in zip(serial, parallel):
            assert a.noisy.counts() == b.noisy.counts()

    def test_seed_changes_results(self):
        jobs = _bv_jobs(widths=(5,), keys_per_width=1)
        a = ExecutionEngine().run(jobs, seed=1)[0]
        b = ExecutionEngine().run(jobs, seed=2)[0]
        assert a.noisy.counts() != b.noisy.counts()

    def test_pool_is_reused_across_runs_and_closeable(self):
        with ExecutionEngine(max_workers=2) as engine:
            engine.run(_bv_jobs(widths=(4,), keys_per_width=2), seed=1)
            pool = engine._pool
            assert pool is not None
            engine.run(_bv_jobs(widths=(5,), keys_per_width=2), seed=1)
            assert engine._pool is pool  # same pool, no respawn per batch
        assert engine._pool is None  # context exit shuts it down
        # The engine recovers after close: the next run recreates the pool.
        results = engine.run(_bv_jobs(widths=(4,), keys_per_width=2), seed=1)
        assert len(results) == 2
        engine.close()

    def test_map_timed_matches_serial(self):
        items = [1, 2, 3, 4]
        serial = ExecutionEngine(max_workers=1).map_timed(_square, items)
        parallel = ExecutionEngine(max_workers=2).map_timed(_square, items)
        assert [r for r, _ in serial] == [1, 4, 9, 16]
        assert [r for r, _ in parallel] == [1, 4, 9, 16]
        assert all(seconds >= 0.0 for _, seconds in serial + parallel)


def _square(value: int) -> int:
    return value * value


class TestValidation:
    def test_rejects_duplicate_job_ids(self):
        jobs = _bv_jobs(widths=(4,), keys_per_width=1) * 2
        with pytest.raises(EngineError):
            ExecutionEngine().run(jobs, seed=1)

    def test_rejects_nonpositive_shots_and_workers(self):
        device = ibm_paris()
        with pytest.raises(EngineError):
            CircuitJob(
                job_id="bad",
                circuit=bernstein_vazirani("11"),
                shots=0,
                noise_model=device.noise_model,
            )
        with pytest.raises(EngineError):
            ExecutionEngine(max_workers=0)

    def test_jobs_take_no_method(self):
        with pytest.raises(TypeError):
            CircuitJob(
                job_id="job",
                circuit=bernstein_vazirani("11"),
                shots=16,
                noise_model=ibm_paris().noise_model,
                method="bitflip",
            )

    def test_rejects_negative_seed(self):
        with pytest.raises(EngineError):
            ExecutionEngine().run(_bv_jobs(widths=(4,), keys_per_width=1), seed=-3)

    def test_empty_batch_is_fine(self):
        engine = ExecutionEngine()
        assert engine.run([], seed=0) == []
        assert engine.last_run["counters"].get("engine.jobs", 0) == 0


class TestSampleSpans:
    def test_a_sample_span_names_its_job_and_shots(self):
        jobs = _bv_jobs(widths=(4, 5), keys_per_width=1, shots=512, transpile=False)
        with Observation() as observation:
            ExecutionEngine().run(jobs, seed=2)
        spans = [
            event["args"]
            for event in observation.recorder.events()
            if event["name"] == "engine.task.sample"
        ]
        assert sorted((args["job"], args["shots"]) for args in spans) == [(0, 512), (1, 512)]
        assert all(set(args) == {"job", "shots", "depth"} for args in spans)


class TestWidthValidation:
    def test_circuit_wider_than_device_fails_at_submission(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="too-wide",
            circuit=bernstein_vazirani("1" * (device.num_qubits + 1)),
            shots=128,
            noise_model=device.noise_model,
            device=device,
        )
        from repro.exceptions import DeviceError

        with pytest.raises(DeviceError, match=r"ibm-paris.*has 27|27"):
            ExecutionEngine().run([job], seed=0)

    def test_error_names_device_and_both_widths(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="too-wide",
            circuit=bernstein_vazirani("1" * 30),
            shots=128,
            noise_model=device.noise_model,
            device=device,
        )
        from repro.exceptions import DeviceError

        with pytest.raises(DeviceError) as excinfo:
            ExecutionEngine().run([job], seed=0)
        message = str(excinfo.value)
        assert "ibm-paris" in message and "30" in message and "27" in message

    def test_circuit_wider_than_coupling_map_fails_at_submission(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="too-wide-map",
            circuit=bernstein_vazirani("1" * 30),
            shots=128,
            noise_model=device.noise_model,
            coupling_map=device.coupling_map,
        )
        from repro.exceptions import DeviceError

        with pytest.raises(DeviceError, match="coupling map"):
            ExecutionEngine().run([job], seed=0)

    def test_circuit_wider_than_calibration_fails_at_submission(self):
        from repro.calibration import synthetic_snapshot
        from repro.exceptions import DeviceError
        from repro.quantum.coupling import linear_coupling
        from repro.quantum.device import DeviceProfile
        from repro.quantum.noise import NoiseModel

        small = DeviceProfile(
            name="tiny", num_qubits=4, coupling_map=linear_coupling(4), noise_model=NoiseModel()
        )
        calibrated = NoiseModel().with_calibration(synthetic_snapshot(small, seed=0, spread=0.2))
        job = CircuitJob(
            job_id="too-wide-cal",
            circuit=bernstein_vazirani("10101"),
            shots=128,
            noise_model=calibrated,
        )
        with pytest.raises(DeviceError, match="tiny"):
            ExecutionEngine().run([job], seed=0)

    def test_fitting_job_passes(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="fits",
            circuit=bernstein_vazirani("101"),
            shots=128,
            noise_model=device.noise_model,
            device=device,
            coupling_map=device.coupling_map,
            basis_gates=device.basis_gates,
        )
        result = ExecutionEngine().run_single(job, seed=0)
        assert result.noisy.num_bits == 3


class TestCalibrationCacheKeys:
    def test_uniform_and_calibrated_runs_never_collide(self):
        from repro.calibration import synthetic_snapshot
        from repro.engine.hashing import noise_fingerprint, sample_key

        device = ibm_paris()
        circuit = bernstein_vazirani("1011")
        uniform = device.noise_model
        calibrated = uniform.with_calibration(synthetic_snapshot(device, seed=1, spread=0.3))
        assert noise_fingerprint(uniform) != noise_fingerprint(calibrated)
        uniform_key = sample_key(circuit, uniform, 1024, (0, 0))
        calibrated_key = sample_key(circuit, calibrated, 1024, (0, 0))
        assert uniform_key != calibrated_key

    def test_different_snapshots_get_different_keys(self):
        from repro.calibration import synthetic_snapshot
        from repro.engine.hashing import noise_fingerprint

        device = ibm_paris()
        a = device.noise_model.with_calibration(synthetic_snapshot(device, seed=1, spread=0.3))
        b = device.noise_model.with_calibration(synthetic_snapshot(device, seed=2, spread=0.3))
        drifted = device.noise_model.with_calibration(
            synthetic_snapshot(device, seed=1, spread=0.3).drifted(2.0)
        )
        assert len({noise_fingerprint(a), noise_fingerprint(b), noise_fingerprint(drifted)}) == 3

    def test_sample_key_pins_seed_entropy(self):
        from repro.engine.hashing import sample_key

        device = ibm_paris()
        circuit = bernstein_vazirani("1011")
        base = sample_key(circuit, device.noise_model, 1024, (0, 0))
        assert base == sample_key(circuit, device.noise_model, 1024, (0, 0))
        assert base != sample_key(circuit, device.noise_model, 1024, (0, 1))
        assert base != sample_key(circuit, device.noise_model, 2048, (0, 0))


class TestSampleCache:
    def test_second_run_hits_the_sample_tier(self):
        engine = ExecutionEngine()
        first = engine.run(_bv_jobs(), seed=1)
        assert engine.last_run["counters"].get("cache.sample.hits", 0) == 0
        second = engine.run(_bv_jobs(), seed=1)
        assert engine.last_run["counters"]["cache.sample.hits"] == len(second)
        for before, after in zip(first, second):
            assert before.noisy.counts() == after.noisy.counts()
            assert after.sample_cache_hit and after.sample_seconds == 0.0

    def test_different_seed_misses_the_sample_tier(self):
        engine = ExecutionEngine()
        engine.run(_bv_jobs(), seed=1)
        results = engine.run(_bv_jobs(), seed=2)
        assert engine.last_run["counters"].get("cache.sample.hits", 0) == 0
        assert all(not result.sample_cache_hit for result in results)

    def test_cached_samples_match_an_uncached_engine(self):
        shared = ExecutionEngine()
        shared.run(_bv_jobs(), seed=1)
        warm = shared.run(_bv_jobs(), seed=1)
        cold = ExecutionEngine().run(_bv_jobs(), seed=1)
        for cached, fresh in zip(warm, cold):
            assert cached.noisy.counts() == fresh.noisy.counts()


class TestResultPermutationAndExecutedCircuit:
    def test_transpiled_result_exposes_permutation_and_executed_circuit(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="routed",
            circuit=bernstein_vazirani("1" * 8),
            shots=256,
            noise_model=device.noise_model,
            coupling_map=device.coupling_map,
            basis_gates=device.basis_gates,
        )
        result = ExecutionEngine().run_single(job, seed=0)
        assert result.measurement_permutation is not None
        assert sorted(result.measurement_permutation) == list(range(8))
        # Routing SWAPs make the executed circuit strictly heavier than the
        # logical one — this is what calibration-aware consumers must see.
        assert result.executed_circuit is not None
        assert result.executed_circuit.num_two_qubit_gates() > job.circuit.num_two_qubit_gates()

    def test_untranspiled_result_has_no_permutation(self):
        device = ibm_paris()
        job = CircuitJob(
            job_id="logical",
            circuit=bernstein_vazirani("101"),
            shots=256,
            noise_model=device.noise_model,
        )
        result = ExecutionEngine().run_single(job, seed=0)
        assert result.measurement_permutation is None
        assert result.executed_circuit is job.circuit
