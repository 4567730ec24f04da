"""Engine phase-3 batching: grouped multi-seed sampling + shot sharding.

The grouping and sharding rewrites must be invisible in the results: grouped
jobs draw exactly the histograms their lone per-job RNG streams would, and
sharded million-shot jobs produce bit-identical rows for any worker count,
with the shard layout folded into the sample cache key so the two stream
layouts can never alias.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends import get_backend
from repro.calibration.generators import snapshot_noise_model
from repro.circuits.bv import bernstein_vazirani
from repro.circuits.ghz import ghz_circuit
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine.hashing import sample_key
from repro.exceptions import EngineError, MergeError
from repro.quantum.device import get_device
from repro.quantum.sampler import (
    merge_counted_chunks,
    sample_bitflip_batch,
    sample_bitflip_chunk,
    sample_bitflip_distribution,
)


@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _jobs(device, count=4, shots=2048, key="10110"):
    circuit = bernstein_vazirani(key)
    return [
        CircuitJob(
            job_id=f"job-{index}",
            circuit=circuit,
            shots=shots,
            noise_model=device.noise_model,
        )
        for index in range(count)
    ]


class TestGroupedSampling:
    def test_grouped_results_match_lone_draws_exactly(self, device):
        jobs = _jobs(device, count=5)
        engine = ExecutionEngine()
        results = engine.run(jobs, seed=7)
        assert engine.last_run_stats.sample_groups == 1
        assert engine.last_run_stats.grouped_sample_jobs == 5
        ideal = get_backend("statevector").ideal_distribution(jobs[0].circuit)
        for index, result in enumerate(results):
            rng = np.random.default_rng(np.random.SeedSequence((7, index)))
            lone = sample_bitflip_distribution(
                jobs[0].circuit, device.noise_model, jobs[0].shots, rng=rng, ideal=ideal
            )
            assert result.noisy.counts() == lone.counts()

    def test_batch_function_matches_lone_draws(self, device):
        circuit = bernstein_vazirani("110")
        ideal = get_backend("statevector").ideal_distribution(circuit)
        requests = [
            (500 + 100 * index, np.random.default_rng(np.random.SeedSequence((3, index))))
            for index in range(3)
        ]
        batched = sample_bitflip_batch(circuit, device.noise_model, requests, ideal=ideal)
        for index, noisy in enumerate(batched):
            rng = np.random.default_rng(np.random.SeedSequence((3, index)))
            lone = sample_bitflip_distribution(
                circuit, device.noise_model, 500 + 100 * index, rng=rng, ideal=ideal
            )
            assert noisy.counts() == lone.counts()

    def test_distinct_noise_models_never_share_a_group(self, device):
        circuit = bernstein_vazirani("1011")
        scaled = device.noise_model.scaled(2.0)
        jobs = [
            CircuitJob(job_id="a", circuit=circuit, shots=512, noise_model=device.noise_model),
            CircuitJob(job_id="b", circuit=circuit, shots=512, noise_model=scaled),
        ]
        engine = ExecutionEngine()
        engine.run(jobs, seed=1)
        assert engine.last_run_stats.sample_groups == 2
        assert engine.last_run_stats.grouped_sample_jobs == 0

    def test_grouping_is_invisible_to_worker_count(self, device):
        jobs = _jobs(device, count=6, shots=1024)
        serial = ExecutionEngine(max_workers=1).run(jobs, seed=5)
        with ExecutionEngine(max_workers=2) as engine:
            parallel = engine.run(jobs, seed=5)
        for lhs, rhs in zip(serial, parallel):
            assert lhs.noisy.counts() == rhs.noisy.counts()

    def test_empty_batch_request_list(self, device):
        assert sample_bitflip_batch(bernstein_vazirani("11"), device.noise_model, []) == []


class TestShardedSampling:
    def test_sharded_rows_bit_identical_across_worker_counts(self, device):
        job = _jobs(device, count=1, shots=40_000)[0]
        tables = []
        for workers in (1, 2, 4):
            with ExecutionEngine(max_workers=workers, sample_shard_shots=8_192) as engine:
                result = engine.run([job], seed=3)[0]
                assert engine.last_run_stats.sharded_jobs == 1
                assert engine.last_run_stats.sample_shards == 5
            tables.append(result.noisy.counts())
        assert tables[0] == tables[1] == tables[2]
        assert sum(tables[0].values()) == 40_000

    def test_shard_layout_splits_cache_keys(self, device):
        circuit = bernstein_vazirani("101")
        base = dict(
            noise_model=device.noise_model, shots=10_000, method="bitflip", entropy=(0, 0)
        )
        unsharded = sample_key(circuit, **base)
        sharded = sample_key(circuit, **base, shard_shots=4_096)
        other_layout = sample_key(circuit, **base, shard_shots=2_048)
        assert len({unsharded, sharded, other_layout}) == 3

    def test_sharded_job_hits_cache_on_rerun(self, device):
        job = _jobs(device, count=1, shots=20_000)[0]
        engine = ExecutionEngine(sample_shard_shots=4_096)
        first = engine.run([job], seed=2)[0]
        assert engine.last_run_stats.sample_cache_hits == 0
        second = engine.run([job], seed=2)[0]
        assert engine.last_run_stats.sample_cache_hits == 1
        # Sampling counters track computed work only: nothing sharded on a hit.
        assert engine.last_run_stats.sharded_jobs == 0
        assert engine.last_run_stats.sample_shards == 0
        assert first.noisy.counts() == second.noisy.counts()

    def test_shard_threshold_env_and_validation(self, device, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_SHARD_SHOTS", "5000")
        assert ExecutionEngine().sample_shard_shots == 5000
        monkeypatch.setenv("REPRO_SAMPLE_SHARD_SHOTS", "soon")
        with pytest.raises(EngineError):
            ExecutionEngine()
        monkeypatch.delenv("REPRO_SAMPLE_SHARD_SHOTS")
        with pytest.raises(EngineError):
            ExecutionEngine(sample_shard_shots=0)

    def test_chunk_merge_is_exact_and_order_stable(self, device):
        circuit = bernstein_vazirani("1101")
        ideal = get_backend("statevector").ideal_distribution(circuit)
        chunks = []
        for chunk_index in range(3):
            rng = np.random.default_rng(np.random.SeedSequence((9, 0, chunk_index)))
            chunks.append(
                sample_bitflip_chunk(circuit, device.noise_model, 700, rng, ideal=ideal)
            )
        merged = merge_counted_chunks(chunks, circuit.num_qubits)
        assert sum(merged.counts().values()) == 3 * 700
        # counts are integer-valued floats: any merge order is exactly equal
        reversed_merge = merge_counted_chunks(list(reversed(chunks)), circuit.num_qubits)
        assert merged.counts() == reversed_merge.counts()

    def test_merge_rejects_empty(self):
        with pytest.raises(MergeError):
            merge_counted_chunks([], 4)

    def test_trajectory_jobs_are_never_sharded(self, device):
        job = CircuitJob(
            job_id="traj",
            circuit=bernstein_vazirani("101"),
            shots=30_000,
            noise_model=device.noise_model,
            method="trajectory",
        )
        engine = ExecutionEngine(sample_shard_shots=1_000)
        result = engine.run([job], seed=0)[0]
        assert engine.last_run_stats.sharded_jobs == 0
        assert engine.last_run_stats.sample_shards == 0
        assert sum(result.noisy.counts().values()) == 30_000


class TestShardProvenance:
    """Each shard layout is counted with its source: override or heuristic."""

    def test_env_threshold_is_an_override(self, device, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_SHARD_SHOTS", "5000")
        engine = ExecutionEngine()
        engine.run(_jobs(device, count=1, shots=8_192), seed=3)
        stats = engine.last_run_stats
        assert stats.sample_shards == 2  # 5000 + 3192
        assert stats.planner_decisions["shard"] == {"chunk:5000/override": 1}

    def test_constructor_threshold_is_an_override(self, device):
        engine = ExecutionEngine(sample_shard_shots=4_096)
        engine.run(_jobs(device, count=1, shots=8_192), seed=3)
        stats = engine.last_run_stats
        assert stats.sample_shards == 2
        assert stats.planner_decisions["shard"] == {"chunk:4096/override": 1}

    def test_default_threshold_is_the_heuristic(self, device):
        engine = ExecutionEngine()
        engine.run(_jobs(device, count=1, shots=8_192), seed=3)
        stats = engine.last_run_stats
        assert stats.sharded_jobs == 0
        assert stats.planner_decisions["shard"] == {"none/heuristic": 1}


def _digest(words: np.ndarray, counts: np.ndarray) -> str:
    return hashlib.sha256(words.tobytes() + counts.tobytes()).hexdigest()


class TestPinnedSamples:
    """The sampled histograms never move: same support, order and counts.

    Each digest covers the packed uint64 words and the float64 counts in
    support order, so a change to how shots are drawn, packed, sorted or
    counted shows here before it reaches a golden row or a cached entry.
    The BV cases have a one-outcome ideal on one word; the GHZ cases add a
    64-outcome ideal and a two-word register under per-qubit calibrated
    noise with scrambled shots.
    """

    circuit = bernstein_vazirani("1011010011")

    def test_batch_job_digest_is_stable(self, device):
        ideal = get_backend("statevector").ideal_distribution(self.circuit)
        rng = np.random.default_rng(np.random.SeedSequence((8, 0)))
        (noisy,) = sample_bitflip_batch(
            self.circuit, device.noise_model, [(32_768, rng)], ideal=ideal
        )
        counts = np.fromiter(noisy.counts().values(), dtype=float)
        assert _digest(noisy.packed().words, counts) == (
            "7cb481ba2c3b59f494e7280f91dec0544f49ebf92232660b21005f15647646a1"
        )

    def test_chunk_digest_is_stable(self, device):
        ideal = get_backend("statevector").ideal_distribution(self.circuit)
        rng = np.random.default_rng(np.random.SeedSequence((8, 0, 0)))
        words, counts = sample_bitflip_chunk(
            self.circuit, device.noise_model, 65_536, rng, ideal=ideal
        )
        assert words.dtype == np.uint64 and counts.dtype == np.float64
        assert _digest(words, counts) == (
            "d75f3bc0f938b1d90a3c0de59f4751b9570a4fc7e719bb64d864d622e49c700f"
        )

    def test_multi_outcome_batch_digest_is_stable(self, device):
        circuit = ghz_circuit(6)
        ideal = get_backend("statevector").ideal_distribution(circuit)
        rng = np.random.default_rng(np.random.SeedSequence((8, 1)))
        (noisy,) = sample_bitflip_batch(circuit, device.noise_model, [(32_768, rng)], ideal=ideal)
        assert noisy.num_outcomes == 64
        counts = np.fromiter(noisy.counts().values(), dtype=float)
        assert _digest(noisy.packed().words, counts) == (
            "ee21e0c5d188107751c722890ce68457fdb8fab4a6888292318458029ac743f8"
        )

    def test_two_word_chunk_digest_is_stable(self):
        wide = get_device("ibm-manhattan")
        noise_model = snapshot_noise_model(wide, spread=0.3, calibration_seed=5)
        circuit = ghz_circuit(65)
        ideal = get_backend("stabilizer").ideal_distribution(circuit)
        rng = np.random.default_rng(np.random.SeedSequence((8, 0, 1)))
        words, counts = sample_bitflip_chunk(circuit, noise_model, 65_536, rng, ideal=ideal)
        assert words.shape == (64_326, 2) and counts.sum() == 65_536
        assert _digest(words, counts) == (
            "51c70273b55e60fb8edb41c3bdf727c076e595b3e5508d3cf118bd8bb45b1886"
        )
