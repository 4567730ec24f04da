"""PR 7 performance profile: reduction trees and streaming shards.

Times the scale-out shard path and writes the measurements to
``BENCH_PR7.json`` at the repo root (CI uploads it as an artifact):

* **Tree vs flat merge at 1M shots** — the pairwise reduction tree over a
  million sampled shots' chunk segments must be no slower than the flat
  vstack-and-reaggregate merge it replaced (guarded at the jitter floor),
  while producing bit-identical probabilities.
* **Bounded-memory streaming sweep** — a million-shot sharded engine run
  (serial executor = the streaming degenerate case) plus a wide-register
  synthetic stream: peak live segments stay at O(log chunks) and the
  process RSS delta stays bounded — no O(chunks) barrier collection.

Run locally with::

    PYTHONPATH=src python -m pytest benchmarks/perf_reduction.py -x -q -s
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

#: Wall-clock guards tolerate scheduler jitter: the requirement is "no
#: regression" (ratio ~1.0), asserted at 0.85 so a noisy CI box cannot flake
#: a genuinely neutral result.
_JITTER_FLOOR = 0.85

#: RSS guard for the streaming paths, far above the O(log chunks) live set
#: but far below what an O(chunks) barrier collection of the same sweep
#: would hold.
_RSS_BOUND_MB = 512


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="session")
def bench_record():
    """Accumulates section results; written to BENCH_PR7.json at session end."""
    record: dict[str, object] = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        },
    }
    yield record
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_PATH}")


def _million_shot_segments(chunk_shots: int = 131_072, chunks: int = 8):
    """Real sampled chunk segments for ~1M shots of a 17-qubit BV circuit."""
    from repro.backends import get_backend
    from repro.circuits.bv import bernstein_vazirani
    from repro.quantum.device import get_device
    from repro.quantum.sampler import sample_bitflip_chunk

    circuit = bernstein_vazirani("1011001011001011")
    device = get_device("ibm-paris")
    ideal = get_backend("statevector").ideal_distribution(circuit)
    segments = []
    for chunk in range(chunks):
        rng = np.random.default_rng(np.random.SeedSequence((7, 0, chunk)))
        segments.append(
            sample_bitflip_chunk(
                circuit, device.noise_model, chunk_shots, rng, ideal=ideal
            )
        )
    return circuit.num_qubits, segments


def test_tree_merge_no_slower_than_flat_at_1m_shots(bench_record):
    """Guard: reduction tree >= flat merge on a million sampled shots."""
    from repro.engine.reduction import tree_merge_segments
    from repro.quantum.sampler import merge_counted_chunks

    num_bits, segments = _million_shot_segments()
    total_shots = int(sum(counts.sum() for _, counts in segments))
    assert total_shots >= 1_000_000

    # Warm both paths, then best-of-three each (interleaved would bias the
    # second path toward warm caches; merges are cheap enough to repeat).
    merge_counted_chunks(segments, num_bits)
    tree_merge_segments(segments, num_bits)
    flat_seconds = min(
        _timed(lambda: merge_counted_chunks(segments, num_bits)) for _ in range(3)
    )
    tree_seconds = min(
        _timed(lambda: tree_merge_segments(segments, num_bits)) for _ in range(3)
    )

    flat = merge_counted_chunks(segments, num_bits)
    tree = tree_merge_segments(segments, num_bits)
    assert tree.probabilities() == flat.probabilities(), (
        "tree merge is not bit-identical to the flat merge"
    )

    ratio = flat_seconds / tree_seconds
    bench_record["tree_vs_flat_merge_1m"] = {
        "shots": total_shots,
        "chunks": len(segments),
        "num_bits": num_bits,
        "flat_seconds": flat_seconds,
        "tree_seconds": tree_seconds,
        "speedup": ratio,
        "bit_identical": True,
    }
    print(
        f"\n1M-shot merge: flat {flat_seconds * 1e3:.2f}ms -> "
        f"tree {tree_seconds * 1e3:.2f}ms ({ratio:.2f}x)"
    )
    assert ratio >= _JITTER_FLOOR, (
        f"tree merge regressed vs flat merge: {ratio:.2f}x < {_JITTER_FLOOR}x"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_streaming_sweep_bounded_memory(bench_record):
    """Million-shot sharded engine run + wide-register stream: bounded memory."""
    from repro.circuits.bv import bernstein_vazirani
    from repro.engine import CircuitJob, ExecutionEngine
    from repro.engine.reduction import ReductionTree
    from repro.quantum.device import get_device

    rss_before = _peak_rss_mb()

    # Engine path: 1M shots in 8 chunks through the serial (streaming)
    # executor — the merged histogram folds as chunks complete.
    device = get_device("ibm-paris")
    engine = ExecutionEngine(max_workers=1, sample_shard_shots=131_072)
    try:
        job = CircuitJob(
            job_id="streaming-sweep",
            circuit=bernstein_vazirani("1011001011001011"),
            shots=1_048_576,
            noise_model=device.noise_model,
        )
        start = time.perf_counter()
        engine.run([job], seed=7)
        engine_seconds = time.perf_counter() - start
        stats = engine.last_run_stats
    finally:
        engine.close()
    assert stats.sample_shards == 8
    assert stats.reduction_tree_depth == 3
    # In-order streaming: at most one live segment per level plus the
    # arriving leaf — never all 8 chunks at once.
    assert stats.reduction_peak_live_segments <= stats.reduction_tree_depth + 1

    # Wide-register stream: 256 chunks x 100 bits fed in order; the tree
    # must hold O(log chunks) live segments while RSS stays flat.
    rng = np.random.default_rng(11)
    tree = ReductionTree(256, 100)
    for chunk in range(256):
        from repro.core.bitstring import PackedOutcomes

        bits = rng.integers(0, 2, size=(1_024, 100), dtype=np.uint8)
        packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
        tree.add(chunk, packed.words, counts)
    wide = tree.distribution()
    wide_stats = tree.stats()
    assert wide_stats.depth == 8
    assert wide_stats.peak_live_segments <= wide_stats.depth + 1
    assert wide.num_bits == 100

    rss_delta = _peak_rss_mb() - rss_before
    bench_record["streaming_sweep"] = {
        "engine_shots": 1_048_576,
        "engine_chunks": 8,
        "engine_seconds": engine_seconds,
        "engine_peak_live_segments": stats.reduction_peak_live_segments,
        "wide_chunks": 256,
        "wide_bits": 100,
        "wide_peak_live_segments": wide_stats.peak_live_segments,
        "peak_rss_delta_mb": rss_delta,
    }
    print(
        f"\nstreaming sweep: engine 1M shots {engine_seconds:.2f}s, wide stream "
        f"peak {wide_stats.peak_live_segments} live segments, "
        f"RSS delta {rss_delta:.0f} MiB"
    )
    assert rss_delta < _RSS_BOUND_MB, (
        f"streaming sweep grew RSS by {rss_delta:.0f} MiB (bound {_RSS_BOUND_MB})"
    )
