"""HAMMER through the engine's cache: the content key, pinned outputs, hits,
dedupe and worker counts.

``ExecutionEngine.hammer`` serves each ``(distribution, config)`` request
from the ``"hammer"`` namespace under :func:`hammer_key`.  The key must
change with anything that can move an output bit and stay equal for the
spellings of one config; a hit and a deduplicated request must equal what
:func:`repro.core.hammer.hammer` computes, at any ``max_workers``.
"""

from __future__ import annotations

import hashlib
import pickle
import sys

import numpy as np
import pytest

from repro.core import kernels, tuning
from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig, hammer
from repro.core.weights import (
    _SCHEMES,
    ExponentialDecayWeights,
    InverseChsWeights,
    NoiseAwareWeights,
    WeightScheme,
)
from repro.engine import ExecutionEngine
from repro.engine.hashing import hammer_key
from repro.exceptions import EngineError
from repro.experiments.bv_study import BvStudyConfig, run_bv_study
from repro.obs import Observation

#: ``sys.modules`` reaches the module: ``import repro.core.hammer`` binds the
#: function that ``repro.core`` re-exports under the same name.
HAMMER_MODULE = sys.modules["repro.core.hammer"]


def _histogram(num_bits: int = 6, size: int = 40, seed: int = 5) -> Distribution:
    rng = np.random.default_rng(seed)
    values = rng.choice(1 << num_bits, size=size, replace=False)
    counts = rng.integers(1, 50, size=size)
    return Distribution(
        {format(int(v), f"0{num_bits}b"): float(c) for v, c in zip(values, counts)},
        num_bits=num_bits,
    )


def _assert_same_bits(actual: Distribution, expected: Distribution) -> None:
    assert actual.outcomes() == expected.outcomes()
    assert np.array_equal(actual.weight_vector(), expected.weight_vector())
    assert np.array_equal(actual.probability_vector(), expected.probability_vector())
    assert actual.total_weight == expected.total_weight


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every ``neighborhood_scores`` call ``hammer()`` makes, by input support."""
    calls = []
    original = HAMMER_MODULE.neighborhood_scores

    def counting(distribution, config=None):
        calls.append(distribution.num_outcomes)
        return original(distribution, config)

    monkeypatch.setattr(HAMMER_MODULE, "neighborhood_scores", counting)
    return calls


class TestHammerKey:
    def test_the_default_config_has_one_key(self):
        dist = _histogram()
        keys = {
            hammer_key(dist),
            hammer_key(dist, HammerConfig()),
            hammer_key(dist, HammerConfig(weight_scheme="inverse_chs")),
            hammer_key(dist, HammerConfig(weight_scheme=InverseChsWeights())),
        }
        assert len(keys) == 1

    def test_one_ulp_of_one_flip_probability_moves_the_key(self):
        dist = _histogram()
        flips = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        nudged = list(flips)
        nudged[3] = float(np.nextafter(nudged[3], 1.0))
        first = HammerConfig(weight_scheme=NoiseAwareWeights(flips))
        second = HammerConfig(weight_scheme=NoiseAwareWeights(nudged))
        assert hammer_key(dist, first) != hammer_key(dist, second)
        assert hammer_key(dist, first) == hammer_key(
            dist, HammerConfig(weight_scheme=NoiseAwareWeights(np.array(flips)))
        )

    def test_every_registry_scheme_has_its_own_key(self):
        dist = _histogram()
        keys = {hammer_key(dist, HammerConfig(weight_scheme=name)) for name in _SCHEMES}
        assert len(keys) == len(_SCHEMES) == 5

    def test_decay_moves_the_key(self):
        dist = _histogram()
        keys = {
            hammer_key(dist, HammerConfig(weight_scheme=ExponentialDecayWeights(decay)))
            for decay in (0.5, 0.25, float(np.nextafter(0.5, 1.0)))
        }
        assert len(keys) == 3

    def test_the_cutoff_moves_the_key_none_included(self):
        dist = _histogram(num_bits=6)
        cutoffs = (None, 3, 2, 0)
        keys = {hammer_key(dist, HammerConfig(neighborhood_cutoff=c)) for c in cutoffs}
        # None resolves to 3 at six bits, yet keeps a key of its own.
        assert len(keys) == len(cutoffs)

    @pytest.mark.parametrize("field", ["use_filter", "include_self_probability"])
    def test_each_flag_moves_the_key(self, field):
        dist = _histogram()
        assert hammer_key(dist) != hammer_key(dist, HammerConfig(**{field: False}))

    def test_a_forced_plan_moves_the_key(self):
        dist = _histogram()
        keys = {hammer_key(dist)}
        for plan in tuning.KERNEL_PLANS:
            with tuning.forced_kernel(plan):
                keys.add(hammer_key(dist))
        assert len(keys) == 1 + len(tuning.KERNEL_PLANS)
        assert hammer_key(dist) in keys

    @pytest.mark.parametrize("variable", ["REPRO_TILE_ENTRIES", "REPRO_PAIRWISE_BLOCK_ENTRIES"])
    def test_the_retired_size_variables_leave_the_key_alone(self, monkeypatch, variable):
        # The kernel sizes are constants, so a cache filled on one machine
        # or under one environment hits on any other.
        dist = _histogram()
        base = hammer_key(dist)
        for value in (str(1 << 20), str(1 << 23), "many"):
            monkeypatch.setenv(variable, value)
            assert hammer_key(dist) == base

    def test_the_key_follows_the_histogram_content(self):
        dist = _histogram()
        assert hammer_key(dist) != hammer_key(_histogram(seed=6))
        assert hammer_key(dist) == hammer_key(pickle.loads(pickle.dumps(dist)))
        # Same words and probabilities, other raw weights: the degenerate
        # fallback returns ``raw / total``, so the weights are keyed too.
        doubled = Distribution({k: 2 * v for k, v in dist.counts().items()})
        assert np.array_equal(doubled.probability_vector(), dist.probability_vector())
        assert hammer_key(doubled) != hammer_key(dist)

    def test_nested_schemes_and_dict_fields_are_keyed(self):
        class Blend(WeightScheme):
            name = "blend"

            def __init__(self, inner, table):
                self.inner = inner
                self.table = table

            def compute(self, average_chs, num_bits, cutoff):
                return self.inner.compute(average_chs, num_bits, cutoff)

        dist = _histogram()
        configs = [
            HammerConfig(weight_scheme=Blend(ExponentialDecayWeights(0.5), {"a": 1})),
            HammerConfig(weight_scheme=Blend(ExponentialDecayWeights(0.25), {"a": 1})),
            HammerConfig(weight_scheme=Blend(ExponentialDecayWeights(0.5), {"a": 2})),
            HammerConfig(weight_scheme=Blend(ExponentialDecayWeights(0.5), {"b": 1})),
            HammerConfig(weight_scheme=Blend(InverseChsWeights(), {"a": 1})),
            HammerConfig(weight_scheme=Blend(InverseChsWeights(), np.arange(3))),
            HammerConfig(weight_scheme=Blend(InverseChsWeights(), np.arange(3.0))),
        ]
        assert len({hammer_key(dist, config) for config in configs}) == len(configs)
        twin = HammerConfig(weight_scheme=Blend(ExponentialDecayWeights(0.5), {"a": 1}))
        assert hammer_key(dist, twin) == hammer_key(dist, configs[0])

    def test_a_config_value_without_an_encoding_is_refused(self):
        class Opaque(WeightScheme):
            name = "opaque"

            def __init__(self):
                self.shape = np.sqrt

            def compute(self, average_chs, num_bits, cutoff):
                return np.zeros_like(average_chs)

        with pytest.raises(EngineError, match="cannot key"):
            hammer_key(_histogram(), HammerConfig(weight_scheme=Opaque()))

    def test_the_key_of_a_fixed_input_is_pinned(self, monkeypatch):
        monkeypatch.setattr(tuning, "_override", None)
        monkeypatch.delenv("REPRO_HAMMER_KERNEL", raising=False)
        dist = Distribution({"0110": 7.0, "0111": 2.0, "1110": 1.0})
        # Moves only with a deliberate change to the encoding (and its tag).
        assert hammer_key(dist) == (
            "d49f4aa34b8992501b7cf298869e97775225f4f8d3570c3c019dc72711664811"
        )


def _exact_histogram() -> Distribution:
    """201 outcomes on 8 bits, 2,048 shots: ten levels of 20 outcomes (counts
    1-10) under one peak.  The probabilities are dyadic, so with the dyadic
    ``ExponentialDecayWeights(0.5)`` every product and sum any plan forms is
    exact: the plans agree bit for bit on every machine and BLAS."""
    values = np.random.default_rng(11).permutation(256)[:201]
    counts = [1 + index // 20 for index in range(200)] + [2048 - 20 * 55]
    return Distribution(
        {format(int(v), "08b"): float(c) for v, c in zip(values, counts)}, num_bits=8
    )


def _output_digest(distribution: Distribution) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(distribution.packed().words, dtype="<u8"))
    digest.update(np.ascontiguousarray(distribution.weight_vector(), dtype="<f8"))
    return digest.hexdigest()


class TestPinnedOutputs:
    """HAMMER's output bits on fixed inputs, and the rules that pick a plan.

    A warm ``cache_dir`` replays whatever an earlier run stored under
    :func:`hammer_key`, and the key names the kernel context, not the
    kernel's code.  So a change that moves any digest, rule or size pinned
    here (kernel arithmetic, a weight formula, a plan threshold, the
    spectral split's constant, a tile or block size) must also bump the
    key's ``repro-hammer-v2`` tag in ``repro/engine/hashing.py``, then
    re-pin.  Without the bump a warm ``--cache-dir`` returns the old bits.
    """

    @pytest.mark.parametrize("plan", tuning.KERNEL_PLANS)
    @pytest.mark.parametrize(
        ("use_filter", "expected"),
        [
            (True, "7465e40f700505598fc6f877ab6998bf9d310ae522383ee3c76171f0b8288dfd"),
            (False, "0446b0931d007815927077932cc7bdae8fce9aea512a7116350130655903d0e0"),
        ],
    )
    def test_every_plan_returns_the_pinned_bits(self, plan, use_filter, expected):
        # The spectral plan transforms 5 of the 11 levels (filtered) or the
        # whole support (unfiltered) here, so its transform path is covered.
        config = HammerConfig(weight_scheme=ExponentialDecayWeights(0.5), use_filter=use_filter)
        with tuning.forced_kernel(plan):
            assert _output_digest(hammer(_exact_histogram(), config)) == expected

    def test_the_default_config_on_dense_returns_the_pinned_bits(self):
        # Inverse-CHS weights round, so only the bit-stable dense plan is
        # pinned on them; the other plans' last bits follow the BLAS build.
        with tuning.forced_kernel("dense"):
            output = hammer(_exact_histogram())
        assert _output_digest(output) == (
            "6919026057a5a16506af7d4f140966d2f16bc9a29e96cc0fb69d6aa2fda8b2b5"
        )

    def test_the_plan_rules_are_pinned(self, monkeypatch):
        monkeypatch.setattr(tuning, "_override", None)
        monkeypatch.delenv("REPRO_HAMMER_KERNEL", raising=False)
        shapes = {(256, 8): "dense", (257, 8): "spectral", (257, 20): "spectral",
                  (257, 21): "tiled", (257, 576): "tiled", (257, 577): "tiled"}
        assert {shape: kernels.choose_plan(*shape) for shape in shapes} == shapes
        # The filtered split of the histogram above, and of eight levels of 50
        # on 10 bits: both move if the transform's cost constant is re-fitted.
        assert kernels.spectral_split(np.array([20] * 10 + [1]), 8) == 5
        assert kernels.spectral_split(np.array([50] * 8), 10) == 4

    def test_the_kernel_sizes_are_pinned(self):
        # The symmetric tile fixes the order ``tiled`` (and spectral's high
        # levels) accumulates in, the row block that of the ``dense`` CHS.
        assert kernels.TILE_ENTRIES == 1 << 21
        assert kernels.PAIRWISE_BLOCK_ENTRIES == 4_000_000


class TestEngineHammer:
    def test_results_equal_direct_calls_in_request_order(self):
        requests = [
            (_histogram(seed=1), None),
            (_histogram(seed=2), HammerConfig(weight_scheme="uniform")),
            (_histogram(seed=1), HammerConfig(use_filter=False)),
            # All scores zero: the fallback returns the normalised input.
            (
                _histogram(seed=3),
                HammerConfig(neighborhood_cutoff=0, include_self_probability=False),
            ),
        ]
        with ExecutionEngine() as engine:
            outputs = engine.hammer(requests)
        assert len(outputs) == len(requests)
        for output, (dist, config) in zip(outputs, requests):
            _assert_same_bits(output, hammer(dist, config))
        assert ExecutionEngine().hammer([]) == []

    def test_a_normalized_copy_keeps_its_own_reconstruction(self):
        # ``normalized()`` shares the words and the probability vector, but
        # the all-zero-score fallback returns ``raw / total``, which differs
        # in the last bits: a key on words and probabilities alone would
        # replay the first request's output for the second.
        config = HammerConfig(neighborhood_cutoff=0, include_self_probability=False)
        dist = _histogram(seed=0)
        normalized = dist.normalized()
        assert np.array_equal(normalized.probability_vector(), dist.probability_vector())
        with ExecutionEngine() as engine:
            outputs = engine.hammer([(dist, config), (normalized, config)])
        for output, source in zip(outputs, (dist, normalized)):
            _assert_same_bits(output, hammer(source, config))
        assert not np.array_equal(outputs[0].weight_vector(), outputs[1].weight_vector())

    def test_the_tiled_bits_ignore_the_retired_tile_variable(self, monkeypatch):
        # The row tiles fix the order scores accumulate in.  Their size once
        # came from REPRO_TILE_ENTRIES (three row tiles here at 2**20
        # entries, two at 2**21) and moved these bits; it is a constant.
        dist = _histogram(num_bits=12, size=1500, seed=1)
        with tuning.forced_kernel("tiled"):
            expected = hammer(dist)
            for entries in (1 << 20, 1 << 23):
                monkeypatch.setenv("REPRO_TILE_ENTRIES", str(entries))
                with ExecutionEngine() as engine:
                    (output,) = engine.hammer([(dist, None)])
                _assert_same_bits(output, expected)
                _assert_same_bits(hammer(dist), expected)

    def test_equal_requests_compute_once(self, kernel_calls):
        dist = _histogram()
        copy = pickle.loads(pickle.dumps(dist))
        with ExecutionEngine() as engine:
            first, second, third = engine.hammer(
                [(dist, None), (copy, HammerConfig()), (dist, HammerConfig(use_filter=False))]
            )
            stats = engine.cache.stats()
        assert kernel_calls == [dist.num_outcomes] * 2
        assert first is second
        assert (stats["hammer_hits"], stats["hammer_misses"]) == (0, 2)
        _assert_same_bits(third, hammer(dist, HammerConfig(use_filter=False)))

    def test_a_warm_cache_dir_reconstructs_nothing(self, tmp_path, kernel_calls):
        dist = _histogram()
        with ExecutionEngine(cache_dir=tmp_path) as engine:
            (cold,) = engine.hammer([(dist, None)])
        with ExecutionEngine(cache_dir=tmp_path) as engine:
            (warm,) = engine.hammer([(dist, None)])
            assert engine.cache.stats()["hammer_hits"] == 1
        assert kernel_calls == [dist.num_outcomes]
        _assert_same_bits(warm, cold)
        assert [path.stem for path in (tmp_path / "hammer").glob("*.pkl")] == [hammer_key(dist)]

    def test_a_corrupt_entry_degrades_to_a_miss_and_is_recomputed(self, tmp_path, kernel_calls):
        dist = _histogram()
        with ExecutionEngine(cache_dir=tmp_path) as engine:
            (cold,) = engine.hammer([(dist, None)])
        (entry,) = (tmp_path / "hammer").glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        with ExecutionEngine(cache_dir=tmp_path) as engine:
            (again,) = engine.hammer([(dist, None)])
            stats = engine.cache.stats()
        assert (stats["hammer_hits"], stats["hammer_misses"]) == (0, 1)
        assert kernel_calls == [dist.num_outcomes] * 2
        _assert_same_bits(again, cold)
        # The recompute rewrote the entry: a third engine hits it.
        with ExecutionEngine(cache_dir=tmp_path) as engine:
            (warm,) = engine.hammer([(dist, None)])
            assert engine.cache.stats()["hammer_hits"] == 1
        _assert_same_bits(warm, cold)


def _observed_fig8(max_workers: int):
    config = BvStudyConfig(qubit_range=(5, 6), keys_per_size=1, shots=1024, seed=8)
    with Observation() as observation:
        with ExecutionEngine(max_workers=max_workers) as engine:
            report = run_bv_study(config, engine=engine)
    counters = observation.registry.snapshot()["counters"]
    return report, counters


def test_worker_counts_give_the_same_rows_and_kernel_plans():
    serial, serial_counters = _observed_fig8(1)
    parallel, parallel_counters = _observed_fig8(2)
    assert parallel.rows == serial.rows
    assert parallel.summary == serial.summary

    def plans(counters):
        return {k: v for k, v in counters.items() if k.startswith("kernel.plan.")}

    assert plans(parallel_counters) == plans(serial_counters)
    assert sum(plans(serial_counters).values()) == len(serial.rows) == 6
    assert serial_counters["cache.hammer.misses"] == parallel_counters["cache.hammer.misses"] == 6


def test_a_forced_plan_holds_on_an_engine_whose_pool_exists():
    # The key reads the caller's kernel plan, so HAMMER must run where the
    # plan is set, not in pool workers forked before it was.
    config = BvStudyConfig(qubit_range=(5, 6), keys_per_size=1, shots=1024, seed=8)
    with ExecutionEngine(max_workers=2) as engine:
        run_bv_study(config, engine=engine)
        assert engine._pool is not None
        with Observation() as observation, tuning.forced_kernel("tiled"):
            forced = run_bv_study(config, engine=engine)
    counters = observation.registry.snapshot()["counters"]
    assert counters["kernel.plan.tiled"] == counters["cache.hammer.misses"] == 6
    assert not any(k.startswith("kernel.plan.") and k != "kernel.plan.tiled" for k in counters)
    with ExecutionEngine() as engine, tuning.forced_kernel("tiled"):
        assert run_bv_study(config, engine=engine).rows == forced.rows
