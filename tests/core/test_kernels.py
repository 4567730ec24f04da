"""Property suite for the shape-adaptive pairwise Hamming kernels (PR 5).

Every kernel plan — the bit-stable ``dense`` arithmetic, the
symmetric ``tiled`` sweep and the ``spectral`` level transforms — must agree
with ``hammer_reference`` (the paper's Algorithm 1, pure-Python loops) on
arbitrary supports, including word-boundary widths (63/64/65) and degenerate
single-outcome distributions.  The popcount dispatch, the shape dispatcher
and the forced-plan override are covered here too.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Distribution, HammerConfig, hammer, hammer_reference
from repro.core import kernels, tuning
from repro.core.kernels import (
    DENSE_CHS_MAX_BITS,
    DENSE_SUPPORT_MAX,
    choose_plan,
    chs_histogram,
    hammer_pass,
    popcount_u64,
    spectral_split,
)
from repro.core.spectrum import average_chs
from repro.core.weights import NoiseAwareWeights
from repro.exceptions import DistributionError

ALL_PLANS = ("dense", "tiled", "spectral")


@pytest.fixture(autouse=True)
def _reset_kernel_override():
    yield
    tuning.set_kernel_override(None)


def _force(plan):
    tuning.set_kernel_override(plan)


@st.composite
def kernel_distributions(draw):
    """Random supports biased toward the word-boundary widths 63/64/65."""
    num_bits = draw(
        st.one_of(
            st.sampled_from([63, 64, 65]),
            st.integers(min_value=1, max_value=70),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=1, max_value=28))
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, size=(size, num_bits), dtype=np.uint8), axis=0)
    strings = ["".join("1" if b else "0" for b in row) for row in bits]
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=len(strings),
            max_size=len(strings),
        )
    )
    return Distribution(dict(zip(strings, weights)), num_bits=num_bits)


class TestKernelEquivalence:
    @given(kernel_distributions(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_all_plans_match_reference(self, dist, use_filter, include_self):
        config = HammerConfig(use_filter=use_filter, include_self_probability=include_self)
        reference = hammer_reference(dist, config)
        for plan in ALL_PLANS:
            _force(plan)
            reconstructed = hammer(dist, config)
            for outcome, probability in reference.probabilities().items():
                assert reconstructed.probability(outcome) == pytest.approx(
                    probability, abs=1e-9
                ), (plan, outcome)

    @given(kernel_distributions())
    @settings(max_examples=40, deadline=None)
    def test_chs_plans_agree(self, dist):
        packed = dist.packed()
        expected = chs_histogram(packed, packed.probabilities, dist.num_bits, plan="dense")
        for plan in ("tiled", "spectral"):
            got = chs_histogram(packed, packed.probabilities, dist.num_bits, plan=plan)
            assert np.allclose(got, expected, atol=1e-9), plan

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_single_outcome_distribution(self, plan):
        _force(plan)
        dist = Distribution.point_mass("0" * 65)
        assert hammer(dist).probability("0" * 65) == pytest.approx(1.0)

    @pytest.mark.parametrize("width", [63, 64, 65])
    def test_word_boundary_widths_large_support(self, width):
        """The symmetric sweeps agree with a forced dense across the uint64 seam."""
        rng = np.random.default_rng(width)
        center = rng.integers(0, 2, size=width, dtype=np.uint8)
        bits = np.unique(
            (rng.random((4000, width)) < 0.2).astype(np.uint8) ^ center, axis=0
        )
        strings = ["".join("1" if b else "0" for b in row) for row in bits]
        weights = rng.random(len(strings)) + 0.01
        dist = Distribution(dict(zip(strings, weights)), num_bits=width)
        _force("dense")
        expected = hammer(dist)
        _force("tiled")
        got = hammer(dist)
        for outcome in expected.probabilities():
            assert got.probability(outcome) == pytest.approx(
                expected.probability(outcome), abs=1e-9
            )

    def test_unknown_plan_rejected(self):
        dist = Distribution({"01": 1.0, "10": 1.0})
        packed = dist.packed()
        with pytest.raises(DistributionError):
            hammer_pass(packed, packed.probabilities, 1, lambda chs: chs, True, plan="nope")
        for stale in ("legcay", "streaming"):
            with pytest.raises(DistributionError, match="spectral"):
                chs_histogram(packed, packed.probabilities, 1, plan=stale)


WEIGHT_SCHEMES = ("inverse_chs", "uniform", "exponential", "nearest_neighbor", "noise_aware")


@st.composite
def shot_histograms(draw):
    """Integer shot counts at widths 1-14: few large counts, a long 1/2/3 tail."""
    num_bits = draw(st.integers(min_value=1, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    support = min(1 << num_bits, draw(st.integers(min_value=1, max_value=48)))
    vertices = rng.choice(1 << num_bits, size=support, replace=False)
    counts = rng.geometric(draw(st.sampled_from([0.2, 0.5, 0.8])), size=support)
    strings = [format(int(vertex), f"0{num_bits}b") for vertex in vertices]
    return Distribution(dict(zip(strings, counts.astype(float))), num_bits=num_bits)


@st.composite
def hammer_configs(draw, num_bits):
    scheme = draw(st.sampled_from(WEIGHT_SCHEMES))
    if scheme == "noise_aware":
        flips = draw(st.lists(st.floats(0.01, 0.2), min_size=num_bits, max_size=num_bits))
        scheme = NoiseAwareWeights(flips)
    return HammerConfig(
        weight_scheme=scheme,
        neighborhood_cutoff=draw(st.sampled_from([None, 0, 1, 2])),
        use_filter=draw(st.booleans()),
        include_self_probability=draw(st.booleans()),
    )


def _at_split(choose):
    """Run the spectral plan at ``choose(number of levels)`` instead of the rule."""
    return mock.patch.object(kernels, "spectral_split", lambda sizes, bits: choose(len(sizes)))


def _assert_matches(got, expected):
    """Within a relative 1e-12, exactly 0 where ``expected`` is, never negative."""
    for outcome, probability in expected.probabilities().items():
        value = got.probability(outcome)
        assert value >= 0.0
        assert (value == 0.0) == (probability == 0.0), outcome
        assert value == pytest.approx(probability, rel=1e-12, abs=0.0), outcome


def _fig8_like(num_bits, seed, noise_shots):
    """One dominant answer over a tail of 1-, 2- and 3-shot noise outcomes."""
    rng = np.random.default_rng(seed)
    shots = np.concatenate(
        [np.zeros(noise_shots // 2, dtype=np.int64), rng.integers(0, 1 << num_bits, noise_shots)]
    )
    vertices, counts = np.unique(shots, return_counts=True)
    strings = [format(int(vertex), f"0{num_bits}b") for vertex in vertices]
    return Distribution(dict(zip(strings, counts.astype(float))), num_bits=num_bits)


class TestSpectralPlan:
    @given(shot_histograms(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_and_tiled_at_any_split(self, dist, data):
        config = data.draw(hammer_configs(dist.num_bits))
        fraction = data.draw(st.floats(0.0, 1.0))
        reference = hammer_reference(dist, config)
        _force("tiled")
        tiled = hammer(dist, config)
        _force("spectral")
        with _at_split(lambda levels: 0):
            assert np.array_equal(
                hammer(dist, config).probability_vector(), tiled.probability_vector()
            )
        interior = lambda levels: min(levels, 1 + int(fraction * max(0, levels - 2)))  # noqa: E731
        for choose in (lambda levels: levels, interior):
            with _at_split(choose):
                got = hammer(dist, config)
            _assert_matches(got, reference)
            _assert_matches(got, tiled)

    @pytest.mark.parametrize("cutoff", [0, 1])
    @pytest.mark.parametrize("use_filter", [True, False])
    def test_all_zero_scores_fall_back_to_the_input(self, cutoff, use_filter):
        # Without self-probability no outcome has a neighbour inside the
        # cutoff, so every score is 0 and the reference returns the input.
        dist = _fig8_like(9, seed=cutoff, noise_shots=400)
        config = HammerConfig(
            neighborhood_cutoff=cutoff,
            include_self_probability=False,
            use_filter=use_filter,
        )
        expected = hammer_reference(dist, config)
        assert expected.probabilities() == dist.normalized().probabilities()
        _force("spectral")
        assert hammer(dist, config).probabilities() == expected.probabilities()
        with _at_split(lambda levels: levels):
            assert hammer(dist, config).probabilities() == expected.probabilities()

    def test_roundoff_gate_falls_back_to_the_tiled_sweep(self):
        # A 1e-17 outcome puts tau below the transforms' round-off bound,
        # so the plan must sweep every pair (split 0), bit for bit.
        rng = np.random.default_rng(0)
        vertices = rng.choice(64, size=20, replace=False)
        weights = rng.integers(1, 4, size=20).astype(float)
        weights[0] = 1e-17
        strings = [format(int(vertex), "06b") for vertex in vertices]
        dist = Distribution(dict(zip(strings, weights)), num_bits=6)
        _force("tiled")
        tiled = hammer(dist).probability_vector()
        _force("spectral")
        with _at_split(lambda levels: levels):
            assert np.array_equal(hammer(dist).probability_vector(), tiled)

    def test_far_apart_pair_without_filter_falls_back(self):
        dist = Distribution({"0000": 0.25, "1111": 0.75})
        config = HammerConfig(use_filter=False, include_self_probability=False)
        _force("spectral")
        with _at_split(lambda levels: levels):
            got = hammer(dist, config)
        assert got.probabilities() == hammer_reference(dist, config).probabilities()

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_single_outcome_and_uniform_histograms(self, use_filter, include_self):
        config = HammerConfig(use_filter=use_filter, include_self_probability=include_self)
        uniform = Distribution({format(v, "06b"): 3.0 for v in range(0, 64, 3)})
        _force("spectral")
        for dist in (Distribution.point_mass("0110"), uniform):
            with _at_split(lambda levels: levels):
                got = hammer(dist, config)
            _assert_matches(got, hammer_reference(dist, config))

    def test_split_rule_transforms_the_crowded_low_levels(self):
        # 6000 one-shot outcomes, 900 two-shot, 40 three-shot, one answer.
        sizes = np.array([6000, 900, 40, 1])
        assert spectral_split(sizes, 14) == 2
        assert spectral_split(np.array([50, 50]), 14) == 0
        assert spectral_split(np.array([], dtype=np.int64), 14) == 0

    def test_fig8_like_histogram_matches_tiled_and_records_its_split(self):
        from repro.core.hammer import neighborhood_scores
        from repro.obs import Observation

        dist = _fig8_like(13, seed=3, noise_shots=20_768)
        assert dist.num_outcomes > DENSE_SUPPORT_MAX
        _force("tiled")
        tiled = hammer(dist)
        tuning.set_kernel_override(None)
        with Observation() as observation:
            result = neighborhood_scores(dist)
        assert result.kernel == "spectral"
        _assert_matches(result.distribution, tiled)
        (event,) = [
            event for event in observation.chrome_trace()["traceEvents"]
            if event["name"] == "kernel.hammer"
        ]
        assert event["args"]["plan"] == "spectral"
        assert event["args"]["levels"] == len(np.unique(dist.probability_vector()))
        assert 0 < event["args"]["split"] < event["args"]["levels"]

    def test_forced_on_a_wide_register_runs_tiled(self):
        from repro.core.hammer import neighborhood_scores
        from repro.obs import Observation

        rng = np.random.default_rng(21)
        bits = np.unique(rng.integers(0, 2, size=(200, DENSE_CHS_MAX_BITS + 1)), axis=0)
        strings = ["".join("1" if b else "0" for b in row) for row in bits]
        dist = Distribution(dict(zip(strings, rng.random(len(strings)) + 0.01)))
        packed = dist.packed()
        weight_fn = lambda chs: np.where(chs > 0, 1.0 / np.maximum(chs, 1e-12), 0.0)  # noqa: E731
        tiled = hammer_pass(packed, packed.probabilities, 5, weight_fn, True, plan="tiled")
        forced = hammer_pass(packed, packed.probabilities, 5, weight_fn, True, plan="spectral")
        assert forced[3] == "tiled"
        for ref, got in zip(tiled[:3], forced[:3]):
            assert np.array_equal(ref, got)
        # The counter, the span and HammerResult.kernel name the plan that ran.
        _force("spectral")
        with Observation() as observation:
            result = neighborhood_scores(dist)
        counters = observation.registry.snapshot()["counters"]
        assert result.kernel == "tiled"
        assert counters["kernel.plan.tiled"] == 1
        assert "kernel.plan.spectral" not in counters
        (event,) = [
            event
            for event in observation.chrome_trace()["traceEvents"]
            if event["name"] == "kernel.hammer"
        ]
        assert event["args"]["plan"] == "tiled"


def _shot_histogram(num_bits, num_outcomes, seed):
    """Exactly ``num_outcomes`` outcomes with integer shot counts.

    The all-zeros answer holds most of the shots; the other outcomes are
    the distinct bit-flip patterns in draw order, each with a geometric
    1-, 2-, 3-shot count.  Flips are dense on narrow registers so that
    almost the whole hypercube can be reached.
    """
    rng = np.random.default_rng(seed)
    flip_rate = 0.5 if num_bits <= 12 else 0.1
    draws = rng.random((20 * num_outcomes, num_bits)) < flip_rate
    draws = np.vstack([np.zeros((1, num_bits), dtype=bool), draws])
    _, first = np.unique(draws, axis=0, return_index=True)
    rows = draws[np.sort(first)[:num_outcomes]]
    assert len(rows) == num_outcomes
    counts = rng.geometric(0.6, size=num_outcomes).astype(float)
    counts[0] = 8.0 * num_outcomes
    strings = ["".join("1" if bit else "0" for bit in row) for row in rows]
    return Distribution(dict(zip(strings, counts)), num_bits=num_bits)


class TestAboveTheDenseBound:
    """Supports just past ``DENSE_SUPPORT_MAX`` against the ``dense`` plan they left.

    ``test_all_plans_match_reference`` holds ``dense`` to
    ``hammer_reference``; here the auto-dispatched plan must agree with a
    forced ``dense`` run within a relative 1e-12, with the same zero set.
    """

    @pytest.mark.parametrize(
        "num_bits, num_outcomes, plan",
        [
            (10, 257, "spectral"),
            (10, 416, "spectral"),
            (10, 1022, "spectral"),
            (53, 257, "tiled"),
            (53, 1024, "tiled"),
        ],
    )
    @pytest.mark.parametrize("noise_aware", [False, True], ids=["inverse_chs", "noise_aware"])
    def test_auto_plan_matches_forced_dense(self, num_bits, num_outcomes, plan, noise_aware):
        from repro.core.hammer import neighborhood_scores

        dist = _shot_histogram(num_bits, num_outcomes, seed=num_outcomes)
        config = HammerConfig()
        if noise_aware:
            flips = np.random.default_rng(num_bits).uniform(0.005, 0.2, size=num_bits)
            config = HammerConfig(weight_scheme=NoiseAwareWeights(flips))
        result = neighborhood_scores(dist, config)
        assert result.kernel == plan
        _force("dense")
        _assert_matches(result.distribution, hammer(dist, config))


def _bin_counts(values: np.ndarray) -> np.ndarray:
    return np.array([bin(int(v)).count("1") for v in values.ravel()], dtype=np.uint8).reshape(
        values.shape
    )


class TestPopcount:
    def test_matches_bin_count(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**63, size=(257,), dtype=np.uint64)
        values[:3] = (0, 1, np.iinfo(np.uint64).max)
        assert np.array_equal(popcount_u64(values), _bin_counts(values))

    def test_handles_a_transposed_2d_view(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 2**63, size=(8, 6), dtype=np.uint64)
        assert np.array_equal(popcount_u64(values.T), _bin_counts(values.T))

    def test_every_single_bit_position(self):
        values = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
        assert np.array_equal(popcount_u64(values), np.ones(64))
        assert popcount_u64(np.cumsum(values, dtype=np.uint64)).tolist() == list(range(1, 65))

    @pytest.mark.parametrize("shape", [(0,), (2, 3, 4)])
    def test_keeps_the_input_shape(self, shape):
        values = np.full(shape, 0xF0F0_F0F0_F0F0_F0F0, dtype=np.uint64)
        counts = popcount_u64(values)
        assert counts.shape == shape
        assert np.all(counts == 32)


class TestDispatcher:
    def test_small_supports_stay_on_dense(self):
        assert choose_plan(DENSE_SUPPORT_MAX, 12) == "dense"
        assert choose_plan(1, 127) == "dense"

    def test_large_supports_on_narrow_registers_go_spectral(self):
        assert choose_plan(DENSE_SUPPORT_MAX + 1, 12) == "spectral"
        assert choose_plan(50_000, DENSE_CHS_MAX_BITS) == "spectral"
        assert choose_plan(50_000, 1) == "spectral"

    def test_large_supports_on_wider_registers_tile(self):
        assert choose_plan(DENSE_SUPPORT_MAX + 1, DENSE_CHS_MAX_BITS + 1) == "tiled"
        assert choose_plan(50_000, 127) == "tiled"

    def test_literal_shapes_around_the_dense_bound(self):
        assert choose_plan(256, 8) == "dense"
        assert choose_plan(257, 10) == "spectral"
        assert choose_plan(1022, 10) == "spectral"
        assert choose_plan(257, 53) == "tiled"

    @pytest.mark.parametrize("num_bits", [577, 700])
    @pytest.mark.parametrize("use_filter", [True, False])
    def test_very_wide_registers_tile_and_match_dense(self, num_bits, use_filter):
        # Ten and eleven uint64 words per outcome: the multi-word sweeps
        # far past the 64-bit seam.
        from repro.core.hammer import neighborhood_scores

        dist = _shot_histogram(num_bits, 400, seed=num_bits)
        config = HammerConfig(use_filter=use_filter)
        result = neighborhood_scores(dist, config)
        assert result.kernel == "tiled"
        _force("dense")
        np.testing.assert_allclose(
            result.distribution.probability_vector(),
            hammer(dist, config).probability_vector(),
            rtol=1e-9,
            atol=0.0,
        )

    @pytest.mark.parametrize(
        "num_bits, num_outcomes, plan",
        [(8, 100, "dense"), (10, 400, "spectral"), (30, 400, "tiled")],
    )
    def test_chs_histogram_is_the_one_dispatch(self, num_bits, num_outcomes, plan):
        # The CHS defaults to the dispatcher's plan, and a pass takes its
        # CHS from the same call with the plan it resolved.
        dist = _shot_histogram(num_bits, num_outcomes, seed=num_bits)
        packed = dist.packed()
        probabilities = packed.probabilities
        cutoff = 3
        assert choose_plan(num_outcomes, num_bits) == plan
        expected = chs_histogram(packed, probabilities, cutoff - 1, plan=plan)
        assert np.array_equal(chs_histogram(packed, probabilities, cutoff - 1), expected)
        chs, _, _, used = hammer_pass(
            packed,
            probabilities,
            cutoff,
            lambda raw: (np.arange(raw.size) < cutoff).astype(float),
            True,
        )
        assert used == plan
        assert np.array_equal(chs, expected)

    def test_override_wins(self):
        _force("tiled")
        assert choose_plan(2, 2) == "tiled"

    def test_hammer_result_reports_plan(self):
        from repro.core.hammer import neighborhood_scores

        small = Distribution({"01": 1.0, "10": 2.0})
        assert neighborhood_scores(small).kernel == "dense"
        _force("tiled")
        assert neighborhood_scores(small).kernel == "tiled"


class TestTuningOverrides:
    def test_kernel_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "dense")
        assert tuning.kernel_override() == "dense"
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "auto")
        assert tuning.kernel_override() is None
        # "legacy", "gpu" and "streaming" were plan names once; a stale
        # setting must fail loudly and name the valid plans.
        for stale in ("warp", "legacy", "gpu", "streaming"):
            monkeypatch.setenv("REPRO_HAMMER_KERNEL", stale)
            with pytest.raises(DistributionError, match="spectral"):
                tuning.kernel_override()

    def test_set_kernel_override_validates(self):
        for stale in ("warp", "streaming"):
            with pytest.raises(DistributionError, match="spectral"):
                tuning.set_kernel_override(stale)

    def test_tuning_report_shape(self):
        assert tuning.tuning_report() == {"kernel_override": "auto"}


class TestFixedKernelSizes:
    """The ``dense`` row block and the symmetric tile are constants.

    They fix the order each plan accumulates in, so neither the machine nor
    the environment may move them.
    """

    def test_block_rows_fill_the_historical_budget(self):
        assert kernels._block_rows(100) == 100
        assert kernels._block_rows(2048) == 4_000_000 // 2048
        assert kernels._block_rows(10_000_000) == 1
        assert kernels._block_rows(0) == 1

    def test_tile_shape_is_deterministic_and_bounded(self):
        rows, cols = kernels._tile_shape(100_000)
        assert (rows, cols) == kernels._tile_shape(100_000)
        assert rows >= 64
        assert rows * cols <= 2 * kernels.TILE_ENTRIES
        assert kernels._tile_shape(10) == (10, 10)

    @pytest.mark.parametrize("variable", ["REPRO_TILE_ENTRIES", "REPRO_PAIRWISE_BLOCK_ENTRIES"])
    def test_the_retired_size_variables_are_ignored(self, monkeypatch, variable):
        # Each once sized a plan's blocks: at 2**20 entries this support ran
        # three row tiles instead of two, and garbage raised.
        dist = _shot_histogram(12, 1500, seed=1)
        expected = {}
        for plan in ("dense", "tiled"):
            _force(plan)
            expected[plan] = hammer(dist).weight_vector()
        shapes = (kernels._block_rows(1500), kernels._tile_shape(1500))
        for value in (str(1 << 20), str(1 << 23), "many", "-3"):
            monkeypatch.setenv(variable, value)
            _force(None)
            assert tuning.tuning_report() == {"kernel_override": "auto"}
            assert (kernels._block_rows(1500), kernels._tile_shape(1500)) == shapes
            for plan, weights in expected.items():
                _force(plan)
                assert np.array_equal(hammer(dist).weight_vector(), weights), (value, plan)


def _reference_symmetric_scores(packed, probabilities, weights, cutoff, use_filter):
    """``kernels._symmetric_scores`` as it was: ``take`` over whole tiles.

    ``take`` widened each uint8/uint16 distance tile to ``intp`` before
    gathering, and the filter's products were fresh float64 tiles.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    weights = weights.astype(float, copy=True)
    if cutoff < weights.size:
        weights[cutoff:] = 0.0
    scores = np.zeros(num_outcomes, dtype=float)
    tile_rows, tile_cols = kernels._tile_shape(num_outcomes)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        p_i = probabilities[i0:i1]
        gathered = weights.take(kernels._tile_distances(words[i0:i1], words[i0:i1]))
        if use_filter:
            np.multiply(gathered, p_i[:, None] > p_i[None, :], out=gathered)
        else:
            np.fill_diagonal(gathered, 0.0)
        scores[i0:i1] += gathered @ p_i
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            p_j = probabilities[j0:j1]
            gathered = weights.take(kernels._tile_distances(words[i0:i1], words[j0:j1]))
            if use_filter:
                scores[i0:i1] += (gathered * (p_i[:, None] > p_j[None, :])) @ p_j
                scores[j0:j1] += p_i @ (gathered * (p_i[:, None] < p_j[None, :]))
            else:
                scores[i0:i1] += gathered @ p_j
                scores[j0:j1] += p_i @ gathered
    return scores


def _random_support(num_bits, num_outcomes, seed):
    """``num_outcomes`` distinct random outcomes with 1-, 2-, 3-shot counts, packed."""
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=(8 * num_outcomes, num_bits), dtype=np.uint8)
    rows = np.unique(draws, axis=0)
    rows = rows[rng.permutation(len(rows))[:num_outcomes]]
    assert len(rows) == num_outcomes
    counts = rng.geometric(0.6, size=num_outcomes).astype(float)
    strings = ["".join("1" if bit else "0" for bit in row) for row in rows]
    return Distribution(dict(zip(strings, counts)), num_bits=num_bits).packed()


class TestTileSweepGather:
    """The tile sweep's sliced gather gives the whole-tile ``take``'s scores, bit for bit.

    300 outcomes fit one diagonal tile; 2,000 take two row bands, so a
    strictly-right tile runs.  12 bits gather uint8 distances, 70 bits
    (two words) uint16.
    """

    @pytest.mark.parametrize("num_outcomes", [300, 2000], ids=["one-tile", "two-bands"])
    @pytest.mark.parametrize("num_bits", [12, 70], ids=["uint8", "uint16"])
    @pytest.mark.parametrize("use_filter", [True, False], ids=["filter", "no-filter"])
    @pytest.mark.parametrize("short_cutoff", [False, True], ids=["default-cutoff", "cutoff-2"])
    def test_scores_equal_the_whole_tile_take(self, num_outcomes, num_bits, use_filter, short_cutoff):
        packed = _random_support(num_bits, num_outcomes, seed=num_outcomes + num_bits)
        weights = np.random.default_rng(num_bits).random(num_bits + 1)
        cutoff = 2 if short_cutoff else (num_bits + 1) // 2
        args = (packed, packed.probabilities, weights, cutoff, use_filter)
        assert (kernels._tile_shape(num_outcomes)[0] < num_outcomes) == (num_outcomes == 2000)
        assert np.array_equal(
            kernels._symmetric_scores(*args), _reference_symmetric_scores(*args)
        )

    def test_a_short_weight_vector_raises(self):
        packed = _random_support(12, 300, seed=1)
        with pytest.raises(DistributionError, match="weight for each distance"):
            kernels._symmetric_scores(packed, packed.probabilities, np.ones(12), 6, True)


class TestTileSweepScratchMemory:
    """The tile sweep holds one float64 tile, and no ``intp`` copy of one.

    tracemalloc peaks of one ``_symmetric_scores`` call with the filter
    on.  A whole-tile ``take`` widened the distances to an 8-byte index
    tile beside its float64 result, and the filter's products were two
    more float64 tiles.
    """

    @pytest.mark.parametrize(
        "num_bits, num_outcomes, bound_mib", [(10, 900, 10.0), (14, 4000, 24.0)]
    )
    def test_peak_stays_within_bound(self, traced_peak_mib, num_bits, num_outcomes, bound_mib):
        packed = _random_support(num_bits, num_outcomes, seed=num_bits)
        weights = np.random.default_rng(num_bits).random(num_bits + 1)
        peak = traced_peak_mib(
            kernels._symmetric_scores,
            packed,
            packed.probabilities,
            weights,
            (num_bits + 1) // 2,
            True,
        )
        assert peak <= bound_mib


class TestAverageChsRoutesThroughKernels:
    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_average_chs_stable_across_plans(self, plan):
        rng = np.random.default_rng(9)
        bits = np.unique(rng.integers(0, 2, size=(300, 65), dtype=np.uint8), axis=0)
        strings = ["".join("1" if b else "0" for b in row) for row in bits]
        dist = Distribution(
            dict(zip(strings, rng.random(len(strings)) + 0.01)), num_bits=65
        )
        expected = average_chs(dist)
        _force(plan)
        assert np.allclose(average_chs(dist), expected, atol=1e-9)
