"""The constant-geometry Walsh–Hadamard transform against the butterfly it replaced.

``_reference_butterfly`` is the in-place radix-2 network that
``walsh_hadamard_inplace`` ran before: stage ``s`` pairs entry ``i`` with
``i + 2**s`` inside blocks of ``2**(s+1)``, bit 0 first, as ``left + right``
and ``left - right``.  The constant-geometry transform does the same
additions on the same operands in the same order, so on finite input its
output must equal the reference exactly, sign of zero included.  Every
``dense``-plan CHS (the golden rows among them), every ``spectral`` row and
the spectral round-off bound rest on that rounding; a matrix product, a
Kronecker factoring or a reordered stage loop moves it and fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import HammerConfig, kernels
from repro.core.hammer import neighborhood_scores
from repro.core.kernels import walsh_hadamard_inplace
from repro.core.weights import NoiseAwareWeights

_SETTINGS = dict(deadline=None, derandomize=True)


def _reference_butterfly(array: np.ndarray) -> np.ndarray:
    half = 1
    size = array.shape[-1]
    while half < size:
        paired = array.reshape(-1, 2 * half)
        left = paired[:, :half].copy()
        right = paired[:, half:]
        paired[:, :half] += right
        np.subtract(left, right, out=right)
        half *= 2
    return array


def _both(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(reference, transform)`` of copies of ``values``."""
    return _reference_butterfly(values.copy()), walsh_hadamard_inplace(values.copy())


def _assert_identical(values: np.ndarray) -> None:
    expected, actual = _both(values)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


#: Families of finite float64 entries: value and sign of each is drawn from
#: the generator.  Magnitudes stay at or below ~1e300, so no sum of up to
#: 2**20 of them overflows.
_FAMILIES = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "integers": lambda rng, size: rng.integers(-3, 4, size).astype(float),
    "zeros": lambda rng, size: np.where(rng.random(size) < 0.5, -0.0, 0.0),
    "subnormal": lambda rng, size: rng.integers(-(2**52), 2**52, size) * 5e-324,
    "near_1e300": lambda rng, size: rng.uniform(-1.0, 1.0, size) * 1e300,
    "near_1e-300": lambda rng, size: rng.uniform(-1.0, 1.0, size) * 1e-300,
}


def _mixed(rng: np.random.Generator, shape: tuple[int, ...], families) -> np.ndarray:
    """An array whose entries come from the chosen families, mixed at random."""
    size = int(np.prod(shape))
    pick = rng.integers(0, len(families), size)
    values = np.empty(size)
    for index, family in enumerate(families):
        chosen = pick == index
        values[chosen] = _FAMILIES[family](rng, int(chosen.sum()))
    return values.reshape(shape)


@st.composite
def _finite_inputs(draw):
    num_bits = draw(st.integers(0, 12))
    rows = draw(st.sampled_from([None, 1, 2, 3, 5, 7, 10]))
    families = sorted(draw(st.sets(st.sampled_from(sorted(_FAMILIES)), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << num_bits,) if rows is None else (rows, 1 << num_bits)
    return _mixed(rng, shape, families)


class TestSameRoundingAsTheButterfly:
    @given(values=_finite_inputs())
    @settings(max_examples=250, **_SETTINGS)
    def test_mixed_finite_inputs(self, values):
        _assert_identical(values)

    @given(
        values=st.integers(0, 5).flatmap(
            lambda num_bits: arrays(
                np.float64,
                st.sampled_from([(1 << num_bits,), (1, 1 << num_bits), (3, 1 << num_bits)]),
                elements=st.floats(-1e300, 1e300, allow_subnormal=True),
            )
        )
    )
    @settings(max_examples=300, **_SETTINGS)
    def test_any_finite_entries(self, values):
        _assert_identical(values)

    @pytest.mark.parametrize("num_bits", range(13))
    @pytest.mark.parametrize("rows", [None, 1, 4, 10])
    def test_every_size_up_to_4096(self, num_bits, rows):
        # Odd num_bits end in the work array, so the copy-back runs.
        rng = np.random.default_rng(num_bits * 11 + (rows or 0))
        shape = (1 << num_bits,) if rows is None else (rows, 1 << num_bits)
        _assert_identical(_mixed(rng, shape, sorted(_FAMILIES)))

    def test_a_2_to_the_20_vector(self):
        rng = np.random.default_rng(20)
        _assert_identical(_mixed(rng, (1 << 20,), sorted(_FAMILIES)))

    @given(
        num_bits=st.integers(1, 9),
        rows=st.sampled_from([None, 1, 4]),
        seed=st.integers(0, 2**32 - 1),
        infinite=st.floats(0.01, 0.5),
    )
    @settings(max_examples=200, **_SETTINGS)
    def test_infinities_give_nan_at_the_same_entries(self, num_bits, rows, seed, infinite):
        # inf - inf makes NaN, and which NaN an add returns may depend on the
        # loop NumPy picks, so NaN sign bits are not compared; every other
        # entry, infinities included, must match exactly.
        rng = np.random.default_rng(seed)
        shape = (1 << num_bits,) if rows is None else (rows, 1 << num_bits)
        values = rng.standard_normal(shape)
        values[rng.random(shape) < infinite] = np.inf
        values[rng.random(shape) < infinite] = -np.inf
        with np.errstate(invalid="ignore"):
            expected, actual = _both(values)
        assert np.array_equal(np.isnan(actual), np.isnan(expected))
        kept = ~np.isnan(expected)
        assert np.array_equal(actual[kept], expected[kept])
        assert np.array_equal(np.signbit(actual[kept]), np.signbit(expected[kept]))


class TestInPlaceContract:
    @pytest.mark.parametrize("shape", [(1,), (8,), (16,), (3, 8), (2, 3, 16), (0, 32)])
    def test_returns_and_mutates_its_argument(self, shape):
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        expected = _reference_butterfly(values.copy())
        assert walsh_hadamard_inplace(values) is values
        assert np.array_equal(values, expected)

    def test_a_known_transform(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        walsh_hadamard_inplace(values)
        assert values.tolist() == [10.0, -2.0, -4.0, 0.0]

    def test_a_transposed_stack_raises_and_is_left_alone(self):
        values = np.arange(16.0).reshape(4, 4).T
        before = values.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            walsh_hadamard_inplace(values)
        assert np.array_equal(values, before)
        # What the caller meant: the transform of each row of the copy.
        assert walsh_hadamard_inplace(np.ascontiguousarray(values))[0].tolist() == [
            24.0,
            -8.0,
            -16.0,
            0.0,
        ]

    def test_a_strided_vector_raises(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            walsh_hadamard_inplace(np.arange(16.0)[::2])

    @pytest.mark.parametrize("shape", [(0,), (3,), (6,), (12,), (2, 6), (4, 0), ()])
    def test_lengths_that_are_not_powers_of_two_raise(self, shape):
        values = np.ones(shape)
        with pytest.raises(ValueError, match="power-of-two"):
            walsh_hadamard_inplace(values)
        assert np.array_equal(values, np.ones(shape))


@pytest.mark.parametrize("workload", ["fig8-cold", "zoo-warm"])
def test_every_benchmark_hammer_output_is_unchanged(workload_runs, workload, monkeypatch):
    """Plain and noise-aware HAMMER on every job, against the reference transform."""
    run = workload_runs[workload]
    configs = []
    for job, result in zip(run.jobs, run.results):
        flips = job.noise_model.accumulated_bitflip_probabilities(result.executed_circuit)
        noise_aware = HammerConfig(
            weight_scheme=NoiseAwareWeights(result.to_logical_order(flips))
        )
        configs += [(result.noisy, HammerConfig()), (result.noisy, noise_aware)]
    actual = [neighborhood_scores(noisy, config) for noisy, config in configs]
    monkeypatch.setattr(kernels, "walsh_hadamard_inplace", _reference_butterfly)
    expected = [neighborhood_scores(noisy, config) for noisy, config in configs]

    assert len(actual) == 2 * {"fig8-cold": 9, "zoo-warm": 28}[workload]
    for new, old in zip(actual, expected):
        assert new.kernel == old.kernel == "spectral"
        assert np.array_equal(new.average_chs, old.average_chs)
        assert np.array_equal(new.score_vector, old.score_vector)
        assert np.array_equal(new.distribution.packed().words, old.distribution.packed().words)
        assert np.array_equal(new.distribution.weight_vector(), old.distribution.weight_vector())
