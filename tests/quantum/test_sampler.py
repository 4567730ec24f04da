"""Tests for the noisy samplers (trajectory and bit-flip models)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import bernstein_vazirani, ghz_circuit
from repro.core import Distribution
from repro.exceptions import CircuitError, NoiseModelError
from repro.quantum import (
    NoiseModel,
    NoisySampler,
    QuantumCircuit,
    ReadoutError,
    apply_readout_errors,
    sample_bitflip_distribution,
    sample_noisy_distribution,
    sample_trajectory_distribution,
)
from repro.quantum.sampler import _apply_readout_errors_to_bits, _BitflipPlan


@pytest.fixture
def bv4():
    return bernstein_vazirani("1111")


@pytest.fixture
def mild_noise():
    return NoiseModel(
        single_qubit_error=0.002,
        two_qubit_error=0.02,
        readout_error=ReadoutError(0.02, 0.04),
        idle_error_per_layer=0.001,
    )


class TestReadoutApplication:
    def test_no_error_is_identity(self):
        samples = ["010", "111"]
        model = NoiseModel.noiseless()
        assert apply_readout_errors(samples, model, np.random.default_rng(0)) == samples

    def test_full_error_flips_every_bit(self):
        samples = ["0000", "1111"]
        model = NoiseModel(readout_error=ReadoutError(1.0, 1.0))
        flipped = apply_readout_errors(samples, model, np.random.default_rng(0))
        assert flipped == ["1111", "0000"]

    def test_empty_samples(self):
        assert apply_readout_errors([], NoiseModel(), np.random.default_rng(0)) == []


class TestBitflipSampler:
    def test_noiseless_sampling_recovers_ideal(self, bv4):
        dist = sample_bitflip_distribution(bv4, NoiseModel.noiseless(), shots=2000,
                                           rng=np.random.default_rng(0))
        assert dist.probability("1111") == pytest.approx(1.0)

    def test_noisy_sampling_keeps_correct_dominant(self, bv4, mild_noise):
        dist = sample_bitflip_distribution(bv4, mild_noise, shots=4000, rng=np.random.default_rng(1))
        assert dist.most_probable() == "1111"
        assert 0.5 < dist.probability("1111") < 1.0

    def test_reuses_precomputed_ideal(self, bv4, mild_noise):
        ideal = Distribution({"1111": 1.0})
        dist = sample_bitflip_distribution(
            bv4, mild_noise, shots=2000, rng=np.random.default_rng(2), ideal=ideal
        )
        assert dist.num_bits == 4

    def test_total_weight_equals_shots(self, bv4, mild_noise):
        dist = sample_bitflip_distribution(bv4, mild_noise, shots=1234, rng=np.random.default_rng(3))
        assert dist.total_weight == pytest.approx(1234)

    def test_rejects_nonpositive_shots(self, bv4, mild_noise):
        with pytest.raises(CircuitError):
            sample_bitflip_distribution(bv4, mild_noise, shots=0)


class TestTrajectorySampler:
    def test_noiseless_trajectories_recover_ideal(self, bv4):
        dist = sample_trajectory_distribution(
            bv4, NoiseModel.noiseless(), shots=500, rng=np.random.default_rng(0), max_trajectories=8
        )
        assert dist.probability("1111") == pytest.approx(1.0)

    def test_noisy_trajectories_produce_errors(self):
        circuit = ghz_circuit(4)
        model = NoiseModel(single_qubit_error=0.05, two_qubit_error=0.1,
                           readout_error=ReadoutError(0.05, 0.05))
        dist = sample_trajectory_distribution(
            circuit, model, shots=800, rng=np.random.default_rng(1), max_trajectories=16
        )
        assert dist.num_outcomes > 2  # errors produced outcomes beyond the GHZ pair
        assert dist.total_weight == pytest.approx(800)

    def test_errors_cluster_near_correct_outcomes(self, mild_noise):
        circuit = bernstein_vazirani("10101")
        dist = sample_trajectory_distribution(
            circuit, mild_noise, shots=1000, rng=np.random.default_rng(2), max_trajectories=20
        )
        from repro.core import expected_hamming_distance

        assert expected_hamming_distance(dist, ["10101"]) < 2.5  # well below uniform (2.5 = n/2)

    def test_rejects_bad_trajectory_count(self, bv4, mild_noise):
        with pytest.raises(NoiseModelError):
            sample_trajectory_distribution(bv4, mild_noise, shots=10, max_trajectories=0)


class TestDispatchAndSampler:
    def test_dispatch_bitflip(self, bv4, mild_noise):
        dist = sample_noisy_distribution(bv4, mild_noise, shots=500, method="bitflip",
                                         rng=np.random.default_rng(0))
        assert dist.num_bits == 4

    def test_dispatch_trajectory(self, bv4, mild_noise):
        dist = sample_noisy_distribution(bv4, mild_noise, shots=100, method="trajectory",
                                         rng=np.random.default_rng(0))
        assert dist.num_bits == 4

    def test_dispatch_rejects_unknown_method(self, bv4, mild_noise):
        with pytest.raises(NoiseModelError):
            sample_noisy_distribution(bv4, mild_noise, shots=100, method="exact")

    def test_noisy_sampler_reproducible(self, bv4, mild_noise):
        first = NoisySampler(mild_noise, shots=1000, seed=42).run(bv4)
        second = NoisySampler(mild_noise, shots=1000, seed=42).run(bv4)
        assert first == second

    def test_noisy_sampler_run_ideal(self, bv4, mild_noise):
        sampler = NoisySampler(mild_noise, shots=100, seed=0)
        assert sampler.run_ideal(bv4).probability("1111") == pytest.approx(1.0)

    def test_noisy_sampler_rejects_bad_shots(self, mild_noise):
        with pytest.raises(CircuitError):
            NoisySampler(mild_noise, shots=0)


# ----------------------------------------------------------------------
# The in-place draw against the code it replaced
# ----------------------------------------------------------------------
def _reference_readout(bits, p10, p01, rng):
    """The readout step before the in-place rewrite: a float64 threshold matrix."""
    flip_probability = np.where(bits == 0, p10[None, :], p01[None, :])
    flips = rng.random(bits.shape) < flip_probability
    return np.bitwise_xor(bits, flips.astype(np.uint8))


def _reference_draw(plan, shots, generator):
    """``_BitflipPlan.draw`` before the in-place rewrite."""
    chosen = generator.choice(plan.num_outcomes, size=shots, p=plan.probability_vector)
    bits = plan.source_bits[chosen]
    gate_flips = generator.random(bits.shape) < plan.flip_probabilities[None, :]
    bits = np.bitwise_xor(bits, gate_flips.astype(np.uint8))
    if plan.scramble_probability > 0:
        scrambled = generator.random(shots) < plan.scramble_probability
        if scrambled.any():
            random_bits = generator.integers(
                0, 2, size=(int(scrambled.sum()), plan.num_qubits), dtype=np.uint8
            )
            bits[scrambled] = random_bits
    return _reference_readout(bits, plan.p10, plan.p01, generator)


#: Register widths: anything from 1 to 130 bits, word boundaries often.
_widths = st.sampled_from([1, 63, 64, 65, 128]) | st.integers(min_value=1, max_value=130)


def _per_qubit(rng, num_qubits, scale):
    """Heterogeneous per-qubit probabilities in [0, scale], some exactly 0 or 1."""
    values = rng.random(num_qubits) * scale
    edges = rng.random(num_qubits)
    values[edges < 0.05] = 0.0
    values[edges > 0.97] = 1.0
    return values


@st.composite
def bitflip_plans(draw):
    """A ``_BitflipPlan`` over an arbitrary ideal support and per-qubit noise."""
    num_qubits = draw(_widths)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = rng.integers(0, 2, size=(draw(st.integers(1, 64)), num_qubits), dtype=np.uint8)
    source = np.unique(rows, axis=0)
    weights = rng.random(len(source)) ** draw(st.sampled_from([1, 4]))
    weights[0] += 1e-3
    scale = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    return _BitflipPlan(
        num_qubits=num_qubits,
        source_bits=source,
        probability_vector=weights / weights.sum(),
        num_outcomes=len(source),
        flip_probabilities=_per_qubit(rng, num_qubits, scale),
        scramble_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-4, 0.3)),
        p10=_per_qubit(rng, num_qubits, scale),
        p01=_per_qubit(rng, num_qubits, scale),
    )


class TestInPlaceDraw:
    """The in-place draw is bit-identical to the code it replaced.

    The generator's state afterwards must match too: that pins the call
    contract (the same draws, of the same sizes, in the same order), which
    every pinned digest, golden row and benchmark reference depends on.
    """

    @given(bitflip_plans(), st.integers(1, 5_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_draw_matches_reference(self, plan, shots, seed):
        source = plan.source_bits.copy()
        fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bits = plan.draw(shots, fast_rng)
        expected = _reference_draw(plan, shots, reference_rng)
        assert bits.dtype == np.uint8 and bits.shape == (shots, plan.num_qubits)
        assert np.array_equal(bits, expected)
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state
        assert np.array_equal(plan.source_bits, source)

    @given(_widths, st.integers(1, 2_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(1, 1, 0)
    def test_readout_matches_reference(self, num_qubits, shots, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(shots, num_qubits), dtype=np.uint8)
        p10 = _per_qubit(rng, num_qubits, 0.3)
        p01 = _per_qubit(rng, num_qubits, 0.3)
        expected_rng = np.random.default_rng(seed + 1)
        expected = _reference_readout(bits, p10, p01, expected_rng)
        fast_rng = np.random.default_rng(seed + 1)
        noisy = _apply_readout_errors_to_bits(bits, p10, p01, fast_rng)
        assert noisy is bits
        assert np.array_equal(noisy, expected)
        assert fast_rng.bit_generator.state == expected_rng.bit_generator.state
