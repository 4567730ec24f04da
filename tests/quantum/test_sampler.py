"""Tests for the bit-flip + scramble sampler and its NoisySampler front end."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.calibration import synthetic_snapshot
from repro.circuits import bernstein_vazirani, ghz_circuit, ghz_correct_outcomes
from repro.core import Distribution, expected_hamming_distance, spectrum_bins, uniform_model_ehd
from repro.exceptions import CircuitError
from repro.quantum import (
    NoiseModel,
    NoisySampler,
    QuantumCircuit,
    ReadoutError,
    ibm_paris,
    ideal_distribution,
    sample_bitflip_distribution,
)
from repro.quantum import sampler as sampler_module
from repro.quantum.sampler import _apply_readout_errors_to_bits, _BitflipPlan


@pytest.fixture
def bv4():
    return bernstein_vazirani("1111")


def _mild_noise():
    return NoiseModel(
        single_qubit_error=0.002,
        two_qubit_error=0.02,
        readout_error=ReadoutError(0.02, 0.04),
        idle_error_per_layer=0.001,
    )


@pytest.fixture
def mild_noise():
    return _mild_noise()


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

    def test_noiseless_counts_are_the_support_choice(self):
        # The draw's first generator call picks each shot's ideal outcome; with
        # no noise those picks are the histogram.
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1)
        ideal = ideal_distribution(circuit)
        picks = np.random.default_rng(3).choice(
            ideal.num_outcomes, size=1000, p=ideal.probability_vector()
        )
        expected = np.bincount(picks, minlength=ideal.num_outcomes)
        dist = sample_bitflip_distribution(circuit, NoiseModel.noiseless(), shots=1000,
                                           rng=np.random.default_rng(3), ideal=ideal)
        for outcome, count in zip(ideal.outcomes(), expected):
            assert dist.counts().get(outcome, 0.0) == float(count)

    def test_histogram_arrives_with_packed_view_cached(self, bv4, mild_noise):
        dist = sample_bitflip_distribution(bv4, mild_noise, shots=4096,
                                           rng=np.random.default_rng(7))
        assert dist.has_packed_view()
        assert dist.total_weight == pytest.approx(4096)

    @pytest.mark.parametrize("num_qubits", [70, 130])
    def test_readout_flips_across_word_boundaries(self, num_qubits):
        # Readout-only noise on a multi-word register: a 0 reads as 1 with
        # p10 = 0.01, a 1 as 0 with p01 = 0.03, so the mean distance from the
        # key is 0.01 * zeros + 0.03 * ones (twice as many ones as zeros).
        key = ("110" * num_qubits)[:num_qubits]
        model = NoiseModel(single_qubit_error=0.0, two_qubit_error=0.0,
                           readout_error=ReadoutError(0.01, 0.03), idle_error_per_layer=0.0)
        dist = sample_bitflip_distribution(
            bernstein_vazirani(key), model, shots=4000, rng=np.random.default_rng(5),
            ideal=Distribution.point_mass(key),
        )
        assert dist.num_bits == num_qubits
        assert dist.total_weight == pytest.approx(4000)
        ones = key.count("1")
        expected = 0.01 * (num_qubits - ones) + 0.03 * ones
        assert expected_hamming_distance(dist, [key]) == pytest.approx(expected, abs=0.15)


def _calibrated_paris():
    device = ibm_paris()
    return device.noise_model.with_calibration(synthetic_snapshot(device, seed=3, spread=0.4))


_CLUSTERING_MODELS = {
    "mild": _mild_noise,
    "paris": lambda: ibm_paris().noise_model,
    "paris-calibrated": _calibrated_paris,
}


class TestHammingClustering:
    """The paper's premise (Section 3) holds for the one noise model.

    Erroneous outcomes sit close to the correct one in Hamming space: the
    correct outcome stays the mode, the erroneous mass falls from distance 1
    to 2 to 3, and the EHD stays far below the uniform-error model's n/2.
    """

    @pytest.mark.parametrize("model", sorted(_CLUSTERING_MODELS))
    @pytest.mark.parametrize("key", ["10101", "110110", "1011011", "11111111"])
    def test_errors_cluster_near_the_correct_outcome(self, model, key):
        noise_model = _CLUSTERING_MODELS[model]()
        noisy = sample_bitflip_distribution(bernstein_vazirani(key), noise_model, shots=8000,
                                            rng=np.random.default_rng(11))
        mass = spectrum_bins(noisy, [key])
        assert noisy.most_probable() == key
        assert mass[1] > mass[2] > mass[3]
        assert expected_hamming_distance(noisy, [key]) < uniform_model_ehd(len(key)) / 2

    @pytest.mark.parametrize("model", sorted(_CLUSTERING_MODELS))
    def test_errors_cluster_near_a_two_outcome_correct_set(self, model):
        # Distances are to the nearer of the two GHZ outcomes (Section 3.2).
        correct = ghz_correct_outcomes(8)
        noisy = sample_bitflip_distribution(ghz_circuit(8), _CLUSTERING_MODELS[model](),
                                            shots=8000, rng=np.random.default_rng(11))
        mass = spectrum_bins(noisy, correct)
        assert sorted(outcome for outcome, _ in noisy.ranked_outcomes()[:2]) == correct
        assert mass[1] > mass[2] > mass[3] > mass[4]
        assert expected_hamming_distance(noisy, correct) < 1.0


class TestNoisySampler:
    def test_noisy_sampler_reproducible(self, bv4, mild_noise):
        first = NoisySampler(mild_noise, shots=1000, seed=42).run(bv4)
        second = NoisySampler(mild_noise, shots=1000, seed=42).run(bv4)
        assert first == second

    def test_noisy_sampler_rejects_bad_shots(self, mild_noise):
        with pytest.raises(CircuitError):
            NoisySampler(mild_noise, shots=0)

    def test_rejects_a_method_option(self, mild_noise):
        with pytest.raises(TypeError):
            NoisySampler(mild_noise, shots=100, seed=0, method="bitflip")

    def test_default_shot_budget(self, bv4, mild_noise):
        assert NoisySampler(mild_noise, seed=0).run(bv4).total_weight == pytest.approx(8192)

    def test_seeds_give_different_streams(self, bv4, mild_noise):
        first = NoisySampler(mild_noise, shots=1000, seed=1).run(bv4)
        second = NoisySampler(mild_noise, shots=1000, seed=2).run(bv4)
        assert first.counts() != second.counts()


def _no_simulation(circuit):
    raise AssertionError("the sampler simulated a circuit whose ideal it was given")


class TestNoisySamplerDrawsTheBitflipStream:
    """``NoisySampler.run`` is ``sample_bitflip_distribution`` on one generator.

    Two successive runs must draw exactly what two direct calls draw from one
    ``np.random.default_rng(seed)``: a re-seeded or separate stream per run,
    or another draw path, moves the second run's counts or packed words.  A
    given ``ideal`` is used, not simulated again.
    """

    @pytest.mark.parametrize("model", ["uniform", "calibrated"])
    @pytest.mark.parametrize("pass_ideal", [False, True])
    def test_two_runs_equal_two_direct_draws(self, model, pass_ideal, monkeypatch):
        noise_model = ibm_paris().noise_model if model == "uniform" else _calibrated_paris()
        circuits = [bernstein_vazirani("10110"), ghz_circuit(4)]
        ideals = [ideal_distribution(circuit) if pass_ideal else None for circuit in circuits]
        sampler = NoisySampler(noise_model, shots=3000, seed=17)
        with monkeypatch.context() as patch:
            if pass_ideal:
                patch.setattr(sampler_module, "simulate_statevector", _no_simulation)
            got = [sampler.run(circuit, ideal=ideal) for circuit, ideal in zip(circuits, ideals)]
        rng = np.random.default_rng(17)
        expected = [
            sample_bitflip_distribution(circuit, noise_model, 3000, rng=rng, ideal=ideal)
            for circuit, ideal in zip(circuits, ideals)
        ]
        for run, direct in zip(got, expected):
            assert run.counts() == direct.counts()
            assert np.array_equal(run.packed().words, direct.packed().words)
        # A fresh stream per run would make the second run a first draw.
        fresh = sample_bitflip_distribution(
            circuits[1], noise_model, 3000, rng=np.random.default_rng(17), ideal=ideals[1]
        )
        assert got[1].counts() != fresh.counts()


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


class TestReadoutFlips:
    """``_apply_readout_errors_to_bits``: a 0 flips with ``p10``, a 1 with ``p01``."""

    @staticmethod
    def _bits():
        return np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)

    def test_zero_rates_leave_every_bit(self):
        zero = np.zeros(4)
        noisy = _apply_readout_errors_to_bits(self._bits(), zero, zero, np.random.default_rng(0))
        assert np.array_equal(noisy, self._bits())

    def test_unit_rates_flip_every_bit(self):
        one = np.ones(4)
        noisy = _apply_readout_errors_to_bits(self._bits(), one, one, np.random.default_rng(0))
        assert np.array_equal(noisy, 1 - self._bits())

    @pytest.mark.parametrize(("p10", "p01", "reads"), [(1.0, 0.0, 1), (0.0, 1.0, 0)])
    def test_one_sided_rates_flip_one_direction(self, p10, p01, reads):
        noisy = _apply_readout_errors_to_bits(
            self._bits(), np.full(4, p10), np.full(4, p01), np.random.default_rng(0)
        )
        assert np.all(noisy == reads)

    def test_empty_shot_matrix(self):
        bits = np.zeros((0, 5), dtype=np.uint8)
        rates = np.full(5, 0.5)
        noisy = _apply_readout_errors_to_bits(bits, rates, rates, np.random.default_rng(0))
        assert noisy.shape == (0, 5)
