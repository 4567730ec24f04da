"""Tests for tensored readout-error mitigation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ReadoutCalibration, ReadoutMitigationStage, mitigate_readout
from repro.baselines.readout_mitigation import (
    _tensored_inverse_on_hypercube,
    _tensored_inverse_on_support,
)
from repro.circuits import bernstein_vazirani
from repro.core import Distribution
from repro.core.kernels import DENSE_CHS_MAX_BITS
from repro.exceptions import NoiseModelError
from repro.metrics import total_variation_distance
from repro.obs import Observation
from repro.quantum import NoiseModel, NoisySampler, ReadoutError, ideal_distribution

#: |hypercube - loop| <= HYPERCUBE_RTOL * S(x) elementwise, where S(x) is the
#: loop run on the elementwise |M_k^{-1}| (a sum of absolute terms, so free
#: of cancellation).  Fixed before the test was written, from 3,000 random
#: cases of the shapes drawn below whose worst error stayed under 2e-15 * S.
HYPERCUBE_RTOL = 1e-13


def _heterogeneous_calibration(rng: np.random.Generator, num_bits: int) -> ReadoutCalibration:
    """One distinct confusion matrix per qubit, flip rates in [0, 0.2]."""
    return ReadoutCalibration.from_flip_probabilities(
        rng.uniform(0.0, 0.2, num_bits), rng.uniform(0.0, 0.2, num_bits)
    )


def _sparse_histogram(rng: np.random.Generator, num_bits: int, size: int) -> Distribution:
    """``size`` distinct random outcomes with integer counts 1-50."""
    bits = np.unique(rng.integers(0, 2, size=(size, num_bits)), axis=0)
    strings = ["".join("1" if b else "0" for b in row) for row in bits]
    return Distribution(dict(zip(strings, rng.integers(1, 51, len(strings)).astype(float))))


def _assert_paths_agree(dist: Distribution, calibration: ReadoutCalibration) -> None:
    """The hypercube path equals the support loop within HYPERCUBE_RTOL * S(x)."""
    packed = dist.packed()
    inverses = calibration.inverse_matrices()
    hypercube = _tensored_inverse_on_hypercube(packed, inverses)
    loop = _tensored_inverse_on_support(packed, inverses)
    scale = _tensored_inverse_on_support(packed, [np.abs(m) for m in inverses])
    assert np.all(np.abs(hypercube - loop) <= HYPERCUBE_RTOL * scale)


@st.composite
def mitigation_cases(draw):
    """A 1-12-bit histogram of 1 to min(2^n, 600) outcomes and a per-qubit calibration."""
    num_bits = draw(st.integers(min_value=1, max_value=12))
    size = draw(st.integers(min_value=1, max_value=min(1 << num_bits, 600)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rates = st.lists(
        st.floats(min_value=0.0, max_value=0.2), min_size=num_bits, max_size=num_bits
    )
    calibration = ReadoutCalibration.from_flip_probabilities(draw(rates), draw(rates))
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(1 << num_bits, size=size, replace=False)
    counts = rng.integers(1, 51, size=size).astype(float)
    strings = [format(int(value), f"0{num_bits}b") for value in outcomes]
    return Distribution(dict(zip(strings, counts))), calibration


class TestCalibration:
    def test_from_readout_error(self):
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.02, 0.05), 3)
        assert calibration.num_qubits == 3
        for matrix in calibration.confusion_matrices:
            assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_rejects_bad_matrix_shape(self):
        with pytest.raises(NoiseModelError):
            ReadoutCalibration(confusion_matrices=(np.eye(3),))

    def test_rejects_non_stochastic(self):
        with pytest.raises(NoiseModelError):
            ReadoutCalibration(confusion_matrices=(np.array([[0.5, 0.5], [0.2, 0.2]]),))

    def test_inverse_matrices(self):
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.1, 0.2), 1)
        inverse = calibration.inverse_matrices()[0]
        assert np.allclose(inverse @ calibration.confusion_matrices[0], np.eye(2), atol=1e-10)

    def test_singular_matrix_rejected_on_inversion(self):
        singular = np.array([[0.5, 0.5], [0.5, 0.5]])
        calibration = ReadoutCalibration(confusion_matrices=(singular,))
        with pytest.raises(NoiseModelError):
            calibration.inverse_matrices()


class TestMitigation:
    def test_no_error_is_identity(self):
        dist = Distribution({"01": 0.25, "10": 0.75})
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.0, 0.0), 2)
        assert mitigate_readout(dist, calibration) == dist.normalized()

    def test_rejects_width_mismatch(self):
        dist = Distribution({"01": 1.0})
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.01, 0.01), 3)
        with pytest.raises(NoiseModelError):
            mitigate_readout(dist, calibration)

    def test_output_is_valid_distribution(self):
        dist = Distribution({"00": 0.5, "01": 0.2, "10": 0.2, "11": 0.1})
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.05, 0.1), 2)
        corrected = mitigate_readout(dist, calibration)
        assert sum(corrected.probabilities().values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in corrected.probabilities().values())

    def test_reduces_readout_induced_error(self):
        """Mitigation should move a readout-noisy histogram closer to the ideal one."""
        circuit = bernstein_vazirani("1111")
        ideal = ideal_distribution(circuit)
        readout_only = NoiseModel(
            single_qubit_error=0.0,
            two_qubit_error=0.0,
            idle_error_per_layer=0.0,
            readout_error=ReadoutError(0.05, 0.1),
        )
        noisy = NoisySampler(readout_only, shots=20_000, seed=7).run(circuit)
        calibration = ReadoutCalibration.from_readout_error(readout_only.readout_error, 4)
        corrected = mitigate_readout(noisy, calibration)
        assert total_variation_distance(corrected, ideal) < total_variation_distance(noisy, ideal)

    def test_pipeline_stage_wrapper(self):
        dist = Distribution({"00": 0.6, "01": 0.4})
        calibration = ReadoutCalibration.from_readout_error(ReadoutError(0.02, 0.02), 2)
        stage = ReadoutMitigationStage(calibration)
        assert stage.name == "readout-mitigation"
        result = stage.apply(dist)
        assert sum(result.probabilities().values()) == pytest.approx(1.0)


class TestHypercubePath:
    """The dense ``2^n`` path against the support loop and against the mathematics."""

    @given(mitigation_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_support_loop(self, case):
        _assert_paths_agree(*case)

    @pytest.mark.parametrize("num_bits", range(1, 9))
    def test_inverts_the_tensored_confusion_matrix(self, num_bits):
        rng = np.random.default_rng(100 + num_bits)
        ideal = rng.dirichlet(np.ones(1 << num_bits))
        calibration = _heterogeneous_calibration(rng, num_bits)
        confusion = np.ones((1, 1))
        for matrix in calibration.confusion_matrices:
            confusion = np.kron(confusion, matrix)
        strings = [format(index, f"0{num_bits}b") for index in range(1 << num_bits)]
        measured = Distribution(dict(zip(strings, confusion @ ideal)))
        corrected = mitigate_readout(measured, calibration)
        recovered = np.array([corrected.probability(outcome) for outcome in strings])
        assert len(corrected) == 1 << num_bits
        assert np.allclose(recovered, ideal, rtol=0.0, atol=1e-12)


class TestPathBoundary:
    """Registers up to DENSE_CHS_MAX_BITS take the hypercube, wider ones the loop."""

    @staticmethod
    def _mitigate_counted(dist, calibration):
        with Observation() as observation:
            corrected = mitigate_readout(dist, calibration)
        counters = observation.registry.snapshot()["counters"]
        return corrected, {k: v for k, v in counters.items() if k.startswith("mitigation.")}

    def test_widest_hypercube_register(self):
        rng = np.random.default_rng(20)
        dist = _sparse_histogram(rng, DENSE_CHS_MAX_BITS, 40)
        calibration = _heterogeneous_calibration(rng, DENSE_CHS_MAX_BITS)
        corrected, counters = self._mitigate_counted(dist, calibration)
        assert counters == {"mitigation.plan.hypercube": 1}
        assert sum(corrected.probabilities().values()) == pytest.approx(1.0)
        _assert_paths_agree(dist, calibration)

    def test_one_bit_wider_takes_the_support_loop(self):
        rng = np.random.default_rng(21)
        dist = _sparse_histogram(rng, DENSE_CHS_MAX_BITS + 1, 40)
        calibration = _heterogeneous_calibration(rng, DENSE_CHS_MAX_BITS + 1)
        _, counters = self._mitigate_counted(dist, calibration)
        assert counters == {"mitigation.plan.support": 1}

    def test_two_word_register_matches_the_loop_bit_for_bit(self):
        # A heavy outcome, 30 of its single-bit-flip neighbours at one count
        # each (their corrections go negative and are clipped) and 10 others.
        rng = np.random.default_rng(70)
        base = rng.integers(0, 2, 70)
        neighbours = np.tile(base, (30, 1))
        neighbours[np.arange(30), rng.choice(70, size=30, replace=False)] ^= 1
        rows = np.vstack([base, neighbours, rng.integers(0, 2, size=(10, 70))])
        strings = ["".join("1" if b else "0" for b in row) for row in rows]
        dist = Distribution(dict(zip(strings, [1000.0] + [1.0] * (len(strings) - 1))))
        calibration = _heterogeneous_calibration(rng, 70)
        corrected, counters = self._mitigate_counted(dist, calibration)
        assert counters == {"mitigation.plan.support": 1}
        probabilities = corrected.probabilities()
        assert all(p >= 0 for p in probabilities.values())
        assert sum(probabilities.values()) == pytest.approx(1.0)
        packed = dist.packed()
        loop = _tensored_inverse_on_support(packed, calibration.inverse_matrices())
        loop = np.clip(loop, 0.0, None)
        kept = np.nonzero(loop > 0)[0]
        assert 0 < kept.size < len(dist)
        expected = Distribution.from_packed(
            packed.subset(kept).with_probabilities(loop[kept] / loop[kept].sum())
        )
        assert probabilities == expected.probabilities()
