"""Tests for noise channels and noise models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NoiseModelError
from repro.quantum import NoiseModel, PauliNoise, QuantumCircuit, ReadoutError
from repro.quantum.circuit import Instruction


class TestReadoutError:
    def test_flip_probability(self):
        error = ReadoutError(prob_1_given_0=0.01, prob_0_given_1=0.05)
        assert error.flip_probability("0") == 0.01
        assert error.flip_probability("1") == 0.05

    def test_confusion_matrix_columns_sum_to_one(self):
        matrix = ReadoutError(0.02, 0.07).confusion_matrix()
        assert np.allclose(matrix.sum(axis=0), [1.0, 1.0])

    def test_symmetric_constructor(self):
        error = ReadoutError.symmetric(0.03)
        assert error.prob_1_given_0 == error.prob_0_given_1 == 0.03

    def test_rejects_out_of_range(self):
        with pytest.raises(NoiseModelError):
            ReadoutError(1.5, 0.0)


class TestPauliNoise:
    def test_depolarizing_split(self):
        channel = PauliNoise.depolarizing(0.03)
        assert channel.prob_x + channel.prob_y + channel.prob_z == pytest.approx(0.03)
        assert channel.bitflip_probability == pytest.approx(0.02)

    def test_rejects_negative(self):
        with pytest.raises(NoiseModelError):
            PauliNoise(-0.1, 0.0, 0.0)

    def test_rejects_sum_above_one(self):
        with pytest.raises(NoiseModelError):
            PauliNoise(0.5, 0.5, 0.5)

    def test_depolarizing_rejects_out_of_range(self):
        with pytest.raises(NoiseModelError):
            PauliNoise.depolarizing(1.5)


class TestNoiseModel:
    @pytest.fixture
    def circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2)
        return circuit

    def test_gate_error_distinguishes_arity(self):
        model = NoiseModel(single_qubit_error=0.001, two_qubit_error=0.02)
        assert model.gate_error(Instruction("h", (0,))) == 0.001
        assert model.gate_error(Instruction("cx", (0, 1))) == 0.02

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(NoiseModelError):
            NoiseModel(single_qubit_error=2.0)

    def test_accumulated_bitflip_probabilities(self, circuit):
        model = NoiseModel(single_qubit_error=0.01, two_qubit_error=0.05, idle_error_per_layer=0.0)
        flips = model.accumulated_bitflip_probabilities(circuit)
        assert flips.shape == (3,)
        assert np.all(flips > 0)
        assert np.all(flips < 1)
        # Qubit 1 touches two CX gates; qubit 0 touches one CX and one H.
        assert flips[1] > flips[0]

    def test_accumulated_bitflips_zero_for_noiseless(self, circuit):
        assert np.allclose(NoiseModel.noiseless().accumulated_bitflip_probabilities(circuit), 0.0)

    def test_scramble_probability_grows_with_two_qubit_gates(self, circuit):
        model = NoiseModel(two_qubit_error=0.02)
        small = model.scramble_probability(circuit)
        deeper = circuit.copy()
        for _ in range(10):
            deeper.cx(0, 1)
        assert model.scramble_probability(deeper) > small

    def test_readout_flip_probabilities_shape(self):
        model = NoiseModel(readout_error=ReadoutError(0.01, 0.04))
        p10, p01 = model.readout_flip_probabilities(5)
        assert p10.shape == p01.shape == (5,)
        assert np.all(p10 == 0.01)
        assert np.all(p01 == 0.04)

    def test_scaled(self):
        model = NoiseModel(single_qubit_error=0.01, two_qubit_error=0.02)
        scaled = model.scaled(2.0)
        assert scaled.single_qubit_error == pytest.approx(0.02)
        assert scaled.two_qubit_error == pytest.approx(0.04)
        assert scaled.readout_error.prob_1_given_0 == pytest.approx(
            min(1.0, model.readout_error.prob_1_given_0 * 2)
        )

    def test_scaled_caps_at_one(self):
        model = NoiseModel(two_qubit_error=0.6)
        assert model.scaled(3.0).two_qubit_error == 1.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(NoiseModelError):
            NoiseModel().scaled(-1.0)


class TestCalibratedNoiseModel:
    """Per-qubit/per-edge behaviour when a CalibrationSnapshot is attached."""

    @pytest.fixture
    def circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2)
        return circuit

    @pytest.fixture
    def calibrated(self):
        from repro.calibration import synthetic_snapshot
        from repro.quantum.device import ibm_paris

        device = ibm_paris()
        snapshot = synthetic_snapshot(device, seed=9, spread=0.5)
        return device.noise_model.with_calibration(snapshot)

    def test_with_calibration_round_trip(self, calibrated):
        assert calibrated.is_calibrated
        assert not calibrated.with_calibration(None).is_calibrated

    def test_gate_error_reads_per_edge_and_per_qubit_rates(self, calibrated):
        snapshot = calibrated.calibration
        assert calibrated.gate_error(Instruction("cx", (0, 1))) == snapshot.edge_error(0, 1)
        assert calibrated.gate_error(Instruction("h", (2,))) == snapshot.single_qubit_error[2]

    def test_readout_flip_probabilities_are_heterogeneous(self, calibrated):
        p10, p01 = calibrated.readout_flip_probabilities(5)
        assert len(set(p10.tolist())) > 1
        assert np.all(p10 == calibrated.calibration.p10[:5])
        assert np.all(p01 == calibrated.calibration.p01[:5])

    def test_accumulated_bitflips_differ_from_uniform(self, calibrated, circuit):
        from repro.quantum.device import ibm_paris

        uniform = ibm_paris().noise_model.accumulated_bitflip_probabilities(circuit)
        heterogeneous = calibrated.accumulated_bitflip_probabilities(circuit)
        assert heterogeneous.shape == uniform.shape
        assert not np.allclose(uniform, heterogeneous)

    def test_uniform_snapshot_matches_scalar_model(self, circuit):
        from repro.calibration import uniform_snapshot
        from repro.quantum.device import ibm_paris

        device = ibm_paris()
        flat = device.noise_model.with_calibration(uniform_snapshot(device))
        assert np.allclose(
            flat.accumulated_bitflip_probabilities(circuit),
            device.noise_model.accumulated_bitflip_probabilities(circuit),
        )
        assert flat.scramble_probability(circuit) == pytest.approx(
            device.noise_model.scramble_probability(circuit)
        )

    def test_scaled_scales_arrays_with_per_field_cap(self, calibrated):
        scaled = calibrated.scaled(100.0)
        assert np.all(scaled.calibration.p01 <= 1.0)
        assert np.any(scaled.calibration.p01 == 1.0)
        small = calibrated.scaled(0.5)
        assert np.allclose(small.calibration.two_qubit_error,
                           calibrated.calibration.two_qubit_error * 0.5)

    def test_scaled_factor_zero_equals_noiseless(self, calibrated, circuit):
        zero = calibrated.scaled(0.0)
        noiseless = NoiseModel.noiseless()
        assert np.array_equal(
            zero.accumulated_bitflip_probabilities(circuit),
            noiseless.accumulated_bitflip_probabilities(circuit),
        )
        p10, p01 = zero.readout_flip_probabilities(3)
        assert np.all(p10 == 0.0) and np.all(p01 == 0.0)
        assert zero.scramble_probability(circuit) == 0.0

    def test_width_mismatch_raises_clearly(self, calibrated):
        wide = QuantumCircuit(calibrated.calibration.num_qubits + 1)
        wide.h(0)
        with pytest.raises(NoiseModelError, match="ibm-paris"):
            calibrated.accumulated_bitflip_probabilities(wide)
        with pytest.raises(NoiseModelError):
            calibrated.readout_flip_probabilities(calibrated.calibration.num_qubits + 1)
