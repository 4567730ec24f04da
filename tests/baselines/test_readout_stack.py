"""``ReadoutCalibration`` checks and inverts its confusion matrices as one stack.

The per-matrix loop it replaced is kept here as the reference: the stacked
``np.linalg.det``/``np.linalg.inv`` results must be ``np.array_equal`` to the
per-matrix calls, the errors must read the same, and mitigation through the
per-qubit axis helper must return the same rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.readout_mitigation import ReadoutCalibration, mitigate_readout
from repro.exceptions import NoiseModelError

_SETTINGS = dict(deadline=None, derandomize=True)


def _reference_matrices(p10, p01):
    return [np.array([[1.0 - a, b], [a, 1.0 - b]]) for a, b in zip(p10, p01)]


def _reference_inverses(matrices):
    return [np.linalg.inv(matrix) for matrix in matrices]


def _assert_matches_reference(p10, p01):
    calibration = ReadoutCalibration.from_flip_probabilities(p10, p01)
    expected = _reference_matrices(p10, p01)
    assert len(calibration.confusion_matrices) == len(expected)
    for got, want in zip(calibration.confusion_matrices, expected):
        assert np.array_equal(got, want)
    for got, want in zip(calibration.inverse_matrices(), _reference_inverses(expected)):
        assert np.array_equal(got, want)
    assert np.array_equal(
        np.linalg.det(np.stack(expected)), np.array([np.linalg.det(m) for m in expected])
    )


def test_every_zoo_warm_calibration(workload_runs):
    run = workload_runs["zoo-warm"]
    assert len(run.results) == 28
    for job, result in zip(run.jobs, run.results):
        p10, p01 = job.noise_model.readout_flip_probabilities(result.noisy.num_bits)
        _assert_matches_reference(result.to_logical_order(p10), result.to_logical_order(p01))


@given(
    rates=st.lists(
        st.tuples(st.floats(0.0, 0.49), st.floats(0.0, 0.49)), min_size=1, max_size=24
    )
)
@settings(max_examples=150, **_SETTINGS)
def test_hypothesis_flip_rates(rates):
    p10 = np.array([a for a, _ in rates])
    p01 = np.array([b for _, b in rates])
    _assert_matches_reference(p10, p01)


def test_errors_read_the_same():
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    singular = np.array([[0.5, 0.5], [0.5, 0.5]])
    bad_columns = np.array([[0.9, 0.3], [0.3, 0.8]])
    with pytest.raises(NoiseModelError, match="^confusion matrix is singular; cannot invert$"):
        ReadoutCalibration((good, singular, good)).inverse_matrices()
    with pytest.raises(NoiseModelError, match="^each confusion matrix must be 2x2$"):
        ReadoutCalibration((good, np.eye(3)))
    with pytest.raises(NoiseModelError, match="^confusion matrix columns must each sum to 1$"):
        ReadoutCalibration((good, bad_columns))
    # A bad matrix before a badly shaped one is reported first, as the loop did.
    with pytest.raises(NoiseModelError, match="columns must each sum to 1"):
        ReadoutCalibration((bad_columns, np.eye(3)))
    assert ReadoutCalibration(()).inverse_matrices() == []


def test_mitigated_rows_are_unchanged(workload_runs):
    run = workload_runs["zoo-warm"]
    for job, result in zip(run.jobs[:6], run.results[:6]):
        p10, p01 = job.noise_model.readout_flip_probabilities(result.noisy.num_bits)
        p10, p01 = result.to_logical_order(p10), result.to_logical_order(p01)
        calibration = ReadoutCalibration.from_flip_probabilities(p10, p01)
        mitigated = mitigate_readout(result.noisy, calibration)
        # The per-axis loop written out, with the per-matrix inverses.
        packed = result.noisy.packed()
        indices = packed.words[:, 0].astype(np.intp)
        dense = np.zeros(1 << packed.num_bits)
        dense[indices] = packed.probabilities
        for position, inverse in enumerate(_reference_inverses(_reference_matrices(p10, p01))):
            dense = np.matmul(inverse, dense.reshape(1 << position, 2, -1)).reshape(-1)
        corrected = np.clip(dense[indices], 0.0, None)
        kept = np.nonzero(corrected > 0)[0]
        assert np.array_equal(mitigated.packed().words, packed.words[kept])
        assert np.array_equal(mitigated.weight_vector(), corrected[kept] / corrected[kept].sum())
