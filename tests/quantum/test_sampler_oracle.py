"""The bit-flip sampler against the exact output distribution of the model it documents.

The sampler's module docstring describes a product channel: each shot is an
ideal outcome, then an independent flip of qubit ``q`` with probability
``flip[q]`` (``NoiseModel.accumulated_bitflip_probabilities``), then with
probability ``s`` (``scramble_probability``) a uniformly random
replacement, then per-qubit readout errors (``p10``, ``p01``).  For ``n <=
12`` that model's histogram is exact and cheap: scatter the ideal
distribution into a ``2^n`` vector, apply each qubit's 2x2 flip matrix along
its axis, mix with the uniform vector by ``s``, then apply each qubit's
readout confusion matrix along its axis (the forward run of readout
mitigation's per-qubit product, through the same helper).

Each case draws at a fixed seed, through ``sample_bitflip_batch`` and
through 8 chunks of ``sample_bitflip_chunk``, and requires Pearson's
chi-square against the exact histogram to stay below its 0.999 quantile
(bins expecting fewer than 5 shots pooled into one).  The flip and
scramble inputs are the ones the instruction table builds, so this also
checks them against the model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.readout_mitigation import apply_per_qubit
from repro.calibration import synthetic_snapshot
from repro.circuits.bv import bernstein_vazirani
from repro.circuits.ghz import ghz_circuit
from repro.circuits.qaoa import default_qaoa_parameters, qaoa_circuit
from repro.maxcut.graphs import regular_graph_problem
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import google_sycamore, ibm_paris
from repro.quantum.noise import NoiseModel, ReadoutError
from repro.quantum.sampler import sample_bitflip_batch, sample_bitflip_chunk
from repro.quantum.statevector import simulate_statevector
from repro.quantum.transpiler import transpile

SHOTS = 131_072
CHUNKS = 8


def exact_histogram(circuit: QuantumCircuit, noise_model: NoiseModel, ideal) -> np.ndarray:
    """The bit-flip model's output distribution, indexed by the one-word packed key."""
    n = circuit.num_qubits
    packed = ideal.packed()
    dense = np.zeros(1 << n)
    dense[packed.words[:, 0].astype(np.intp)] = packed.probabilities
    flips = noise_model.accumulated_bitflip_probabilities(circuit)
    dense = apply_per_qubit([np.array([[1.0 - f, f], [f, 1.0 - f]]) for f in flips], dense)
    scramble = noise_model.scramble_probability(circuit)
    dense = (1.0 - scramble) * dense + scramble / (1 << n)
    p10, p01 = noise_model.readout_flip_probabilities(n)
    readout = [np.array([[1.0 - a, b], [a, 1.0 - b]]) for a, b in zip(p10, p01)]
    return apply_per_qubit(readout, dense)


def chi_square(observed: np.ndarray, probabilities: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic and degrees of freedom, bins expecting < 5 shots pooled."""
    shots = observed.sum()
    expected = shots * probabilities
    small = expected < 5.0
    observed_bins = np.append(observed[~small], observed[small].sum())
    expected_bins = np.append(expected[~small], expected[small].sum())
    if expected_bins[-1] == 0.0:
        assert observed_bins[-1] == 0, "shots landed on outcomes the model never produces"
        observed_bins, expected_bins = observed_bins[:-1], expected_bins[:-1]
    statistic = float(np.sum((observed_bins - expected_bins) ** 2 / expected_bins))
    return statistic, len(expected_bins) - 1


def _observed(words: np.ndarray, counts: np.ndarray, num_qubits: int) -> np.ndarray:
    dense = np.zeros(1 << num_qubits)
    np.add.at(dense, words[:, 0].astype(np.intp), counts)
    return dense


def _transpiled(circuit, device):
    return transpile(circuit, coupling_map=device.coupling_map, basis_gates=device.basis_gates).circuit


def _deep_cx_chain(num_qubits: int, layers: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name="cx-chain")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for _ in range(layers):
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
    return circuit


def _cases():
    paris, sycamore = ibm_paris(), google_sycamore()
    heterogeneous = paris.noise_model.with_calibration(synthetic_snapshot(paris, seed=11, spread=0.6))
    qaoa = qaoa_circuit(regular_graph_problem(8, 3, seed=5), default_qaoa_parameters(2))
    return {
        "bv-10-ibm-paris": (_transpiled(bernstein_vazirani("1011001101"), paris), paris.noise_model),
        "ghz-8-sycamore": (_transpiled(ghz_circuit(8), sycamore), sycamore.noise_model),
        "bv-10-heterogeneous": (_transpiled(bernstein_vazirani("0110111010"), paris), heterogeneous),
        "qaoa-8": (qaoa, NoiseModel(two_qubit_error=0.02, crosstalk_error=0.004)),
        # s = 0: no two-qubit error, so no scramble.
        "scramble-0": (
            bernstein_vazirani("110101"),
            NoiseModel(two_qubit_error=0.0, readout_error=ReadoutError(0.03, 0.12)),
        ),
        # s = 1: 66 two-qubit gates at error 1 leave 2**-66 survival, which is 0.0.
        "scramble-1": (
            _deep_cx_chain(7, 11),
            NoiseModel(two_qubit_error=1.0, readout_error=ReadoutError(0.02, 0.2)),
        ),
    }


CASES = _cases()


def test_the_cases_cover_both_scramble_extremes():
    assert CASES["scramble-0"][1].scramble_probability(CASES["scramble-0"][0]) == 0.0
    assert CASES["scramble-1"][1].scramble_probability(CASES["scramble-1"][0]) == 1.0
    for circuit, model in CASES.values():
        assert circuit.num_qubits <= 12
        assert 0.0 < float(np.max(model.accumulated_bitflip_probabilities(circuit)))


@pytest.mark.parametrize("path", ["batch", "chunks"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_histograms_fit_the_exact_model(case, path):
    from scipy.stats import chi2

    circuit, model = CASES[case]
    ideal = simulate_statevector(circuit).measurement_distribution()
    seed = sorted(CASES).index(case)
    n = circuit.num_qubits
    if path == "batch":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        (noisy,) = sample_bitflip_batch(circuit, model, [(SHOTS, rng)], ideal=ideal)
        observed = _observed(noisy.packed().words, noisy.weight_vector(), n)
    else:
        observed = np.zeros(1 << n)
        for chunk in range(CHUNKS):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 1, chunk)))
            words, counts = sample_bitflip_chunk(circuit, model, SHOTS // CHUNKS, rng, ideal=ideal)
            observed += _observed(words, counts, n)
    assert observed.sum() == SHOTS
    statistic, dof = chi_square(observed, exact_histogram(circuit, model, ideal))
    assert statistic < chi2.ppf(0.999, dof), (statistic, dof)
