"""Ablation benches for HAMMER's design choices (see ``repro.core.variants``).

Compares the paper's configuration against the named variants (no filter,
no n/2 cutoff, alternative weight schemes) on a fixed set of noisy BV
histograms, reporting the geometric-mean PST improvement of each variant.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.circuits import bernstein_vazirani, bv_secret_key
from repro.core import hammer, variants
from repro.experiments import format_table
from repro.metrics import geometric_mean, probability_of_successful_trial, relative_improvement
from repro.quantum import NoisySampler, ibm_paris, transpile


def _collect_bv_histograms(sizes=(6, 8, 10), shots=8192, seed=77):
    device = ibm_paris()
    sampler = NoisySampler(device.noise_model, shots=shots, seed=seed)
    runs = []
    for num_qubits in sizes:
        key = bv_secret_key(num_qubits, "alternating")
        transpiled = transpile(
            bernstein_vazirani(key), coupling_map=device.coupling_map, basis_gates=device.basis_gates
        )
        noisy = sampler.run(transpiled.circuit).mapped(transpiled.measurement_permutation())
        runs.append((key, noisy))
    return runs


def _score_variants(runs):
    rows = []
    for name, config in variants.all_variants().items():
        improvements = []
        for key, noisy in runs:
            baseline = probability_of_successful_trial(noisy, key)
            corrected = probability_of_successful_trial(hammer(noisy, config), key)
            improvements.append(relative_improvement(baseline, corrected))
        rows.append({"variant": name, "gmean_pst_improvement": geometric_mean(improvements)})
    return rows


def test_ablation_variants(benchmark):
    runs = _collect_bv_histograms()
    rows = run_once(benchmark, _score_variants, runs)
    print()
    print(format_table(rows))

    by_name = {row["variant"]: row["gmean_pst_improvement"] for row in rows}
    # The paper's configuration improves fidelity.
    assert by_name["paper_default"] > 1.1
    # Every variant still produces an improvement on these clustered histograms...
    assert all(value > 0.8 for value in by_name.values())
    # ...but the paper's inverse-CHS weighting beats flat uniform weights.
    assert by_name["paper_default"] >= by_name["uniform_weights"] * 0.95
    # Restricting to nearest neighbours only must not dramatically beat the full scheme
    # (otherwise the n/2 neighbourhood would be pointless).
    assert by_name["paper_default"] >= by_name["nearest_neighbor_only"] * 0.8
