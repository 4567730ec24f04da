"""``--cache-dir`` transpile entries pickled while circuits held ``Instruction`` lists.

``data/parent_cache/transpile`` holds three transpile artifacts written by
``ExecutionCache.put`` before circuits pickled their instruction table: BV
(10 qubits) routed and decomposed for ibm-paris, an 8-qubit GHZ on the
``cz``-basis Sycamore grid, and an untranspiled 8-node QAOA circuit (``h``,
``rzz`` and ``rx`` with their angles).  ``transpile_answers.json`` holds
what that code answered, through :func:`answers` below, for each entry
loaded back with a fresh cache.  Loading the same bytes now must answer the
same, value for value, and so must the entry after it is written back in
the current (table) form.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.calibration import synthetic_snapshot
from repro.engine.cache import ExecutionCache
from repro.obs.metrics import MetricsScope
from repro.engine.hashing import circuit_fingerprint, ideal_key, sample_key
from repro.quantum.device import google_sycamore, ibm_paris
from repro.quantum.statevector import simulate_statevector

FIXTURE = Path(__file__).parent / "data" / "parent_cache"
ANSWERS = json.loads((FIXTURE / "transpile_answers.json").read_text())
DEVICES = {"bv-ibm-paris": ibm_paris, "ghz-sycamore-cz": google_sycamore, "qaoa-untranspiled": ibm_paris}


def _gates(instructions):
    return [[i.name, list(i.qubits), list(i.params)] for i in instructions]


def answers(artifact, device):
    """Every answer the fixture recorded, in the recorded call order."""
    circuit = artifact.circuit
    uniform = device.noise_model
    calibrated = uniform.with_calibration(synthetic_snapshot(device, seed=3, spread=0.4))
    return {
        "permutation": list(artifact.permutation),
        "num_swaps": artifact.num_swaps,
        "num_qubits": circuit.num_qubits,
        "name": circuit.name,
        "len": len(circuit),
        "instructions": _gates(circuit.instructions),
        "iter": _gates(circuit),
        "depth": circuit.depth(),
        "gate_counts": [list(item) for item in circuit.gate_counts().items()],
        "num_two_qubit_gates": circuit.num_two_qubit_gates(),
        "num_single_qubit_gates": circuit.num_single_qubit_gates(),
        "gates_per_qubit": circuit.gates_per_qubit(),
        "two_qubit_gates_per_qubit": circuit.two_qubit_gates_per_qubit(),
        "qubits_used": sorted(circuit.qubits_used()),
        "interaction_pairs": [list(pair) for pair in sorted(circuit.interaction_pairs())],
        "fingerprint": circuit_fingerprint(circuit),
        "ideal_key": ideal_key(circuit, backend="statevector"),
        "sample_key": sample_key(circuit, calibrated, 4096, (8, 3), backend="statevector"),
        "inverse_fingerprint": circuit_fingerprint(circuit.inverse()),
        "flips_uniform": uniform.accumulated_bitflip_probabilities(circuit).tolist(),
        "flips_calibrated": calibrated.accumulated_bitflip_probabilities(circuit).tolist(),
        "scramble_uniform": uniform.scramble_probability(circuit),
        "scramble_calibrated": calibrated.scramble_probability(circuit),
        "ideal": [
            [outcome, p]
            for outcome, p in simulate_statevector(circuit).measurement_distribution().probabilities().items()
        ],
    }


@pytest.fixture
def cache_dir(tmp_path):
    # A failed load deletes the entry, so never point the cache at the fixture itself.
    target = tmp_path / "cache"
    shutil.copytree(FIXTURE, target)
    return target


def _load(cache_dir, entry):
    cache = ExecutionCache(cache_dir)
    with MetricsScope() as scope:
        artifact = cache.get("transpile", entry)
    assert artifact is not None and scope.registry.counters == {"cache.transpile.hits": 1}
    return artifact


@pytest.mark.parametrize("entry", sorted(ANSWERS))
def test_old_entries_answer_as_they_did(cache_dir, entry):
    artifact = _load(cache_dir, entry)
    assert json.loads(json.dumps(answers(artifact, DEVICES[entry]()))) == ANSWERS[entry]


@pytest.mark.parametrize("entry", sorted(ANSWERS))
def test_entries_rewritten_now_answer_the_same(cache_dir, tmp_path, entry):
    fresh = tmp_path / "fresh"
    ExecutionCache(fresh).put("transpile", entry, _load(cache_dir, entry))
    rewritten = (fresh / "transpile" / f"{entry}.pkl").stat().st_size
    assert rewritten < (FIXTURE / "transpile" / f"{entry}.pkl").stat().st_size
    artifact = _load(fresh, entry)
    # The table form loads without building the instruction list.
    assert artifact.circuit._instructions is None
    assert json.loads(json.dumps(answers(artifact, DEVICES[entry]()))) == ANSWERS[entry]
