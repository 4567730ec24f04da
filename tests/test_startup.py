"""Start-up guard: importing the program does not load SciPy.

Only two functions use SciPy, the Fig. 11 rank correlation and the QAOA
optimiser, and each imports it on its first call.  Every process that
imports the CLI or the studies (each benchmark set-up, the shard broker and
its pull workers) therefore starts without it.  The check is on
``sys.modules`` in a fresh interpreter, not on timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.maxcut import optimize_qaoa, ring_graph_problem
from repro.quantum import simulate_statevector

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys

import repro.cli, repro.engine.broker, repro.experiments

loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"importing repro loaded SciPy: {loaded[:5]}"

from repro.maxcut import optimize_qaoa, ring_graph_problem
from repro.metrics import spearman_correlation
from repro.quantum import simulate_statevector

rho = spearman_correlation([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
assert "scipy.stats" in sys.modules
result = optimize_qaoa(
    ring_graph_problem(4),
    lambda circuit: simulate_statevector(circuit).measurement_distribution(),
    max_evaluations=4,
)
assert "scipy.optimize" in sys.modules
print(json.dumps({
    "rho": rho,
    "evaluations": result.num_evaluations,
    "best": result.best_expected_cost,
}))
"""


def test_importing_repro_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    fresh = json.loads(completed.stdout.strip().splitlines()[-1])
    # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with rank differences (1, -1, 1, -1, 0).
    assert fresh["rho"] == pytest.approx(0.8)
    here = optimize_qaoa(
        ring_graph_problem(4),
        lambda circuit: simulate_statevector(circuit).measurement_distribution(),
        max_evaluations=4,
    )
    assert fresh["evaluations"] == here.num_evaluations
    assert fresh["best"] == here.best_expected_cost
