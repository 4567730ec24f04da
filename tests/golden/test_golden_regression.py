"""Golden regression fixtures: fig8 and table1 rows at fixed seeds.

The checked-in JSON files under ``tests/golden/`` hold the exact row tables
(and headline summaries) of a laptop-scale fig8 BV sweep and the Table 1
Google-dataset composition at pinned seeds.  Any drift — an RNG stream
reordering, a changed default, a numerical regression — fails these tests
with a field-level diff.

When a change is *supposed* to move the numbers, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden

and commit the updated fixtures together with the change that explains them.

Every fixture must also stay on the bit-stable ``dense`` kernel plan: each
payload is built once under an observation, and its ``kernel.plan.*``
counters are checked in both modes, so a fixture whose support crosses
``DENSE_SUPPORT_MAX`` fails loudly instead of drifting.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.datasets.google_qaoa import generate_google_dataset, small_table1_config, table1_summaries
from repro.engine import ExecutionEngine
from repro.experiments.bv_study import BvStudyConfig, run_bv_study
from repro.experiments.runner import _json_default, _json_sanitize
from repro.obs import Observation

GOLDEN_DIR = Path(__file__).resolve().parent


def _fig8_payload() -> dict:
    config = BvStudyConfig(qubit_range=(5, 8), keys_per_size=1, shots=2048, seed=8)
    report = run_bv_study(config, engine=ExecutionEngine())
    return {"rows": report.rows, "summary": report.summary}


def _table1_payload() -> dict:
    config = replace(small_table1_config(), shots=2048)
    records = generate_google_dataset(config, engine=ExecutionEngine())
    rows = [summary.as_row() for summary in table1_summaries(records)]
    return {"rows": rows, "summary": {"total_circuits": float(len(records))}}


_PAYLOADS = {
    "fig8_rows.json": _fig8_payload,
    "table1_rows.json": _table1_payload,
}

#: The ``kernel.plan.*`` counters each payload records: the fig8 sweep makes
#: 12 HAMMER calls on 5-8-bit supports of at most 249 outcomes, all on the
#: ``dense`` plan; the Table 1 composition runs no HAMMER.
_KERNEL_PLANS = {
    "fig8_rows.json": {"kernel.plan.dense": 12},
    "table1_rows.json": {},
}


def _canonical(payload: dict) -> dict:
    """JSON round-trip with the package's own sanitiser.

    Floats survive ``json.dumps``/``loads`` exactly (repr round-trip), so
    comparing the parsed structures is an exact, field-addressable check.
    """
    text = json.dumps(_json_sanitize(payload), default=_json_default, sort_keys=True)
    return json.loads(text)


def _flat_diff(expected, actual, path="") -> list[str]:
    """Human-readable field-level differences between two payloads."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        differences = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                differences.append(f"{path}.{key}: unexpected new field")
            elif key not in actual:
                differences.append(f"{path}.{key}: missing")
            else:
                differences.extend(_flat_diff(expected[key], actual[key], f"{path}.{key}"))
        return differences
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        differences = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            differences.extend(_flat_diff(e, a, f"{path}[{index}]"))
        return differences
    if expected != actual and not (
        isinstance(expected, float)
        and isinstance(actual, float)
        and math.isnan(expected)
        and math.isnan(actual)
    ):
        return [f"{path}: {expected!r} -> {actual!r}"]
    return []


@pytest.fixture(scope="module", params=sorted(_PAYLOADS))
def observed_payload(request):
    """One build of a payload: ``(fixture name, canonical payload, plan counters)``."""
    with Observation() as observation:
        payload = _canonical(_PAYLOADS[request.param]())
    counters = observation.registry.snapshot()["counters"]
    plans = {name: count for name, count in counters.items() if name.startswith("kernel.plan.")}
    return request.param, payload, plans


def test_golden_payloads_stay_on_the_dense_plan(observed_payload):
    fixture_name, _, plans = observed_payload
    assert plans == _KERNEL_PLANS[fixture_name], (
        f"{fixture_name} ran kernel plans {plans}, expected {_KERNEL_PLANS[fixture_name]}: "
        "a golden support crossed DENSE_SUPPORT_MAX or the dispatch changed"
    )


def test_golden_rows_have_not_drifted(observed_payload, request):
    fixture_name, actual, _ = observed_payload
    fixture_path = GOLDEN_DIR / fixture_name
    if request.config.getoption("--regen-golden"):
        fixture_path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {fixture_path.name}")
    assert fixture_path.exists(), (
        f"golden fixture {fixture_path} is missing; create it with "
        f"`pytest tests/golden --regen-golden`"
    )
    expected = json.loads(fixture_path.read_text())
    differences = _flat_diff(expected, actual)
    assert not differences, (
        f"{fixture_name} drifted in {len(differences)} field(s):\n  "
        + "\n  ".join(differences[:25])
        + ("\n  …" if len(differences) > 25 else "")
        + "\nIf this drift is intentional, regenerate with --regen-golden."
    )
