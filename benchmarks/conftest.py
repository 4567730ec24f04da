"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one figure or table of the paper on a
laptop-scale configuration, prints the reproduced rows/series, and
asserts the qualitative claim of that figure ("who wins, by roughly what
factor").  Timings are recorded with pytest-benchmark; the expensive
experiment drivers are run once per benchmark (``rounds=1``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def google_records_small():
    """A small synthetic Google QAOA dataset shared by the Figure 9 benches."""
    from repro.datasets import GoogleDatasetConfig, generate_google_dataset

    config = GoogleDatasetConfig(
        grid_qubit_range=(6, 10),
        grid_layer_values=(1, 2),
        regular_qubit_range=(4, 10),
        regular_layer_values=(1, 2),
        instances_per_size=1,
        shots=8192,
        seed=53,
    )
    return generate_google_dataset(config)


@pytest.fixture(scope="session")
def ibm_suite_small():
    """A small synthetic IBM suite shared by the Table 2 / Section 6.4 benches."""
    from repro.datasets import IbmSuiteConfig, generate_ibm_suite

    config = IbmSuiteConfig(
        bv_qubit_range=(5, 9),
        bv_keys_per_size=1,
        qaoa_qubit_range=(6, 9),
        qaoa_layer_values=(2,),
        qaoa_instances_per_size=1,
        shots=8192,
        seed=2022,
    )
    return generate_ibm_suite(config)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
