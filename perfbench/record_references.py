"""Rewrite references.json: the checked outputs of the default and hold-out seeds.

    python3 perfbench/record_references.py

Run it only when a change is meant to move the outputs, and say so in that
change.  Each workload is set up once per seed, and its untimed warm-up
iteration is recorded.
"""

from __future__ import annotations

import json
import time

import checks
from run import WORKLOADS, run_session


def main() -> None:
    references = {
        "default_seed": checks.DEFAULT_SEED,
        "holdout_seed": checks.HOLDOUT_SEED,
        "workloads": {},
    }
    for workload in WORKLOADS:
        references["workloads"][workload] = {
            str(seed): run_session(workload, seed, "full", ["--record"], time.monotonic() + 600)[0]
            for seed in (checks.DEFAULT_SEED, checks.HOLDOUT_SEED)
        }
    checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
