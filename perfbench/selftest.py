"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Asserts that every metric of BENCHMARK.json is printed with its unit on
every workload, that the output check counts a perturbed HAMMER output and a
fall-back off the broker as failed jobs, and that the traced per-layer self
times plus ``unattributed_s`` add up to the traced wall.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (standard library only)

# The in-process tests import the program: pin it like every benchmark process.
os.environ.update(run.session_env())

SEED = 3

#: Self times measured in the benchmark process: with
#: ``sample.busy_s - transport.compute_s`` they add up to ``trace.wall_s``.
SELF_TIMES = (
    "kernel.busy_s", "ideal.busy_s", "transpile.busy_s", "cache.get_s", "cache.put_s",
    "reduce.busy_s", "transport.busy_s", "post.busy_s", "engine.self_s", "unattributed_s",
)


def bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "0.5", "--trace", str(trace), "--setups", "1", "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_and_the_layers_add_up():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == {entry["name"]: entry["unit"] for entry in spec[section]}
            if trace:
                values = {name: metric["value"] for name, metric in result["metrics"].items()}
                assert all(values[name] >= 0 for name in SELF_TIMES), values
                sampler = values["sample.busy_s"] - values["transport.compute_s"]
                total = math.fsum(values[name] for name in SELF_TIMES) + sampler
                assert math.isclose(total, values["trace.wall_s"], rel_tol=1e-9), values


def checked_iteration(name: str, change):
    """Warm a tiny workload up in this process, apply ``change``, check one iteration."""
    import procs
    import session
    import workloads

    run.OUT.mkdir(exist_ok=True)
    services = procs.Services()
    with tempfile.TemporaryDirectory(dir=run.OUT) as work_dir:
        workload = workloads.WORKLOADS[name](SEED, "tiny", work_dir, services)
        try:
            workload.open()
            reference = session.warm_up(workload)
            with change(workload):
                _, problems, jobs, _ = session.timed_iteration(workload, reference)
        finally:
            workload.close()
            services.stop()
    return problems, jobs


def test_a_perturbed_hammer_output_fails_its_jobs():
    import layers
    from repro.core.distribution import Distribution
    from repro.core.hammer import hammer

    def perturbed(distribution, config=None):
        output = hammer(distribution, config)
        size = output.num_outcomes
        tilted = {
            outcome: probability * (1 + 1e-6 * index / size)
            for index, (outcome, probability) in enumerate(output.items())
        }
        return Distribution(tilted, num_bits=output.num_bits)

    @contextmanager
    def change(workload):
        patches = layers.rebind(hammer, perturbed)
        try:
            yield
        finally:
            layers.restore(patches)

    problems, jobs = checked_iteration("fig8-cold", change)
    assert jobs > 0 and len(problems) == jobs, problems


def test_a_fall_back_off_the_broker_fails_the_job():
    @contextmanager
    def change(workload):
        workload.stop_workers()
        os.environ["REPRO_SHARD_JOIN_DEADLINE"] = "0.2"
        try:
            yield
        finally:
            del os.environ["REPRO_SHARD_JOIN_DEADLINE"]

    problems, jobs = checked_iteration("shots-broker", change)
    assert jobs == 1 and problems == {0: "fell back off the broker"}, problems


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok {test_name}")
