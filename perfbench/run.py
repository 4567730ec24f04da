"""Benchmark of the HAMMER engine, end to end and per layer.

    python3 perfbench/run.py --workload fig8-cold|zoo-warm|shots-broker \\
        --seed N --seconds S --trace 0|1

Closed loop: one batch in flight, the next sent when it returns.  A run
sets the workload up ``--setups`` times (default 3), each time in a fresh
process that imports the program, builds its inputs from the seed, fills
its cache or starts the broker and workers, and runs one untimed warm-up
iteration; each process then measures for ``seconds / setups``.  Every
timed iteration's outputs are checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.  NOTES.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fig8-cold", "zoo-warm", "shots-broker")

#: Single-threaded BLAS and OpenMP in every benchmark process.  Unpinned,
#: OpenBLAS spins a second thread that competes with the broker's workers.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("pst_gain", "x"))

#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """A set-up process failed; the run prints no result."""


def session_env() -> dict[str, str]:
    """The environment of every benchmark process.

    The caller's ``REPRO_*`` settings are dropped so none can steer the
    program, and the tuned machine profile in the home directory is off.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PIN, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", REPRO_TUNE_PROFILE="off")
    return env


def run_session(workload: str, seed: int, size: str, options: list[str], deadline: float):
    """Run one set-up process to its end; returns ``(its result, launch time)``.

    The process runs in a session of its own so that on a timeout or an
    interrupt its broker and workers are killed with it.
    """
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    command = [
        sys.executable, str(HERE / "session.py"), "--workload", workload,
        "--seed", str(seed), "--size", size, "--work-dir", work_dir, *options,
    ]
    launched = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=session_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} set-up process exited with code {process.returncode}")
    return json.loads(lines[-1]), launched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="HAMMER engine benchmark, end to end and per layer.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds measured in this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3, help="fresh set-up processes per run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_LIMIT_S
    options = ["--seconds", repr(args.seconds / args.setups), "--trace", str(args.trace)]
    sessions, setups = [], []
    try:
        for index in range(args.setups):
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}-{index}.json"
            extra = ["--trace-out", str(trace_out)] if args.trace else []
            result, launched = run_session(args.workload, args.seed, args.size, options + extra, deadline)
            sessions.append(result)
            setups.append(result["ready_at"] - launched)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(session["attempted"] for session in sessions)
    failed = sum(session["failed"] for session in sessions)
    reference = sessions[0]["reference"]
    for session in sessions[1:]:
        # Every set-up of one seed must have produced the same outputs.
        failed += len(checks.compare(session["reference"], reference))
    walls = [wall for session in sessions for wall in session["walls"]]
    if args.trace:
        totals = layers.merge_totals([session["layers"] for session in sessions])
        traced = [wall for session in sessions for wall in session["traced_walls"]]
        values, units = layers.layer_metrics(totals, walls, traced), layers.METRICS
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            # The largest peak RSS of any process of the run: set-up
            # processes and, through them, the broker and its workers.
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "pst_gain": reference["pst_gain"],
        }
        units = END_TO_END
    pin = " ".join(f"{key}={value}" for key, value in PIN.items())
    print(
        f"# {args.workload} seed {args.seed}: {attempted} jobs over {args.setups} set-ups; "
        f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
        f"NumPy {sessions[0]['numpy']}, {pin}"
    )
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
