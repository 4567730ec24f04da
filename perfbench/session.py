"""One benchmark process: set a workload up, warm it up, then time it.

``run.py`` starts one per set-up::

    python3 perfbench/session.py --workload NAME --seed N --size full|tiny \\
        --work-dir DIR --seconds S --trace 0|1 [--trace-out FILE] [--record]

and reads the one JSON line it prints: the monotonic time its first timed
iteration began (``ready_at``), each iteration's wall seconds, the jobs
attempted and failed, the reference the iterations were checked against
and, when traced, the per-layer totals.  With ``--record`` it prints the
warm-up iteration's outcome instead and times nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import checks
import layers
import procs


def disk_bytes(path: str | None) -> int:
    if path is None:
        return 0
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


def warm_up(workload) -> dict:
    """Run the untimed warm-up iteration; returns its checked outcome."""
    report, batches = workload.iterate()
    problems, _ = workload.inspect(report)
    if problems:
        raise RuntimeError(f"warm-up iteration failed: {problems}")
    return checks.capture(workload, report, batches)


def timed_iteration(workload, reference: dict, recorder=None):
    """Run and check one iteration.

    Returns ``(wall seconds, failed job -> reason, jobs attempted, counts)``.
    An iteration that raises fails every job.
    """
    jobs = len(reference["jobs"])
    report = None
    if recorder is not None:
        recorder.install()
    started = time.perf_counter()
    try:
        report, batches = workload.iterate()
    except Exception:
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - started
        if recorder is not None:
            recorder.uninstall()
    if report is None:
        return wall, dict.fromkeys(range(jobs), "iteration raised"), jobs, {}
    problems, counts = workload.inspect(report)
    for job, reason in checks.compare(checks.capture(workload, report, batches), reference).items():
        problems.setdefault(job, reason)
    return wall, problems, jobs, counts


def measure(workload, reference: dict, seconds: float, trace: bool):
    """Closed loop for ``seconds``: one iteration in flight, checked as it returns.

    A traced run alternates untraced and traced iterations, untraced first,
    so the tracing overhead is measured within the run.  Returns the result
    record and the traced spans as Chrome trace events.
    """
    walls, traced_walls, totals, events = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        recorder = layers.Recorder() if trace and len(walls) > len(traced_walls) else None
        wall, problems, jobs, counts = timed_iteration(workload, reference, recorder)
        attempted += jobs
        failed += len(problems)
        for job, reason in sorted(problems.items()):
            print(f"perfbench: job {reference['jobs'][job]} failed: {reason}", file=sys.stderr)
        if recorder is None:
            walls.append(wall)
        else:
            traced_walls.append(wall)
            totals.append(recorder.totals(wall, counts, disk_bytes(workload.cache_dir)))
            events.extend(recorder.trace_events(os.getpid()))
        if time.perf_counter() - started >= seconds and (not trace or traced_walls):
            break
    result = {"walls": walls, "traced_walls": traced_walls, "attempted": attempted, "failed": failed}
    if trace:
        result["layers"] = layers.merge_totals(totals)
    return result, events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One benchmark set-up: warm up, then time.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    services = procs.Services()
    if args.workload == "shots-broker":
        services.start_broker()  # its start-up overlaps the imports below
    workload = None
    try:
        import numpy
        import workloads

        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.size, args.work_dir, services
        )
        workload.open()
        warm = warm_up(workload)
        if args.record:
            print(json.dumps(warm))
            return 0
        recorded = checks.recorded(args.workload, args.seed) if args.size == "full" else None
        reference = recorded or warm
        ready_at = time.monotonic()
        result, events = measure(workload, reference, args.seconds, bool(args.trace))
    finally:
        if workload is not None:
            workload.close()
        services.stop()
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump({"traceEvents": events}, handle)
    result.update(ready_at=ready_at, reference=reference, numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
