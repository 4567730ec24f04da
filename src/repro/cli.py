"""Command-line interface: regenerate any paper figure/table from the terminal.

Usage::

    python -m repro.cli list
    python -m repro.cli fig8            # BV PST/IST improvement sweep
    python -m repro.cli fig9 --family grid
    python -m repro.cli headline --scale small
    python -m repro.cli fig8 --jobs 4 --cache-dir .hammer-cache
    python -m repro.cli fig8 --format json --out fig8.json
    python -m repro.cli devices         # built-in device profiles
    python -m repro.cli scenarios       # the calibration scenario zoo
    python -m repro.cli backends        # registered simulation backends
    python -m repro.cli scenario-sweep --jobs 4 --format json
    python -m repro.cli scenario-sweep --scenario heavy-hex-127-bv --backend stabilizer
    python -m repro.cli profile fig8 --format json --out profile.json
    python -m repro.cli profile fig8 --repeat 5   # median-of-5 phase timings
    python -m repro.cli profile fig8 --metrics    # + obs counters/gauges/histograms
    python -m repro.cli trace fig8 --trace-out trace.json   # Chrome trace export
    python -m repro.cli shard-worker --listen 127.0.0.1:7641   # serve shard chunks
    python -m repro.cli shard-broker --listen 127.0.0.1:7640   # lease-broker service
    python -m repro.cli shard-worker --broker 127.0.0.1:7640   # pull worker

Every experiment runs its sweep through one shared
:class:`~repro.engine.engine.ExecutionEngine`: ``--jobs`` fans the batch out
over worker processes (row tables are bit-identical for any worker count) and
``--cache-dir`` persists transpiled circuits and ideal distributions so
re-running a figure skips every statevector simulation of the previous run.
``--format json`` emits the full report (rows, summary, engine metadata) as a
machine-readable artifact, optionally written to ``--out``.  ``--backend``
selects the ideal-simulation backend for backend-aware experiments
(``scenario-sweep``): ``statevector`` (default), ``stabilizer`` (exact
Clifford fast path, device-scale widths) or ``auto``.

``trace`` runs one experiment under the observability layer
(:mod:`repro.obs`) and writes its spans — engine phases, executor shard
chunks, reduction merges, kernel invocations, cache lookups — as Chrome
trace-event JSON (``--trace-out``, default ``trace.json``), loadable in
``chrome://tracing`` or https://ui.perfetto.dev; the report rides along
with ``meta["obs"]`` metrics.  ``profile --metrics`` runs the phase
profiler with the metrics registry active and appends the counter / gauge
/ histogram table.

``shard-worker`` turns this process into a multi-node shard host.  With
``--listen HOST:PORT`` it serves chunk tasks to engines whose
``REPRO_SHARD_EXECUTOR=socket`` / ``REPRO_SHARD_HOSTS`` point at it; with
``--broker HOST:PORT`` it instead registers with a ``shard-broker`` and
*pulls* chunks under heartbeat-renewed leases (see
:mod:`repro.engine.broker`; README "Scale-out & reduction trees" has both
quickstarts).  ``--max-requests`` and ``--delay`` make failure scenarios
reproducible: a worker that dies after N chunks (for ``--broker``, dies
abruptly *holding* its next lease), or one that is deterministically slow.
``shard-broker`` runs the lease broker itself.  Both install
SIGTERM/SIGINT handlers that finish the in-flight chunk and exit 0.  The
protocol is pickle over TCP: set ``REPRO_SHARD_KEY`` on every peer so
frames are HMAC-authenticated before unpickling, and even then only run
workers on networks where every keyed peer is trusted.

Kernel plan, shard layout, shard executor and backend follow fixed rules
unless overridden: ``REPRO_HAMMER_KERNEL``, ``REPRO_SAMPLE_SHARD_SHOTS`` and
``REPRO_SHARD_EXECUTOR`` force the first three, and ``--backend`` the last
for backend-aware experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.calibration import scenario_rows
from repro.datasets.google_qaoa import full_table1_config, generate_google_dataset, small_table1_config, table1_summaries
from repro.datasets.ibm_suite import full_table2_config, generate_ibm_suite, small_table2_config, table2_summaries
from repro.engine import ExecutionEngine
from repro.experiments import (
    BvStudyConfig,
    EhdStudyConfig,
    EntanglementStudyConfig,
    LandscapeStudyConfig,
    LayersStudyConfig,
    format_table,
    run_bv_histogram_example,
    run_bv_single_example,
    run_bv_study,
    run_chs_pipeline,
    run_cost_ratio_scurve,
    run_ehd_dataset_comparison,
    run_ehd_scaling,
    run_entanglement_study,
    run_ghz_clustering,
    run_hamming_spectrum,
    run_headline_summary,
    run_ibm_qaoa_study,
    run_landscape_study,
    run_layers_study,
    run_neighbor_cost_study,
    run_noise_impact_example,
    run_operation_count_table,
    run_quality_distribution_example,
    run_runtime_scaling,
    run_scenario_study,
)
from repro.experiments.scenario_study import ScenarioStudyConfig
from repro.experiments.runner import ExperimentReport, attach_engine_meta

__all__ = [
    "main",
    "build_parser",
    "build_engine",
    "run_experiment",
    "profile_report",
    "trace_report",
    "devices_report",
    "scenarios_report",
    "backends_report",
    "shard_worker_serve",
    "shard_broker_serve",
    "EXPERIMENTS",
    "SUBCOMMANDS",
    "PROFILE_UNSUPPORTED_EXPERIMENTS",
]


def _fig1a(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_bv_histogram_example(num_qubits=args.qubits or 4, engine=engine)


def _fig1b(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_ehd_scaling("qaoa-p2", config=EhdStudyConfig(), engine=engine)


def _fig2(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_noise_impact_example(num_qubits=args.qubits or 9, engine=engine)


def _fig3(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_hamming_spectrum(
        benchmark=args.family or "bv", num_qubits=args.qubits or 8, engine=engine
    )


def _ghz(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_ghz_clustering(num_qubits=args.qubits or 10, engine=engine)


def _fig5(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_neighbor_cost_study(LandscapeStudyConfig(num_nodes=args.qubits or 10))


def _fig7(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_chs_pipeline(num_qubits=args.qubits or 10, engine=engine)


def _fig8(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    if args.scale == "full":
        config = BvStudyConfig(qubit_range=(5, 16), keys_per_size=7)
    else:
        config = BvStudyConfig()
    return run_bv_study(config, engine=engine)


def _fig8a(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_bv_single_example(num_qubits=args.qubits or 10, engine=engine)


def _fig9(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    config = full_table1_config() if args.scale == "full" else small_table1_config()
    return run_cost_ratio_scurve(family=args.family or "3-regular", config=config, engine=engine)


def _fig9b(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    config = full_table1_config() if args.scale == "full" else small_table1_config()
    return run_quality_distribution_example(
        target_qubits=args.qubits or 10, family=args.family or "3-regular", config=config,
        engine=engine,
    )


def _fig10(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    if args.scale == "full":
        config = LayersStudyConfig(node_values=(10, 12, 14, 16, 18, 20))
    else:
        config = LayersStudyConfig()
    return run_layers_study(config, engine=engine)


def _fig10b(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_landscape_study(LandscapeStudyConfig(num_nodes=args.qubits or 10), engine=engine)


def _fig11(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_entanglement_study(
        EntanglementStudyConfig(), depth_class=args.family or "high", engine=engine
    )


def _fig12(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_ehd_dataset_comparison(EhdStudyConfig(), engine=engine)


def _table1(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    config = full_table1_config() if args.scale == "full" else small_table1_config()
    records = generate_google_dataset(config, engine=engine)
    rows = [summary.as_row() for summary in table1_summaries(records)]
    report = ExperimentReport(name="table1_google_dataset", rows=rows)
    report.summary["total_circuits"] = float(len(records))
    return attach_engine_meta(report, engine)


def _table2(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    config = full_table2_config() if args.scale == "full" else small_table2_config()
    records = generate_ibm_suite(config, engine=engine)
    rows = [summary.as_row() for summary in table2_summaries(records)]
    report = ExperimentReport(name="table2_ibm_dataset", rows=rows)
    report.summary["total_circuits"] = float(len(records))
    return attach_engine_meta(report, engine)


def _table3(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_operation_count_table()


def _table3_runtime(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    return run_runtime_scaling()


def _sec64(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    config = full_table2_config() if args.scale == "full" else small_table2_config()
    return run_ibm_qaoa_study(config=config, engine=engine)


def _headline(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    ibm = full_table2_config() if args.scale == "full" else small_table2_config()
    google = full_table1_config() if args.scale == "full" else small_table1_config()
    return run_headline_summary(ibm_config=ibm, google_config=google, engine=engine)


def _scenario_sweep(args: argparse.Namespace, engine: ExecutionEngine) -> ExperimentReport:
    selected = getattr(args, "scenario", None)
    config = ScenarioStudyConfig(
        num_qubits=args.qubits or 8,
        keys_per_scenario=3 if args.scale == "full" else 2,
        scenarios=tuple(selected) if selected else None,
        backend=getattr(args, "backend", None) or "statevector",
    )
    return run_scenario_study(config, engine=engine)


#: Registry of experiment id -> (description, runner).
EXPERIMENTS = {
    "fig1a": ("Figure 1(a): BV-4 noisy histogram", _fig1a),
    "fig1b": ("Figure 1(b): EHD vs qubits for QAOA p=2", _fig1b),
    "fig2": ("Figure 2(d): ideal vs noisy QAOA expected cost", _fig2),
    "fig3": ("Figure 3: Hamming spectrum (--family bv|qaoa)", _fig3),
    "ghz": ("Section 3.1: GHZ error clustering", _ghz),
    "fig5": ("Figure 5: cost of cuts near the optimum", _fig5),
    "fig7": ("Figure 7: CHS / weights / scores pipeline", _fig7),
    "fig8": ("Figure 8(b): BV PST/IST improvement sweep", _fig8),
    "fig8a": ("Figure 8(a): BV-10 before/after HAMMER", _fig8a),
    "fig9": ("Figure 9(a)/(c): QAOA cost-ratio S-curve", _fig9),
    "fig9b": ("Figure 9(b)/(d): solution-quality distribution", _fig9b),
    "fig10": ("Figure 10(a): CR vs QAOA layers", _fig10),
    "fig10b": ("Figure 10(b): (beta,gamma) landscape", _fig10b),
    "fig11": ("Figure 11: EHD vs entanglement/fidelity (--family high|low)", _fig11),
    "fig12": ("Figure 12: EHD across datasets", _fig12),
    "table1": ("Table 1: Google dataset composition", _table1),
    "table2": ("Table 2: IBM dataset composition", _table2),
    "table3": ("Table 3: operation counts", _table3),
    "table3-runtime": ("Table 3 (measured): runtime scaling", _table3_runtime),
    "sec64": ("Section 6.4: IBM QAOA TVD/CR improvement", _sec64),
    "headline": ("Headline: average quality improvement across suites", _headline),
    "scenario-sweep": ("Calibration zoo: HAMMER vs baselines across all scenarios", _scenario_sweep),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="hammer-repro",
        description="Regenerate figures/tables of the HAMMER paper (ASPLOS 2022) reproduction.",
    )
    parser.add_argument("experiment", help="experiment id (use 'list' to see all)")
    parser.add_argument("target", nargs="?", default=None,
                        help="experiment id to profile/trace (only with the 'profile' "
                             "and 'trace' subcommands)")
    parser.add_argument("--scale", choices=("small", "full"), default="small",
                        help="dataset scale: 'small' for quick runs, 'full' for paper-scale sweeps")
    parser.add_argument("--qubits", type=int, default=None, help="override the circuit width")
    parser.add_argument("--family", type=str, default=None,
                        help="workload family / variant selector (experiment-specific)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the sweep (results are identical for any N)")
    parser.add_argument("--backend", choices=("statevector", "stabilizer", "auto"), default=None,
                        help="ideal-simulation backend for backend-aware experiments "
                             "(scenario-sweep); 'stabilizer' or 'auto' unlock >24-qubit "
                             "Clifford scenarios")
    parser.add_argument("--scenario", action="append", default=None, metavar="NAME",
                        help="restrict scenario-sweep to a named scenario (repeatable; "
                             "see the 'scenarios' subcommand for the registry)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="PATH",
                        help="persist transpiles + ideal distributions across runs")
    parser.add_argument("--repeat", type=_positive_int, default=1, metavar="N",
                        help="profile only: run the experiment N times (fresh engine "
                             "each) and report median per-phase seconds")
    parser.add_argument("--metrics", action="store_true",
                        help="profile only: run with the repro.obs metrics registry "
                             "active and report counters/gauges/histograms")
    parser.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                        dest="trace_out",
                        help="trace only: where to write the Chrome trace-event JSON "
                             "(default trace.json)")
    parser.add_argument("--listen", type=str, default=None, metavar="HOST:PORT",
                        help="shard-worker / shard-broker: address to serve on "
                             "(port 0 binds an ephemeral port, printed on startup)")
    parser.add_argument("--broker", type=str, default=None, metavar="HOST:PORT",
                        help="shard-worker only: register with this shard-broker and "
                             "pull chunks under heartbeat-renewed leases instead of "
                             "listening for a socket executor")
    parser.add_argument("--max-requests", type=_positive_int, default=None, metavar="N",
                        dest="max_requests",
                        help="shard-worker only: exit after serving N chunk requests "
                             "(with --broker: die abruptly holding the next lease — "
                             "deterministic mid-run worker failure, for testing)")
    parser.add_argument("--delay", type=float, default=0.0, metavar="SECONDS",
                        help="shard-worker only: sleep before answering each chunk "
                             "request (deterministic slow host, for testing)")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="format",
                        help="output format: human-readable table or JSON artifact")
    parser.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="write the report to a file instead of stdout")
    return parser


def build_engine(args: argparse.Namespace) -> ExecutionEngine:
    """Construct the shared execution engine from CLI arguments."""
    return ExecutionEngine(
        max_workers=getattr(args, "jobs", 1) or 1,
        cache_dir=getattr(args, "cache_dir", None),
    )


def run_experiment(
    name: str, args: argparse.Namespace, engine: ExecutionEngine | None = None
) -> ExperimentReport:
    """Run one registered experiment and return its report."""
    if name not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {name!r}; run 'list' to see the registry")
    _, runner = EXPERIMENTS[name]
    return runner(args, engine if engine is not None else build_engine(args))


def _render(report: ExperimentReport, args: argparse.Namespace) -> str:
    if args.format == "json":
        return report.to_json()
    rendered = report.to_text()
    if getattr(args, "metrics", False) and "obs" in report.meta:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_snapshot(report.meta["obs"]["metrics"])
        rendered += "\n\n== metrics ==\n" + format_table(registry.as_rows())
    if "trace" in report.meta:
        trace = report.meta["trace"]
        rendered += (
            f"\n\nwrote Chrome trace ({trace['events']} events, "
            f"{trace['dropped']} dropped) to {trace['path']}"
        )
    return rendered


def devices_report() -> ExperimentReport:
    """The built-in device profiles as a report (``devices`` subcommand)."""
    from repro.quantum.device import available_devices, get_device

    rows = []
    for name in available_devices():
        device = get_device(name)
        model = device.noise_model
        rows.append(
            {
                "name": device.name,
                "qubits": device.num_qubits,
                "topology": device.coupling_map.name,
                "edges": len(device.coupling_map.edges()),
                "basis": "/".join(device.basis_gates),
                "1q_error": model.single_qubit_error,
                "2q_error": model.two_qubit_error,
                "readout_p10": model.readout_error.prob_1_given_0,
                "readout_p01": model.readout_error.prob_0_given_1,
            }
        )
    report = ExperimentReport(name="devices", rows=rows)
    report.summary["num_devices"] = float(len(rows))
    return report


def scenarios_report() -> ExperimentReport:
    """The calibration scenario zoo as a report (``scenarios`` subcommand)."""
    rows = scenario_rows()
    report = ExperimentReport(name="scenarios", rows=rows)
    report.summary["num_scenarios"] = float(len(rows))
    return report


def backends_report() -> ExperimentReport:
    """The simulation-backend registry as a report (``backends`` subcommand)."""
    from repro.backends import backend_rows

    rows = backend_rows()
    report = ExperimentReport(name="backends", rows=rows)
    report.summary["num_backends"] = float(sum(1 for row in rows if row["name"] != "auto"))
    return report


#: Experiments that consume the --backend / --scenario flags; every other
#: experiment runs its pinned statevector sweep and must reject them loudly
#: rather than silently ignore a requested backend.
BACKEND_AWARE_EXPERIMENTS = frozenset({"scenario-sweep"})

#: Experiments the ``profile`` subcommand must reject: they run no engine
#: pipeline (pure analytic tables or local landscape scans), so the
#: per-phase transpile/ideal/sample/hammer attribution would be an empty
#: report that silently reads as "this experiment is free".
PROFILE_UNSUPPORTED_EXPERIMENTS = frozenset({"fig5", "table3", "table3-runtime"})


def profile_report(
    target: str, args: argparse.Namespace, engine: ExecutionEngine | None = None
) -> ExperimentReport:
    """Run one experiment under the phase profiler (``profile`` subcommand).

    The report's rows are per-phase wall seconds (transpile / ideal / sample
    from the engine, hammer from the reconstruction kernel) with call counts
    and shares; engine cache statistics and the kernel-tuning decisions ride
    along in ``meta`` so a JSON artifact fully describes the run.

    ``--repeat N`` (``args.repeat``) runs the experiment ``N`` times, each
    through a *fresh* engine (cold in-memory caches, so every repeat does
    the same work), and reports the **median** per-phase seconds — a robust
    location estimate for noisy CI boxes.  With ``N = 1`` (default) a
    caller-supplied engine is honoured unchanged.

    ``--metrics`` (``args.metrics``) activates an
    :class:`~repro.obs.observe.Observation` around the repeats, so the
    report carries a ``meta["obs"]`` metrics snapshot (counters accumulate
    over all repeats) and the text rendering appends the metrics table.
    """
    import statistics
    import time as _time
    from contextlib import nullcontext

    from repro.core.tuning import tuning_report
    from repro.obs import Observation
    from repro.obs.phases import collect_phases

    if target not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {target!r}; run 'list' to see the registry")
    if target in PROFILE_UNSUPPORTED_EXPERIMENTS:
        raise SystemExit(
            f"'profile' does not support {target!r}: it runs no engine pipeline; "
            f"supported experiments: {sorted(set(EXPERIMENTS) - PROFILE_UNSUPPORTED_EXPERIMENTS)}"
        )
    repeat = max(1, int(getattr(args, "repeat", 1) or 1))
    observing = bool(getattr(args, "metrics", False))
    walls: list[float] = []
    phase_seconds: dict[str, list[float]] = {}
    phase_calls: dict[str, object] = {}
    rows_produced = 0.0
    run_engine = engine
    with Observation() if observing else nullcontext():
        for _ in range(repeat):
            run_engine = engine if (engine is not None and repeat == 1) else build_engine(args)
            wall_start = _time.perf_counter()
            with collect_phases() as phases:
                inner = run_experiment(target, args, run_engine)
            walls.append(_time.perf_counter() - wall_start)
            for row in phases.as_rows():
                phase_seconds.setdefault(row["phase"], []).append(float(row["seconds"]))
                phase_calls[row["phase"]] = row["calls"]
            rows_produced = float(len(inner.rows))
            if run_engine is not engine:
                run_engine.close()
        medians = {phase: statistics.median(values) for phase, values in phase_seconds.items()}
        total = sum(medians.values())
        report = ExperimentReport(
            name=f"profile_{target}",
            rows=[
                {
                    "phase": phase,
                    "seconds": medians[phase],
                    "calls": phase_calls[phase],
                    "share": medians[phase] / total if total > 0 else 0.0,
                }
                for phase in phase_seconds
            ],
        )
        report.summary["wall_seconds"] = statistics.median(walls)
        report.summary["phase_seconds"] = total
        report.summary["unattributed_seconds"] = statistics.median(walls) - total
        report.summary["rows_produced"] = rows_produced
        report.meta["experiment"] = target
        report.meta["repeat"] = repeat
        report.meta["tuning"] = tuning_report()
        return attach_engine_meta(report, run_engine)

def trace_report(
    target: str, args: argparse.Namespace, engine: ExecutionEngine | None = None
) -> ExperimentReport:
    """Run ``target`` under an active :class:`~repro.obs.observe.Observation`.

    The experiment's own report is returned unchanged except for two meta
    blocks: ``meta["obs"]`` (metrics snapshot, span summary, structured log
    records — merged across worker processes) and ``meta["trace"]`` (where
    the Chrome trace-event JSON was written, plus event/drop counts).  The
    trace file (``--trace-out``, default ``trace.json``) loads directly in
    ``chrome://tracing`` or https://ui.perfetto.dev.

    Rows are bit-identical to an untraced run: observation changes what is
    *recorded*, never what is computed.
    """
    from repro.obs import Observation

    if target not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {target!r}; run 'list' to see the registry")
    if target in PROFILE_UNSUPPORTED_EXPERIMENTS:
        raise SystemExit(
            f"'trace' does not support {target!r}: it runs no engine pipeline; "
            f"supported experiments: {sorted(set(EXPERIMENTS) - PROFILE_UNSUPPORTED_EXPERIMENTS)}"
        )
    run_engine = engine if engine is not None else build_engine(args)
    try:
        with Observation() as observation:
            report = run_experiment(target, args, run_engine)
    finally:
        if run_engine is not engine:
            run_engine.close()
    # run_experiment already attached meta["obs"] while the observation was
    # active; refresh it anyway so experiments that skip attach_engine_meta
    # still carry the block.
    report.meta["obs"] = observation.meta()
    trace = observation.chrome_trace()
    trace_out = Path(getattr(args, "trace_out", None) or "trace.json")
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(trace), encoding="utf-8")
    report.meta["trace"] = {
        "path": str(trace_out),
        "events": len(trace["traceEvents"]),
        "dropped": trace["otherData"]["dropped_events"],
    }
    return report


def _install_signal_handlers(callback) -> bool:
    """Route SIGTERM/SIGINT to ``callback`` (graceful shutdown); False if not
    in the main thread (signal handlers can only be installed there)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return False

    def handler(signum, frame):
        callback()

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    return True


def shard_worker_serve(args: argparse.Namespace) -> int:
    """Serve shard chunk tasks until interrupted (``shard-worker`` subcommand).

    ``--listen`` mode prints ``shard-worker listening on HOST:PORT`` (the
    *bound* address, so ``--listen 127.0.0.1:0`` reports the ephemeral port
    a client should put in ``REPRO_SHARD_HOSTS``) and blocks in the accept
    loop.  ``--broker`` mode registers with a shard-broker and pulls chunks
    under heartbeat-renewed leases.  Both exit 0 on SIGTERM/SIGINT after
    finishing the in-flight chunk.
    """
    if getattr(args, "broker", None) is not None:
        from repro.engine.broker import BrokerWorker

        worker = BrokerWorker(
            args.broker,
            max_chunks=getattr(args, "max_requests", None),
            delay=getattr(args, "delay", 0.0) or 0.0,
        )
        _install_signal_handlers(worker.request_stop)
        print(f"shard-worker pulling from broker {args.broker}", flush=True)
        worker.run_forever()
        print(f"shard-worker stopped after {worker.chunks_done} chunks", flush=True)
        return 0

    from repro.engine.transport import ShardWorker, parse_hostport

    host, port = parse_hostport(args.listen)
    worker = ShardWorker(
        host=host,
        port=port,
        max_requests=getattr(args, "max_requests", None),
        delay=getattr(args, "delay", 0.0) or 0.0,
    )
    # The handler drains in place: stop accepting, finish the in-flight
    # chunk, sever.  serve_forever then falls out of its accept loop.
    _install_signal_handlers(worker.drain)
    print(f"shard-worker listening on {worker.address}", flush=True)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        worker.drain()
    finally:
        worker.stop()
    print(f"shard-worker stopped after {worker.requests_served} requests", flush=True)
    return 0


def shard_broker_serve(args: argparse.Namespace) -> int:
    """Run the shard lease broker (``shard-broker`` subcommand).

    Prints ``shard-broker listening on HOST:PORT`` (the bound address) and
    blocks.  Workers join with ``shard-worker --broker``; engines submit
    with ``REPRO_SHARD_EXECUTOR=broker`` / ``REPRO_SHARD_BROKER``.  Exits 0
    on SIGTERM/SIGINT after letting active batches finish.
    """
    from repro.engine.broker import ShardBroker
    from repro.engine.transport import parse_hostport

    host, port = parse_hostport(args.listen)
    broker = ShardBroker(host=host, port=port)
    _install_signal_handlers(broker.drain)
    print(f"shard-broker listening on {broker.address}", flush=True)
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        broker.drain()
    finally:
        broker.stop()
    stats = broker.stats()
    print(
        f"shard-broker stopped after {stats['batches']} batches, "
        f"{stats['chunks_completed']} chunks "
        f"({stats['leases_reissued']} leases re-issued)",
        flush=True,
    )
    return 0


#: Informational subcommands: no engine, no sweep — just a registry table.
SUBCOMMANDS = {
    "devices": ("Built-in device profiles (uniform noise medians)", devices_report),
    "scenarios": ("Calibration scenario zoo (topology x calibration x shots)", scenarios_report),
    "backends": ("Simulation backends (statevector / stabilizer / auto dispatch)", backends_report),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.target is not None and args.experiment not in ("profile", "trace"):
        parser.error(
            f"unexpected positional {args.target!r}: only the 'profile' and 'trace' "
            f"subcommands take a second experiment id"
        )
    if args.experiment in ("profile", "trace") and args.target is None:
        parser.error(
            f"{args.experiment} requires an experiment id, e.g. "
            f"'{args.experiment} fig8' (run 'list' to see the registry)"
        )
    profiled = args.target if args.experiment in ("profile", "trace") else args.experiment
    if (args.backend or args.scenario) and profiled not in BACKEND_AWARE_EXPERIMENTS:
        parser.error(
            f"--backend/--scenario only apply to {sorted(BACKEND_AWARE_EXPERIMENTS)}; "
            f"{profiled!r} runs its pinned sweep and would silently ignore them"
        )
    if args.repeat != 1 and args.experiment != "profile":
        parser.error("--repeat only applies to the 'profile' subcommand")
    if args.metrics and args.experiment != "profile":
        parser.error("--metrics only applies to the 'profile' subcommand")
    if args.trace_out is not None and args.experiment != "trace":
        parser.error("--trace-out only applies to the 'trace' subcommand")
    if args.experiment == "shard-worker" and (args.listen is None) == (args.broker is None):
        parser.error(
            "shard-worker requires exactly one of --listen HOST:PORT (serve a "
            "socket executor; port 0 binds an ephemeral port) or "
            "--broker HOST:PORT (pull chunks from a shard-broker)"
        )
    if args.experiment == "shard-broker" and args.listen is None:
        parser.error(
            "shard-broker requires --listen HOST:PORT (port 0 binds an ephemeral port)"
        )
    if args.experiment not in ("shard-worker", "shard-broker"):
        if args.listen is not None:
            parser.error(
                "--listen only applies to the 'shard-worker' and 'shard-broker' subcommands"
            )
    if args.experiment != "shard-worker":
        if args.broker is not None:
            parser.error("--broker only applies to the 'shard-worker' subcommand")
        if args.max_requests is not None:
            parser.error("--max-requests only applies to the 'shard-worker' subcommand")
        if args.delay:
            parser.error("--delay only applies to the 'shard-worker' subcommand")
    if args.experiment == "list":
        rows = [{"id": key, "description": description} for key, (description, _) in EXPERIMENTS.items()]
        rows += [{"id": key, "description": description} for key, (description, _) in SUBCOMMANDS.items()]
        rows.append(
            {
                "id": "profile <experiment>",
                "description": "Per-phase timing profile (transpile/ideal/sample/hammer)",
            }
        )
        rows.append(
            {
                "id": "trace <experiment>",
                "description": "Traced run: Chrome trace-event JSON + merged metrics (repro.obs)",
            }
        )
        rows.append(
            {
                "id": "shard-worker --listen HOST:PORT",
                "description": "Serve shard chunk tasks to socket-executor engines (multi-node)",
            }
        )
        rows.append(
            {
                "id": "shard-broker --listen HOST:PORT",
                "description": "Lease broker: shard-worker --broker peers pull chunks from it",
            }
        )
        print(format_table(rows))
        return 0
    if args.experiment == "shard-worker":
        return shard_worker_serve(args)
    if args.experiment == "shard-broker":
        return shard_broker_serve(args)
    if args.experiment == "profile":
        # Unknown / engine-less targets are rejected by profile_report, the
        # single owner of that validation (the CLI and library paths share it).
        report = profile_report(args.target, args)
    elif args.experiment == "trace":
        report = trace_report(args.target, args)
    elif args.experiment in SUBCOMMANDS:
        _, builder = SUBCOMMANDS[args.experiment]
        report = builder()
    else:
        report = run_experiment(args.experiment, args)
    rendered = _render(report, args)
    if args.out is not None:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {report.name} ({args.format}) to {path}")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
