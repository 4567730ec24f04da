"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_engine, build_parser, main, run_experiment
from repro.experiments.runner import ExperimentReport


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.experiment == "fig8"
        assert args.scale == "small"
        assert args.qubits is None
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.format == "text"
        assert args.out is None

    def test_engine_options(self, tmp_path):
        cache_dir = tmp_path / "cache"
        args = build_parser().parse_args(
            ["fig8", "--jobs", "4", "--cache-dir", str(cache_dir), "--format", "json", "--out", "r.json"]
        )
        assert args.jobs == 4
        assert args.format == "json"
        assert args.out == "r.json"
        engine = build_engine(args)
        assert engine.max_workers == 4
        assert engine.cache.cache_dir == cache_dir

    def test_rejects_bad_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--format", "yaml"])

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--jobs", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--jobs", "-2"])

    def test_options(self):
        args = build_parser().parse_args(["fig9", "--scale", "full", "--qubits", "12", "--family", "grid"])
        assert args.scale == "full"
        assert args.qubits == 12
        assert args.family == "grid"

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--scale", "huge"])


class TestRegistry:
    def test_every_paper_artifact_has_an_entry(self):
        expected = {"fig1a", "fig1b", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9",
                    "fig10", "fig10b", "fig11", "fig12", "table1", "table2", "table3",
                    "sec64", "headline"}
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_exits(self):
        args = build_parser().parse_args(["fig1a"])
        with pytest.raises(SystemExit):
            run_experiment("figure-999", args)


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig8" in output
        assert "headline" in output

    def test_run_small_experiment(self, capsys):
        assert main(["table3"]) == 0
        output = capsys.readouterr().out
        assert "table3_operation_counts" in output
        assert "operations_billion" in output

    def test_run_fig1a(self, capsys):
        assert main(["fig1a", "--qubits", "4"]) == 0
        output = capsys.readouterr().out
        assert "figure1a_bv_histogram" in output
        assert "correct_probability" in output

    def test_run_fig5(self, capsys):
        assert main(["fig5", "--qubits", "8"]) == 0
        output = capsys.readouterr().out
        assert "figure5_neighbor_costs" in output

    def test_json_format_to_stdout(self, capsys):
        assert main(["table3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "table3_operation_counts"
        assert payload["rows"]

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "nested" / "fig5.json"
        assert main(["fig5", "--qubits", "8", "--format", "json", "--out", str(target)]) == 0
        assert "wrote figure5_neighbor_costs" in capsys.readouterr().out
        report = ExperimentReport.from_json(target.read_text())
        assert report.name == "figure5_neighbor_costs"
        assert report.rows


class TestProfileSubcommand:
    def test_profile_reports_pipeline_phases(self, capsys):
        assert main(["profile", "fig8a", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "profile_fig8a"
        phases = {row["phase"] for row in payload["rows"]}
        assert {"transpile", "ideal", "sample", "hammer"} <= phases
        for row in payload["rows"]:
            assert row["seconds"] >= 0.0
            assert row["calls"] >= 1
        assert payload["summary"]["wall_seconds"] > 0.0
        assert payload["meta"]["experiment"] == "fig8a"
        assert payload["meta"]["tuning"]["kernel_override"] == "auto"
        assert "engine" in payload["meta"]

    def test_profile_reports_hammer_at_two_jobs(self, capsys):
        # HAMMER runs in the calling process at any --jobs, so its phase is
        # booked where the profile collects it.
        assert main(["profile", "fig8", "--jobs", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hammer_rows = [row for row in payload["rows"] if row["phase"] == "hammer"]
        assert len(hammer_rows) == 1
        assert hammer_rows[0]["seconds"] > 0.0

    def test_profile_text_output(self, capsys):
        assert main(["profile", "fig8a"]) == 0
        output = capsys.readouterr().out
        assert "profile_fig8a" in output
        assert "hammer" in output

    def test_profile_requires_a_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile"])
        assert "requires an experiment id" in capsys.readouterr().err

    def test_profile_rejects_engineless_experiments(self):
        for target in ("fig5", "table3", "table3-runtime"):
            with pytest.raises(SystemExit, match="does not support"):
                main(["profile", target])

    def test_profile_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["profile", "figure-999"])

    def test_profile_flag_errors_name_the_target(self, capsys):
        # Validation order: a missing target is reported as such even when
        # other flags are present, never as "None runs its pinned sweep".
        with pytest.raises(SystemExit):
            main(["profile", "--backend", "stabilizer"])
        err = capsys.readouterr().err
        assert "requires an experiment id" in err
        assert "None" not in err

    def test_stray_positional_rejected_without_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig8a", "fig8"])
        assert "only the 'profile' and 'trace' subcommands" in capsys.readouterr().err

    def test_profile_backend_flag_applies_to_target(self, capsys):
        # --backend is validated against the profiled experiment, not
        # against the 'profile' wrapper itself.
        with pytest.raises(SystemExit):
            main(["profile", "fig8a", "--backend", "stabilizer"])
        assert "--backend/--scenario only apply" in capsys.readouterr().err

    def test_profile_metrics_appends_table_and_meta(self, capsys):
        assert main(["profile", "fig8a"]) == 0
        output = capsys.readouterr().out
        assert "== metrics ==" in output
        assert "sampler.shots" in output
        assert "counter" in output

    def test_profile_metrics_json_carries_metrics_block(self, capsys):
        assert main(["profile", "fig8a", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["meta"]["metrics"]["counters"]
        assert counters["engine.runs"] >= 1
        assert counters["sampler.shots"] > 0
        # Each phase row is its histogram in the same snapshot.
        histograms = payload["meta"]["metrics"]["histograms"]
        for row in payload["rows"]:
            phase = histograms[f"phase.{row['phase']}"]
            assert (row["seconds"], row["calls"]) == (phase["sum"], phase["count"])


class TestTraceCommand:
    def test_trace_writes_chrome_json_and_reports(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "fig8a", "--trace-out", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "wrote Chrome trace" in output
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["otherData"]["producer"] == "repro.obs"
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete, "traced run produced no spans"
        names = {event["name"] for event in complete}
        assert {"engine.run", "phase.sample", "kernel.hammer", "cache.get"} <= names
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0

    def test_trace_json_report_carries_obs_and_trace_meta(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(
            ["trace", "fig8a", "--trace-out", str(trace_path), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["trace"]["path"] == str(trace_path)
        assert payload["meta"]["trace"]["events"] > 0
        assert payload["meta"]["trace"]["dropped"] == 0
        assert payload["meta"]["obs"]["metrics"]["counters"]["engine.runs"] >= 1

    def test_traced_rows_match_untraced_rows(self, tmp_path, capsys):
        assert main(["fig8a", "--format", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        trace_path = tmp_path / "t.json"
        assert main(
            ["trace", "fig8a", "--trace-out", str(trace_path), "--format", "json"]
        ) == 0
        traced = json.loads(capsys.readouterr().out)
        assert traced["rows"] == plain["rows"]
        assert traced["summary"] == plain["summary"]

    def test_trace_requires_a_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])
        assert "requires an experiment id" in capsys.readouterr().err

    def test_trace_rejects_engineless_experiments(self):
        with pytest.raises(SystemExit, match="does not support"):
            main(["trace", "fig5"])

    def test_trace_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["trace", "figure-999"])

    def test_trace_out_flag_rejected_outside_trace(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig8a", "--trace-out", "t.json"])
        assert "--trace-out only applies" in capsys.readouterr().err

    def test_list_mentions_trace(self, capsys):
        assert main(["list"]) == 0
        assert "trace <experiment>" in capsys.readouterr().out


class TestExperimentSmoke:
    """Every registered experiment runs at --scale small and reports sane numbers."""

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_small_scale_run(self, experiment_id):
        args = build_parser().parse_args([experiment_id])
        report = run_experiment(experiment_id, args)
        assert report.rows, f"{experiment_id} produced no rows"
        assert report.summary, f"{experiment_id} produced no summary"
        for key, value in report.summary.items():
            if isinstance(value, (int, float)):
                assert np.isfinite(value), f"{experiment_id} summary {key!r} is {value}"
        # Reports must survive the JSON artifact path the CLI exposes.
        restored = ExperimentReport.from_json(report.to_json())
        assert restored.name == report.name
        assert len(restored.rows) == len(report.rows)

    def test_parallel_run_matches_serial(self):
        args = build_parser().parse_args(["fig1b"])
        serial = run_experiment("fig1b", args)
        parallel_args = build_parser().parse_args(["fig1b", "--jobs", "4"])
        parallel = run_experiment("fig1b", parallel_args)
        assert serial.rows == parallel.rows


class TestSubprocessJsonArtifact:
    def test_format_json_out(self, tmp_path):
        target = tmp_path / "fig1a.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "fig1a", "--qubits", "4",
                "--format", "json", "--out", str(target),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "wrote figure1a_bv_histogram (json)" in completed.stdout
        payload = json.loads(target.read_text())
        assert payload["name"] == "figure1a_bv_histogram"
        assert payload["rows"] and payload["summary"]
        assert payload["meta"]["engine"]["counters"]["engine.jobs"] == 1


class TestShardWorkerSubcommand:
    def test_requires_broker(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard-worker"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--broker" in err and "--listen belongs to shard-broker" in err

    def test_flags_scoped_to_shard_worker(self, capsys):
        for flags in (
            ["--max-requests", "3"],
            ["--delay", "0.1"],
        ):
            with pytest.raises(SystemExit):
                main(["fig1a"] + flags)
            assert "shard-worker" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fig1a", "--listen", "127.0.0.1:0"])
        assert "shard-broker" in capsys.readouterr().err

    def test_list_mentions_shard_worker(self, capsys):
        assert main(["list"]) == 0
        assert "shard-worker --broker" in capsys.readouterr().out

    def test_rejects_listen(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard-worker", "--listen", "127.0.0.1:0", "--broker", "127.0.0.1:1"])
        assert excinfo.value.code == 2
        assert "--listen belongs to shard-broker" in capsys.readouterr().err

    def test_rejects_bad_broker_address(self):
        with pytest.raises(Exception, match="HOST:PORT"):
            main(["shard-worker", "--broker", "no-port"])


class TestShardBrokerSubcommand:
    def test_requires_listen(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard-broker"])
        assert "--listen" in capsys.readouterr().err

    def test_rejects_bad_listen_address(self):
        with pytest.raises(Exception, match="HOST:PORT"):
            main(["shard-broker", "--listen", "no-port"])

    def test_broker_flag_scoped_to_shard_worker(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1a", "--broker", "127.0.0.1:1"])
        assert "shard-worker" in capsys.readouterr().err

    def test_list_mentions_shard_broker(self, capsys):
        assert main(["list"]) == 0
        assert "shard-broker" in capsys.readouterr().out

    def test_subprocess_broker_pull_worker_and_sigterm(self):
        """End-to-end pull path: a broker subprocess, a worker subprocess
        pulling from it, chunks served to this process's executor, and a
        clean exit-0 shutdown of both on SIGTERM."""
        from repro.engine.broker import BrokerExecutor

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_SHARD_KEY"] = "cli-test-key"
        env["REPRO_SHARD_HEARTBEAT"] = "0.2"
        broker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "shard-broker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        worker = None
        try:
            banner = broker.stdout.readline()
            assert "shard-broker listening on " in banner
            address = banner.strip().rsplit(" ", 1)[-1]
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "shard-worker", "--broker", address],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            assert "shard-worker pulling from broker " in worker.stdout.readline()
            executor = BrokerExecutor(
                broker=address,
                join_deadline=30.0,
                timeout=30.0,
                auth_key=b"cli-test-key",
            )
            try:
                assert sorted(executor.run(abs, [-3, -1, -2])) == [1, 2, 3]
                provenance = executor.provenance()
                assert provenance["workers_joined"] >= 1
                assert provenance["chunks_completed"] == 3
            finally:
                executor.close()
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=30) == 0
            broker.send_signal(signal.SIGTERM)
            assert broker.wait(timeout=30) == 0
        finally:
            for process in (worker, broker):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)


class TestCalibrationSubcommands:
    def test_devices_table(self, capsys):
        assert main(["devices"]) == 0
        output = capsys.readouterr().out
        assert "ibm-paris" in output and "google-sycamore" in output
        assert "2q_error" in output

    def test_scenarios_table(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "heavy-hex-12-spread" in output
        assert "drift_time" in output

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "scenarios"
        assert payload["summary"]["num_scenarios"] >= 12
        names = {row["name"] for row in payload["rows"]}
        assert "sycamore-12-drifted" in names

    def test_devices_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "devices.json"
        assert main(["devices", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["num_devices"] == 4.0

    def test_list_mentions_subcommands(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "scenarios" in output and "devices" in output and "scenario-sweep" in output

    def test_scenario_sweep_registered(self):
        assert "scenario-sweep" in EXPERIMENTS

    def test_scenario_sweep_json(self, capsys):
        assert main(["scenario-sweep", "--qubits", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "scenario_sweep"
        assert payload["summary"]["num_scenarios"] >= 12
        assert payload["meta"]["engine"]["counters"]["engine.jobs"] == len(payload["rows"])


class TestBackendSubcommands:
    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "statevector" in output and "stabilizer" in output and "auto" in output

    def test_backends_json(self, capsys):
        assert main(["backends", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "backends"
        assert payload["summary"]["num_backends"] >= 2.0
        by_name = {row["name"]: row for row in payload["rows"]}
        assert by_name["statevector"]["max_qubits"] == 24
        assert by_name["stabilizer"]["max_qubits"] >= 127

    def test_scenarios_table_lists_large_tier(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "heavy-hex-127-bv" in output and "sycamore-53-ghz" in output

    def test_scenario_sweep_honours_backend_and_scenario_flags(self, capsys):
        assert main([
            "scenario-sweep", "--qubits", "5", "--scenario", "linear-12-spread",
            "--backend", "auto", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["num_scenarios"] == 1.0
        assert all(row["backend"] == "stabilizer" for row in payload["rows"])
        assert payload["meta"]["config"]["backend"] == "auto"
        backends = [job["backend"] for job in payload["meta"]["jobs"]]
        assert backends == ["stabilizer"] * len(payload["rows"])

    def test_list_mentions_backends(self, capsys):
        assert main(["list"]) == 0
        assert "backends" in capsys.readouterr().out

    def test_backend_flag_rejected_by_unaware_experiments(self, capsys):
        # fig8 would silently run statevector; the CLI must refuse instead.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--backend", "stabilizer"])
        assert excinfo.value.code == 2
        assert "scenario-sweep" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fig8", "--scenario", "linear-12-spread"])


class TestProfileRepeat:
    def test_repeat_reports_median_phases(self, capsys):
        assert main(["profile", "fig8a", "--repeat", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["repeat"] == 2
        phases = {row["phase"] for row in payload["rows"]}
        assert {"transpile", "ideal", "sample", "hammer"} <= phases
        shares = sum(row["share"] for row in payload["rows"])
        assert shares == pytest.approx(1.0)

    def test_default_single_run_unchanged(self, capsys):
        assert main(["profile", "fig8a", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["repeat"] == 1

    def test_repeat_flag_rejected_outside_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig8a", "--repeat", "3"])
        assert "--repeat only applies" in capsys.readouterr().err
