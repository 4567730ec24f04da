"""End-to-end observability: the engine's one account, observed or not.

The contracts checked here:

* **Determinism of counters.**  Counters count *work units* (jobs, shots,
  chunks, merges), so the merged worker metrics of a 2- or 4-worker sharded
  run equal a serial run's exactly — any discrepancy means a counter was
  placed on a dispatch path instead of a work path.
* **Results are untouched.**  Observation changes what is recorded, never
  what is computed: rows/counts are bit-identical with tracing on or off.
* **All four layers produce spans.**  engine phase -> executor shard ->
  reduction merge -> kernel call, exported as schema-valid Chrome trace
  JSON.
* **One account.**  Each ``ExecutionEngine.run`` counts into one metrics
  scope with or without an Observation: ``last_run``'s counters are equal
  at any worker count, an Observation receives them once, and the
  engine's lifetime registry is the sum of its runs.
* **Span cost.**  Span work is per job, never per shot or per outcome,
  and without an Observation no span is built at all.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.core.hammer import hammer
from repro.engine import CircuitJob, ExecutionEngine, FaultInjectingExecutor, SerialShardExecutor
from repro.experiments import BvStudyConfig, run_bv_study
from repro.obs import Observation
from repro.obs import trace as trace_module
from repro.quantum.device import get_device


@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _sharded_jobs(device, count=2, shots=20_000):
    circuit = bernstein_vazirani("10110")
    return [
        CircuitJob(
            job_id=f"job-{index}",
            circuit=circuit,
            shots=shots,
            noise_model=device.noise_model,
        )
        for index in range(count)
    ]


def _observed_run(device, workers):
    """One sharded engine run + a HAMMER pass under a fresh Observation."""
    jobs = _sharded_jobs(device)
    with Observation() as observation:
        with ExecutionEngine(max_workers=workers, sample_shard_shots=4_096) as engine:
            results = engine.run(jobs, seed=11)
        reconstructed = hammer(results[0].noisy)
    counts = [result.noisy.counts() for result in results]
    return observation, counts, dict(reconstructed.items())


class TestCounterDeterminism:
    def test_merged_counters_identical_across_worker_counts(self, device):
        """1-, 2- and 4-worker sharded runs report exactly equal counters."""
        snapshots = []
        tables = None
        for workers in (1, 2, 4):
            observation, counts, _ = _observed_run(device, workers)
            snapshots.append(observation.registry.snapshot()["counters"])
            if tables is None:
                tables = counts
            else:
                assert counts == tables  # results stay bit-identical too
        assert snapshots[0] == snapshots[1] == snapshots[2]
        counters = snapshots[0]
        # Work-unit sanity: 2 jobs x 20_000 shots in 4_096-shot chunks = 5 each.
        assert counters["engine.jobs"] == 2
        assert counters["sampler.chunks"] == 10
        assert counters["sampler.chunk_shots"] == 40_000
        assert counters["reduction.merges"] == 8  # 5-leaf tree merges 4x, per job
        assert counters["kernel.plan.dense"] >= 1  # the hammer pass dispatched


def _mixed_jobs(device):
    """Two sharded jobs plus three routed jobs sharing circuit and noise model."""
    jobs = _sharded_jobs(device)
    circuit = bernstein_vazirani("1101")
    jobs += [
        CircuitJob(
            job_id=f"grouped-{index}",
            circuit=circuit,
            shots=2_048,
            noise_model=device.noise_model,
            coupling_map=device.coupling_map,
            basis_gates=device.basis_gates,
        )
        for index in range(3)
    ]
    return jobs


def _sum_counters(*snapshots):
    total = {}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            total[name] = total.get(name, 0) + value
    return total


class TestOneAccount:
    def test_last_run_counters_equal_at_any_worker_count(self, device):
        runs = []
        for workers in (1, 2, 4):
            with ExecutionEngine(max_workers=workers, sample_shard_shots=4_096) as engine:
                engine.run(_mixed_jobs(device), seed=11)
            runs.append(engine.last_run["counters"])
        assert runs[0] == runs[1] == runs[2]
        counters = runs[0]
        assert counters["engine.jobs"] == 5
        assert counters["engine.transpiles_computed"] == 1
        assert counters["engine.sharded_jobs"] == 2
        assert counters["sampler.chunks"] == 10
        assert counters["reduction.merges"] == 8
        assert counters["sampler.jobs"] == 3

    def test_an_observation_receives_each_count_once(self, device):
        jobs = _mixed_jobs(device)
        with Observation() as observation:
            with ExecutionEngine(max_workers=2, sample_shard_shots=4_096) as engine:
                engine.run(jobs, seed=11)
        run = engine.last_run["counters"]
        observed = observation.registry.counters
        assert {name: observed[name] for name in run} == run

    def test_lifetime_metrics_are_the_sum_of_the_runs(self, device):
        with ExecutionEngine(sample_shard_shots=4_096) as engine:
            engine.run(_mixed_jobs(device), seed=11)
            first = engine.last_run
            engine.run(_mixed_jobs(device), seed=12)
            second = engine.last_run
        assert engine.metrics.counters == _sum_counters(first, second)

    def test_a_faulted_serial_run_counts_each_chunk_once(self, device):
        jobs = _sharded_jobs(device)
        with ExecutionEngine(sample_shard_shots=4_096) as engine:
            clean = engine.run(jobs, seed=11)
        expected = engine.last_run["counters"]
        executor = FaultInjectingExecutor(SerialShardExecutor(), seed=3, drop=0.3, duplicate=0.3)
        with ExecutionEngine(sample_shard_shots=4_096, shard_executor=executor) as engine:
            faulted = engine.run(jobs, seed=11)
        counters = engine.last_run["counters"]
        faults = executor.provenance()["faults"]
        assert faults["drop"] >= 1 and faults["duplicate"] >= 1
        assert counters["engine.duplicate_chunks_dropped"] == faults["duplicate"]
        # A dropped chunk ran twice and a duplicated one arrived twice; each
        # still counts once.
        for name in ("sampler.chunks", "sampler.chunk_shots", "reduction.merges"):
            assert counters[name] == expected[name]
        assert [r.noisy.counts() for r in faulted] == [r.noisy.counts() for r in clean]


class TestRowsBitIdentical:
    def test_observation_never_changes_results(self, device):
        jobs = _sharded_jobs(device)
        with ExecutionEngine(max_workers=2, sample_shard_shots=4_096) as engine:
            plain = [r.noisy.counts() for r in engine.run(jobs, seed=11)]
        _, observed, _ = _observed_run(device, 2)
        assert plain == observed

    def test_hammer_output_identical_under_observation(self, device):
        _, _, first = _observed_run(device, 1)
        jobs = _sharded_jobs(device)
        with ExecutionEngine(max_workers=1, sample_shard_shots=4_096) as engine:
            results = engine.run(jobs, seed=11)
        assert dict(hammer(results[0].noisy).items()) == first


class TestFourLayerTrace:
    @staticmethod
    def _assert_valid_chrome_trace(trace):
        assert isinstance(trace["traceEvents"], list)
        assert trace["otherData"]["dropped_events"] >= 0
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
                assert isinstance(event["args"], dict)

    def test_spans_from_every_layer_and_valid_chrome_json(self, device):
        observation, _, _ = _observed_run(device, 4)
        names = observation.recorder.span_names()
        # engine phase layer (post-hoc spans from the phase timers + run span)
        assert "engine.run" in names
        assert "phase.sample" in names
        assert "phase.hammer" in names
        # executor shard layer
        assert "executor.shard" in names
        # reduction merge layer
        assert "reduction.merge" in names
        # kernel layer
        assert "kernel.hammer" in names
        # cache layer rides along
        assert "cache.get" in names

        trace = observation.chrome_trace()
        self._assert_valid_chrome_trace(trace)
        # Worker pids appear on the shared timeline with their own labels.
        worker_pids = {
            event["pid"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and "repro-worker" in event["args"]["name"]
        }
        assert worker_pids, "4-worker sharded run should absorb worker-process spans"
        # The kernel span carries its dispatch plan and support attrs.
        kernel_events = [
            event for event in trace["traceEvents"]
            if event.get("ph") == "X" and event["name"] == "kernel.hammer"
        ]
        assert kernel_events and all("plan" in e["args"] for e in kernel_events)
        json.loads(json.dumps(trace))


def _fig8_sweep(shots: int):
    """Figure 8's memo-cold sweep: 9 jobs at 12-14 qubits, one key per width."""
    config = BvStudyConfig(qubit_range=(12, 14), keys_per_size=1, shots=shots, seed=8)
    return run_bv_study(config, engine=ExecutionEngine())


class TestSpanCost:
    def test_span_work_is_per_job(self):
        """16x the shots (and so wider supports) record the very same spans."""
        recorded = {}
        for shots in (2_048, 32_768):
            with Observation() as observation:
                _fig8_sweep(shots)
            recorded[shots] = Counter(event["name"] for event in observation.recorder.events())
            counters = observation.meta()["metrics"]["counters"]
            assert counters["engine.runs"] == 1
            assert counters["sampler.shots"] == 9 * shots
        assert recorded[2_048] == recorded[32_768]
        assert recorded[2_048]["engine.run"] == 1
        assert recorded[2_048]["kernel.hammer"] == 9

    def test_no_span_is_built_without_an_observation(self, monkeypatch):
        built = []

        class CountingSpan(trace_module._Span):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(trace_module, "_Span", CountingSpan)
        _fig8_sweep(2_048)
        assert built == []
        with Observation():
            _fig8_sweep(2_048)
        assert built  # the count sees an observed run's spans


class TestScenarioSweepAcceptance:
    """The PR-8 acceptance run: a traced `repro trace scenario-sweep`.

    Sharding is forced (identically for every run here) so the sweep's jobs
    exercise the executor/reduction layers; within a fixed shard layout the
    rows stay bit-identical traced or not, and the serial traced run's
    counters equal a --jobs 4 re-run's merged worker counters.
    """

    @pytest.fixture(autouse=True)
    def forced_sharding(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_SHARD_SHOTS", "1024")

    def test_traced_sweep_all_layers_and_jobs4_counter_parity(self, tmp_path):
        from repro.cli import build_parser, run_experiment, trace_report

        trace_path = tmp_path / "sweep_trace.json"
        args = build_parser().parse_args(
            ["trace", "scenario-sweep", "--trace-out", str(trace_path)]
        )
        traced = trace_report("scenario-sweep", args)
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"phase.sample", "executor.shard", "reduction.merge", "kernel.hammer"} <= names

        # Untraced re-run: rows bit-identical with tracing off.
        plain_args = build_parser().parse_args(["scenario-sweep"])
        plain = run_experiment("scenario-sweep", plain_args)
        assert traced.rows == plain.rows

        # --jobs 4 observed re-run: merged worker counters match exactly.
        parallel_args = build_parser().parse_args(["scenario-sweep", "--jobs", "4"])
        with Observation() as observation:
            parallel = run_experiment("scenario-sweep", parallel_args)
        assert parallel.rows == plain.rows
        assert (
            observation.meta()["metrics"]["counters"]
            == traced.meta["obs"]["metrics"]["counters"]
        )


class TestReportMeta:
    def test_reports_carry_obs_meta_only_when_observed(self):
        config = BvStudyConfig(qubit_range=(5, 5), keys_per_size=1, shots=512, seed=8)
        plain = run_bv_study(config)
        assert "obs" not in plain.meta
        with Observation():
            observed = run_bv_study(config)
        assert observed.rows == plain.rows  # bit-identical rows, again
        obs = observed.meta["obs"]
        assert obs["metrics"]["counters"]["engine.runs"] >= 1
        assert obs["spans"]["events"] > 0
        assert "engine.run" in obs["spans"]["names"]
        json.loads(json.dumps(obs))  # the meta block is artifact-safe JSON


def _on_thread(fn):
    """Run ``fn`` on a fresh thread and return its result."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


class TestPerThreadObservation:
    """An observation observes the thread that opened it, and only that one."""

    config = BvStudyConfig(qubit_range=(5, 5), keys_per_size=1, shots=512, seed=8)

    def test_a_study_on_a_thread_that_does_not_observe_carries_no_obs_block(self):
        with Observation() as observation:
            report = _on_thread(lambda: run_bv_study(self.config))
        assert report.meta["engine"]["counters"]["engine.jobs"] == 3
        assert "obs" not in report.meta
        assert "engine.jobs" not in observation.registry.counters

    def test_a_second_thread_opens_its_own_observation(self):
        def observed_study():
            with Observation() as observation:
                report = run_bv_study(self.config)
            return observation, report

        with Observation() as outer:
            inner, report = _on_thread(observed_study)
        assert inner.registry.counters["engine.jobs"] == 3
        assert report.meta["obs"]["metrics"]["counters"]["engine.jobs"] == 3
        assert "engine.run" in report.meta["obs"]["spans"]["names"]
        assert "engine.jobs" not in outer.registry.counters
