"""Span tracing: recorder semantics, nesting, ring bounds, Chrome export."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs import Observation
from repro.obs.trace import (
    DEFAULT_MAX_EVENTS,
    TraceRecorder,
    active_recorder,
    record_span,
    trace_span,
    tracing_active,
)

#: Minimal schema of a Chrome trace-event JSON object ("object format").
#: chrome://tracing and Perfetto both require traceEvents; "X" events need
#: name/ts/dur/pid/tid, "M" metadata events need name/pid/args.
def assert_valid_chrome_trace(trace: dict) -> None:
    assert isinstance(trace, dict)
    assert isinstance(trace["traceEvents"], list)
    assert trace["displayTimeUnit"] in ("ms", "ns")
    assert isinstance(trace["otherData"], dict)
    assert trace["otherData"]["dropped_events"] >= 0
    for event in trace["traceEvents"]:
        assert isinstance(event, dict)
        assert event["ph"] in ("X", "M")
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["cat"], str)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["args"], dict)
        else:
            assert event["name"] == "process_name"
            assert "name" in event["args"]
    # Strict JSON round-trip: the artifact must serialise as-is.
    json.loads(json.dumps(trace))


class TestDisabledPath:
    def test_inactive_by_default(self):
        assert not tracing_active()
        assert active_recorder() is None

    def test_trace_span_returns_shared_null_span(self):
        first = trace_span("kernel.hammer", support=8)
        second = trace_span("cache.get")
        assert first is second  # the singleton: zero allocation when disabled
        with first as span:
            span.set(plan="dense")  # must be a silent no-op

    def test_record_span_is_noop(self):
        record_span("engine.run", 0.5, num_jobs=3)  # nothing to assert: no crash


class TestRecording:
    def test_span_records_complete_event(self):
        with Observation() as observation:
            with trace_span("kernel.hammer", support=64, width=10) as span:
                span.set(plan="tiled")
        events = observation.recorder.events()
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "kernel.hammer"
        assert event["cat"] == "kernel"
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()
        assert event["args"]["support"] == 64
        assert event["args"]["plan"] == "tiled"
        assert event["args"]["depth"] == 0
        assert event["dur_us"] >= 0.0

    def test_nested_spans_record_depth(self):
        with Observation() as observation:
            with trace_span("engine.run"):
                with trace_span("executor.shard"):
                    with trace_span("reduction.merge"):
                        pass
        depths = {e["name"]: e["args"]["depth"] for e in observation.recorder.events()}
        assert depths == {"engine.run": 0, "executor.shard": 1, "reduction.merge": 2}

    def test_record_span_defaults_wall_start_and_sees_depth(self):
        with Observation() as observation:
            with trace_span("engine.run"):
                record_span("phase.sample", 0.25, shots=1024)
        by_name = {e["name"]: e for e in observation.recorder.events()}
        phase = by_name["phase.sample"]
        assert phase["cat"] == "phase"
        assert phase["dur_us"] == pytest.approx(0.25e6)
        assert phase["args"]["depth"] == 1  # inside the live engine.run span
        assert phase["args"]["shots"] == 1024
        # wall defaults to "now - duration": starts before the enclosing span ends
        assert phase["wall"] <= by_name["engine.run"]["wall"] + 1.0

    def test_span_survives_exceptions(self):
        with Observation() as observation:
            with pytest.raises(ValueError):
                with trace_span("engine.task.sample"):
                    raise ValueError("boom")
        assert observation.recorder.span_names() == {"engine.task.sample"}


class TestRingBuffer:
    def test_capacity_bounds_and_drop_counter(self):
        recorder = TraceRecorder(max_events=4)
        for index in range(10):
            recorder.record({"name": f"s{index}", "cat": "s", "wall": 0.0,
                             "dur_us": 1.0, "pid": 1, "tid": 1, "args": {}})
        assert recorder.num_events == 4
        assert recorder.dropped == 6
        # Oldest events fall out first.
        assert [event["name"] for event in recorder.events()] == ["s6", "s7", "s8", "s9"]

    def test_default_capacity(self):
        assert TraceRecorder().max_events == DEFAULT_MAX_EVENTS

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)


class TestChromeExport:
    def test_schema_and_metadata(self):
        recorder = TraceRecorder()
        worker_pid = os.getpid() + 1
        recorder.record({"name": "engine.run", "cat": "engine", "wall": recorder.epoch,
                         "dur_us": 10.0, "pid": os.getpid(), "tid": 1, "args": {"depth": 0}})
        recorder.absorb([
            {"name": "executor.shard", "cat": "executor", "wall": recorder.epoch + 0.001,
             "dur_us": 5.0, "pid": worker_pid, "tid": 2, "args": {"depth": 0}},
        ])
        trace = recorder.chrome_trace()
        assert_valid_chrome_trace(trace)
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in metadata} == {os.getpid(), worker_pid}
        labels = {e["pid"]: e["args"]["name"] for e in metadata}
        assert labels[os.getpid()].startswith("repro ")
        assert labels[worker_pid].startswith("repro-worker ")

    def test_ts_relative_to_epoch_never_negative(self):
        recorder = TraceRecorder()
        recorder.record({"name": "early", "cat": "early", "wall": recorder.epoch - 5.0,
                         "dur_us": 1.0, "pid": 1, "tid": 1, "args": {}})
        recorder.record({"name": "late", "cat": "late", "wall": recorder.epoch + 2.0,
                         "dur_us": 1.0, "pid": 1, "tid": 1, "args": {}})
        complete = [e for e in recorder.chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.0  # clamped, not negative
        assert complete[1]["ts"] == pytest.approx(2e6)
