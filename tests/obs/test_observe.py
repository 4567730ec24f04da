"""Observation contexts and the worker payload round-trip."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    Observation,
    absorb_payload,
    counter_add,
    current_observation,
    metrics_active,
    observation_active,
    observed_call,
    trace_span,
    tracing_active,
)
from repro.obs.logs import get_logger, reset_logs


@pytest.fixture(autouse=True)
def clean_logs():
    reset_logs()
    yield
    reset_logs()


def _fake_task(task):
    """Stand-in worker task: records one counter and one span, returns doubled."""
    counter_add("sampler.chunks")
    with trace_span("executor.shard", chunk=task):
        pass
    return task * 2


class TestObservation:
    def test_enter_installs_and_exit_restores_globals(self):
        assert not observation_active()
        with Observation() as observation:
            assert observation_active()
            assert current_observation() is observation
            assert tracing_active() and metrics_active()
        assert not observation_active()
        assert not tracing_active() and not metrics_active()

    def test_observations_do_not_nest(self):
        with Observation():
            with pytest.raises(ObservabilityError, match="already active"):
                with Observation():
                    pass

    def test_exit_restores_disabled_state_after_exception(self):
        with pytest.raises(RuntimeError):
            with Observation():
                raise RuntimeError("boom")
        assert not observation_active() and not tracing_active()

    def test_meta_shape(self):
        with Observation() as observation:
            counter_add("engine.runs")
            with trace_span("engine.run"):
                pass
        meta = observation.meta()
        assert meta["metrics"]["counters"] == {"engine.runs": 1}
        assert meta["spans"]["events"] == 1
        assert meta["spans"]["dropped"] == 0
        assert meta["spans"]["names"] == ["engine.run"]
        assert meta["log"] == []


class TestObservedCall:
    def test_returns_result_and_payload(self):
        result, payload = observed_call(_fake_task, 21)
        assert result == 42
        assert payload["metrics"]["counters"] == {"sampler.chunks": 1}
        assert [event["name"] for event in payload["events"]] == ["executor.shard"]
        assert payload["logs"] == []

    def test_restores_parent_observation(self):
        """An in-process 'worker' call must not clobber a live parent observation."""
        with Observation() as observation:
            counter_add("engine.runs")
            result, payload = observed_call(_fake_task, 1)
            # Task-scoped state went to the payload, not the parent...
            assert observation.registry.counters == {"engine.runs": 1}
            # ...and the parent registry is active again afterwards.
            counter_add("engine.runs")
            assert observation.registry.counters == {"engine.runs": 2}
        assert payload["metrics"]["counters"] == {"sampler.chunks": 1}

    def test_payload_folds_into_parent(self):
        with Observation() as observation:
            result, payload = observed_call(_fake_task, 3)
            absorb_payload(payload)
        assert observation.registry.counters == {"sampler.chunks": 1}
        assert observation.recorder.span_names() == {"executor.shard"}

    def test_an_in_process_task_logs_once(self):
        logger = get_logger("repro.test")

        def warning_task(task):
            logger.warning("task-warning", "logged inside the task")
            return task

        with Observation() as observation:
            _, payload = observed_call(warning_task, 1)
            absorb_payload(payload)
        assert [record["event"] for record in payload["logs"]] == ["task-warning"]
        assert [record["event"] for record in observation.log_records()] == ["task-warning"]

    def test_a_task_on_another_thread_leaves_the_parents_spans_alone(self):
        """An in-process worker thread's task records only its own spans.

        While the task runs (as on a ``BrokerWorker`` thread), a span the
        observing thread opens belongs to the observation, not to the
        task's payload, which the engine discards if the chunk turns out
        to be a duplicate.
        """
        started, release = threading.Event(), threading.Event()
        returned = []

        def waiting_task(task):
            started.set()
            assert release.wait(timeout=10)
            return _fake_task(task)

        with Observation() as observation:
            worker = threading.Thread(
                target=lambda: returned.append(observed_call(waiting_task, 5))
            )
            worker.start()
            assert started.wait(timeout=10)
            with trace_span("main.work"):
                counter_add("engine.runs")
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        ((result, payload),) = returned
        assert result == 10
        assert observation.recorder.span_names() == {"main.work"}
        assert observation.registry.counters == {"engine.runs": 1}
        assert [event["name"] for event in payload["events"]] == ["executor.shard"]
        assert payload["metrics"]["counters"] == {"sampler.chunks": 1}

    def test_an_in_process_task_on_another_thread_logs_into_the_observing_thread(self):
        """A worker thread's record reaches the observation that absorbs its payload.

        The observing thread's own record, logged while the task runs, stays
        out of the task's payload.
        """
        logger = get_logger("repro.test")
        started, release = threading.Event(), threading.Event()
        returned = []

        def waiting_task(task):
            started.set()
            assert release.wait(timeout=10)
            logger.warning("task-warning", "logged inside the task")
            return task

        with Observation() as observation:
            worker = threading.Thread(
                target=lambda: returned.append(observed_call(waiting_task, 5))
            )
            worker.start()
            assert started.wait(timeout=10)
            logger.warning("main-warning", "logged while the task runs")
            release.set()
            worker.join(timeout=10)
            assert not worker.is_alive()
            ((_, payload),) = returned
            absorb_payload(payload)
        assert [record["event"] for record in payload["logs"]] == ["task-warning"]
        assert [record["event"] for record in observation.log_records()] == [
            "main-warning",
            "task-warning",
        ]

    def test_absorb_payload_without_observation_is_noop(self):
        absorb_payload({"metrics": {"counters": {"x": 1}}})  # no crash, nothing active

    def test_absorb_rejects_malformed_payload(self):
        with Observation():
            with pytest.raises(ObservabilityError, match="payload"):
                absorb_payload("not-a-dict")


class TestPerThreadLog:
    def test_two_observing_threads_each_see_only_their_own_record(self):
        logger = get_logger("repro.test")
        both_open = threading.Barrier(2, timeout=10)
        both_logged = threading.Barrier(2, timeout=10)
        seen = {}

        def observe(name):
            with Observation() as observation:
                both_open.wait()
                logger.warning(f"{name}-warning", f"logged on the {name} thread")
                both_logged.wait()
            seen[name] = [entry["event"] for entry in observation.meta()["log"]]

        threads = [threading.Thread(target=observe, args=(name,)) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"first": ["first-warning"], "second": ["second-warning"]}
