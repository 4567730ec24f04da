"""Structured logging: ring buffer, warn-once keys, REPRO_LOG stderr modes."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.logs import (
    ENV_LOG,
    LOG_MODES,
    absorb_records,
    current_sequence,
    get_logger,
    log_mode,
    log_records,
    records_since,
    reset_logs,
)


@pytest.fixture(autouse=True)
def clean_logs():
    """Each test starts with an empty ring and no warn-once state."""
    reset_logs()
    yield
    reset_logs()


@pytest.fixture
def quiet(monkeypatch):
    monkeypatch.setenv(ENV_LOG, "off")


class TestRing:
    def test_records_carry_structure_and_sequence(self, quiet):
        logger = get_logger("repro.test")
        first = logger.warning("gpu-fallback", "falling back", plan="tiled")
        second = logger.info("profile-loaded", "profile active", path="/tmp/p.json")
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["level"] == "warning" and second["level"] == "info"
        assert first["logger"] == "repro.test"
        assert first["event"] == "gpu-fallback"
        assert first["fields"] == {"plan": "tiled"}
        assert first["pid"] == os.getpid()
        assert log_records() == [first, second]

    def test_records_since_slices_exclusively(self, quiet):
        logger = get_logger("repro.test")
        logger.info("a", "first")
        mark = current_sequence()
        logger.info("b", "second")
        sliced = records_since(mark)
        assert [record["event"] for record in sliced] == ["b"]
        assert records_since(current_sequence()) == []

    def test_absorb_resequences_worker_records(self, quiet):
        logger = get_logger("repro.parent")
        logger.info("parent", "before")
        # Worker records arrive with the *worker's* local sequence numbers.
        absorb_records([
            {"seq": 1, "level": "warning", "logger": "repro.worker",
             "event": "w", "message": "from worker", "fields": {}, "pid": 999},
        ])
        records = log_records()
        assert [record["seq"] for record in records] == [1, 2]
        assert records[-1]["logger"] == "repro.worker"


class TestWarnOnce:
    def test_second_call_with_same_key_is_dropped(self, quiet):
        logger = get_logger("repro.core.kernels")
        assert logger.warn_once("gpu-fallback", "falling back", plan="tiled") is not None
        assert logger.warn_once("gpu-fallback", "falling back again") is None
        assert len(log_records()) == 1

    def test_distinct_keys_both_emit(self, quiet):
        logger = get_logger("repro.test")
        assert logger.warn_once("key-a", "a") is not None
        assert logger.warn_once("key-b", "b") is not None

    def test_key_doubles_as_event(self, quiet):
        get_logger("repro.test").warn_once("profile-corrupt", "ignoring profile")
        assert log_records()[0]["event"] == "profile-corrupt"


class TestStderrModes:
    def test_default_mode_is_text(self, monkeypatch):
        monkeypatch.delenv(ENV_LOG, raising=False)
        assert log_mode() == "text"

    def test_unknown_mode_falls_back_to_text(self, monkeypatch):
        monkeypatch.setenv(ENV_LOG, "verbose")
        assert log_mode() == "text"

    def test_modes_are_documented(self):
        assert set(LOG_MODES) == {"text", "json", "off"}

    def test_text_rendering(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_LOG, "text")
        get_logger("repro.engine.cache").warning(
            "cache-persist-failed", "continuing memory-only", namespace="sample"
        )
        err = capsys.readouterr().err
        assert "[repro:warning] repro.engine.cache cache-persist-failed:" in err
        assert "namespace=sample" in err

    def test_json_rendering_is_one_object_per_line(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_LOG, "json")
        get_logger("repro.test").warning("gpu-fallback", "falling back", plan="tiled")
        lines = [line for line in capsys.readouterr().err.splitlines() if line]
        record = json.loads(lines[-1])
        assert record["event"] == "gpu-fallback"
        assert record["fields"] == {"plan": "tiled"}

    def test_off_mode_silences_stderr_but_keeps_ring(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_LOG, "off")
        get_logger("repro.test").warning("quiet", "nothing on stderr")
        assert capsys.readouterr().err == ""
        assert len(log_records()) == 1

