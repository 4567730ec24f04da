"""Structured logging that lands in artifacts, not just on stderr.

The stack's warnings (a cache that cannot persist, a broker with no
workers, a transport retry) historically went through :mod:`warnings` —
visible on an interactive stderr, invisible in the JSON artifact of a
headless sweep.  This module gives them one structured sink:

* Every record is appended to a bounded process-global ring buffer with a
  monotonically increasing sequence number and the thread whose account it
  belongs to: the thread that logged it, or the thread that absorbed it
  from a worker's payload.  Observation contexts
  (:mod:`repro.obs.observe`) slice their own thread's records by sequence
  number into ``report.meta["obs"]["log"]`` and worker payloads, so a
  headless run's artifacts carry exactly the warnings it produced.
* ``REPRO_LOG`` selects the *stderr* rendering: ``text`` (default, one
  human line per record), ``json`` (one JSON object per line, for log
  shippers) or ``off`` (artifacts only — silence on stderr).

Usage::

    logger = get_logger("repro.engine.broker")
    logger.warn_once("broker-no-workers", "no worker joined broker ...",
                     broker="127.0.0.1:7640")

``warn_once`` keys are process-global: the first call with a key emits and
records, later ones are dropped — the same contract the ``warnings``
module's once-filter provided, but deterministic and artifact-visible.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque

__all__ = [
    "ENV_LOG",
    "LOG_MODES",
    "StructuredLogger",
    "get_logger",
    "log_mode",
    "log_records",
    "records_since",
    "current_sequence",
    "reset_logs",
]

ENV_LOG = "REPRO_LOG"

#: Accepted ``REPRO_LOG`` values; anything else falls back to ``text``.
LOG_MODES = ("text", "json", "off")

#: Ring capacity: warn-once traffic is tiny, but a misbehaving loop must
#: degrade to losing old records, not to unbounded growth.
_MAX_RECORDS = 4096

_records: deque[dict] = deque(maxlen=_MAX_RECORDS)
_sequence = 0
_once_keys: set[str] = set()
_lock = threading.Lock()


def log_mode() -> str:
    """The stderr rendering mode from ``REPRO_LOG`` (default ``text``)."""
    raw = os.environ.get(ENV_LOG, "").strip().lower()
    return raw if raw in LOG_MODES else "text"


def current_sequence() -> int:
    """Sequence number of the most recent record (0 when none yet)."""
    return _sequence


def log_records() -> list[dict]:
    """Every buffered record, oldest first."""
    return list(_records)


def records_since(sequence: int, thread: int | None = None) -> list[dict]:
    """Records appended after sequence number ``sequence`` (exclusive).

    With ``thread`` (a ``threading.get_ident()`` value), only the records in
    that thread's account.
    """
    return [
        record
        for record in _records
        if record["seq"] > sequence and (thread is None or record["thread"] == thread)
    ]


def absorb_records(records: list[dict]) -> None:
    """Fold records exported by a worker into the calling thread's account.

    Worker sequence numbers are local to the worker; absorbed records are
    re-sequenced here so :func:`records_since` slices stay consistent.
    """
    thread = threading.get_ident()
    for record in records:
        _append({**record, "thread": thread})


def reset_logs() -> None:
    """Drop all buffered records and warn-once state (test isolation)."""
    global _sequence
    with _lock:
        _records.clear()
        _once_keys.clear()
        _sequence = 0


def _append(record: dict) -> dict:
    global _sequence
    with _lock:
        _sequence += 1
        record["seq"] = _sequence
        _records.append(record)
    return record


def _emit_stderr(record: dict) -> None:
    mode = log_mode()
    if mode == "off":
        return
    if mode == "json":
        print(json.dumps(record, sort_keys=True, default=str), file=sys.stderr)
        return
    fields = record.get("fields") or {}
    rendered_fields = "".join(f" {key}={value}" for key, value in sorted(fields.items()))
    print(
        f"[repro:{record['level']}] {record['logger']} {record['event']}: "
        f"{record['message']}{rendered_fields}",
        file=sys.stderr,
    )


class StructuredLogger:
    """A named logger writing structured records to the ring + stderr."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, message: str, **fields) -> dict:
        """Record one event; returns the appended record (with its seq)."""
        record = _append(
            {
                "ts": time.time(),
                "level": level,
                "logger": self.name,
                "event": event,
                "message": message,
                "fields": fields,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
            }
        )
        _emit_stderr(record)
        return record

    def info(self, event: str, message: str, **fields) -> dict:
        return self.log("info", event, message, **fields)

    def warning(self, event: str, message: str, **fields) -> dict:
        return self.log("warning", event, message, **fields)

    def warn_once(self, key: str, message: str, **fields) -> dict | None:
        """Emit a warning once per process for ``key``; later calls no-op.

        The key doubles as the record's ``event`` so artifacts show *which*
        once-guard fired, independent of the message text.
        """
        with _lock:
            if key in _once_keys:
                return None
            _once_keys.add(key)
        return self.warning(key, message, **fields)


def get_logger(name: str) -> StructuredLogger:
    """A structured logger for ``name`` (dotted module-style names)."""
    return StructuredLogger(name)
