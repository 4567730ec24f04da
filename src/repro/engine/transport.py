"""The shard wire protocol and deterministic fault injection.

:func:`send_message` / :func:`recv_message`
    The wire protocol of the lease broker (:mod:`repro.engine.broker`): an
    8-byte big-endian length prefix followed by a pickle of the payload.
    Frames above :data:`MAX_MESSAGE_BYTES` (or a connection closing
    mid-frame) raise :class:`~repro.exceptions.TransportError` instead of
    feeding garbage to the unpickler.  When a ``key`` is given
    (``REPRO_SHARD_KEY``, resolved by :func:`resolve_shard_key`), every
    frame additionally carries two HMAC-SHA256 digests — one over the
    length header (verified before the length is trusted), one over header
    + payload (verified before the payload is unpickled) — and any mismatch
    raises :class:`~repro.exceptions.AuthenticationError` **before** the
    unpickler ever sees a byte.  **Trust boundary:** pickle executes code
    on load, so HMAC framing authenticates *who sent* a frame but does not
    make hostile payloads safe; leaving ``REPRO_SHARD_KEY`` unset is a
    deliberate opt-out for localhost testing only.

:class:`FaultInjectingExecutor`
    Deterministic, seed-driven fault wrapper around any executor: a
    configured fraction of chunks is dropped (result discarded, chunk
    re-executed), errored (same, counted separately), duplicated (delivered
    twice — the engine must drop the second copy) or delayed (delivery
    reordered).  Because every chunk is a pure function of its task, rows
    stay bit-identical under any fault pattern that eventually delivers
    every chunk — which is exactly what tests and the CI smoke assert,
    without needing real flaky hosts.

Environment wiring:

``REPRO_SHARD_FAULTS``
    Fault spec, e.g. ``drop=0.2,duplicate=0.1,seed=7`` — wraps whichever
    executor :func:`repro.engine.executors.resolve_shard_executor` resolved
    by name.
``REPRO_SHARD_KEY``
    Shared HMAC secret; when set (on *both* ends), every frame is
    authenticated before unpickling.  Unset = localhost-testing opt-out.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import socket
import struct
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.engine.executors import ShardExecutor
from repro.exceptions import AuthenticationError, EngineError, TransportError
from repro.obs.metrics import counter_add

__all__ = [
    "MAX_MESSAGE_BYTES",
    "send_message",
    "recv_message",
    "frame_bytes",
    "resolve_shard_key",
    "parse_hostport",
    "FaultInjectingExecutor",
    "FAULT_KINDS",
    "parse_fault_spec",
    "wrap_faults_from_env",
    "ENV_SHARD_FAULTS",
    "ENV_SHARD_KEY",
]

ENV_SHARD_FAULTS = "REPRO_SHARD_FAULTS"
ENV_SHARD_KEY = "REPRO_SHARD_KEY"

#: Sentinel distinguishing "no key given, read the environment" from an
#: explicit ``None`` (= run unauthenticated regardless of the environment).
_KEY_FROM_ENV = object()

#: Frame size ceiling: a corrupt or malicious length prefix must fail the
#: connection, not attempt a multi-terabyte allocation.
MAX_MESSAGE_BYTES = 1 << 30

_HEADER = struct.Struct("!Q")


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
#: HMAC-SHA256 digest length; two per authenticated frame (header + payload).
DIGEST_BYTES = hashlib.sha256().digest_size

#: Domain separators so a header digest can never be replayed as a payload
#: digest (and vice versa) under the same key.
_HDR_DOMAIN = b"repro-shard-hdr"
_MSG_DOMAIN = b"repro-shard-msg"


def resolve_shard_key() -> bytes | None:
    """The frame-authentication key from ``REPRO_SHARD_KEY``.

    ``None`` (unset or blank) means frames travel unauthenticated — the
    documented opt-out for localhost testing, where every peer is this
    machine.  Any non-empty value is used verbatim (UTF-8) as the HMAC
    secret; both ends must agree on it.
    """
    raw = os.environ.get(ENV_SHARD_KEY, "").strip()
    return raw.encode("utf-8") if raw else None


def _digest(key: bytes, domain: bytes, data: bytes) -> bytes:
    return hmac.new(key, domain + data, hashlib.sha256).digest()


def frame_bytes(payload: Any, key: bytes | None = None) -> bytes:
    """Serialize one frame: length header, optional HMAC digests, pickle.

    Unauthenticated frames are ``header | payload``.  With a key they are
    ``header | HMAC(hdr) | payload | HMAC(header + payload)``: the header
    digest lets the receiver verify the claimed length *before* allocating
    or reading payload bytes based on it, and the payload digest is checked
    before any unpickling.  Exposed for tests (bit-flip properties).
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_MESSAGE_BYTES:
        raise TransportError(
            f"message of {len(data)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte frame limit"
        )
    header = _HEADER.pack(len(data))
    if key is None:
        return header + data
    return (
        header
        + _digest(key, _HDR_DOMAIN, header)
        + data
        + _digest(key, _MSG_DOMAIN, header + data)
    )


def send_message(sock: socket.socket, payload: Any, key: bytes | None = None) -> None:
    """Write one (optionally authenticated) frame to ``sock``."""
    sock.sendall(frame_bytes(payload, key))


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    buffer = bytearray()
    while len(buffer) < length:
        chunk = sock.recv(length - len(buffer))
        if not chunk:
            raise TransportError(
                f"connection closed after {len(buffer)} of {length} expected bytes"
            )
        buffer += chunk
    return bytes(buffer)


def recv_message(sock: socket.socket, key: bytes | None = None) -> Any:
    """Read one frame from ``sock``; verify HMAC before unpickling when keyed.

    With a key, *any* flipped bit in the frame — header, digest, or payload
    — raises :class:`~repro.exceptions.AuthenticationError` and the payload
    is never handed to the unpickler.  The header digest is checked first,
    so a tampered length can neither trigger a giant allocation nor
    desynchronize the stream read.
    """
    header = _recv_exact(sock, _HEADER.size)
    if key is not None:
        hdr_digest = _recv_exact(sock, DIGEST_BYTES)
        if not hmac.compare_digest(hdr_digest, _digest(key, _HDR_DOMAIN, header)):
            counter_add("transport.auth_failures")
            raise AuthenticationError(
                "frame header failed HMAC verification — tampered frame, key "
                "mismatch, or unauthenticated peer"
            )
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise TransportError(
            f"incoming frame claims {length} bytes, above the "
            f"{MAX_MESSAGE_BYTES}-byte limit — corrupt or hostile peer"
        )
    data = _recv_exact(sock, length)
    if key is not None:
        msg_digest = _recv_exact(sock, DIGEST_BYTES)
        if not hmac.compare_digest(msg_digest, _digest(key, _MSG_DOMAIN, header + data)):
            counter_add("transport.auth_failures")
            raise AuthenticationError(
                "frame payload failed HMAC verification — tampered in transit "
                "or keyed with a different REPRO_SHARD_KEY"
            )
    try:
        return pickle.loads(data)
    except Exception as error:  # an authenticated-or-trusted but corrupt pickle
        raise TransportError(f"failed to unpickle frame payload: {error}") from error


def parse_hostport(value: str) -> tuple[str, int]:
    """Split ``"host:port"`` into ``(host, port)``, validating the port."""
    host, sep, port_text = str(value).strip().rpartition(":")
    if not sep or not host:
        raise EngineError(f"shard host must be HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError as error:
        raise EngineError(f"shard host port must be an integer, got {value!r}") from error
    if not 0 <= port <= 65535:
        raise EngineError(f"shard host port out of range in {value!r}")
    return host, port


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------
#: Recognised fault kinds, in cumulative-threshold order.
FAULT_KINDS = ("drop", "delay", "duplicate", "error")


def _indexed_call(payload: tuple) -> tuple[int, Any]:
    """Run one ``(index, fn, task)`` item; module-level so it pickles."""
    index, fn, task = payload
    return index, fn(task)


class FaultInjectingExecutor(ShardExecutor):
    """Wrap any executor and deterministically misdeliver a fraction of chunks.

    Fault assignment depends only on ``(seed, task count, submission
    index)`` — never on timing or arrival order — so a given configuration
    produces the same fault pattern on every run:

    * ``drop`` — the delivered result (and its observability payload) is
      discarded and the chunk re-executed through the inner executor, like
      a response lost in transit;
    * ``error`` — identical recovery path, counted separately (a worker
      that raised transiently rather than a frame that vanished);
    * ``duplicate`` — the result is delivered twice; the consumer's
      duplicate guard must drop the copy;
    * ``delay`` — delivery is held back behind up to ``delay_window``
      later results, forcing out-of-order consumption.

    Every chunk is a pure function of its task, so rows stay bit-identical
    to the unfaulted run for any mix of these.
    """

    name = "fault-injecting"

    def __init__(
        self,
        inner: ShardExecutor,
        seed: int = 0,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        error: float = 0.0,
        delay_window: int = 3,
    ) -> None:
        if not isinstance(inner, ShardExecutor):
            raise EngineError(
                f"FaultInjectingExecutor wraps a ShardExecutor, got {type(inner).__name__}"
            )
        fractions = {"drop": drop, "delay": delay, "duplicate": duplicate, "error": error}
        for kind, fraction in fractions.items():
            if not 0.0 <= fraction <= 1.0:
                raise EngineError(f"fault fraction {kind} must be in [0, 1], got {fraction}")
        if sum(fractions.values()) > 1.0:
            raise EngineError(
                f"fault fractions must sum to <= 1, got {sum(fractions.values())}"
            )
        if delay_window < 1:
            raise EngineError(f"delay_window must be >= 1, got {delay_window}")
        self._inner = inner
        # An instance attribute shadows the class default so provenance and
        # planner entries name both layers.
        self.name = f"fault({inner.name})"
        self.seed = int(seed)
        self.fractions = fractions
        self.delay_window = int(delay_window)
        self._counts = {kind: 0 for kind in FAULT_KINDS}
        self._retries = 0

    def _assign_faults(self, num_tasks: int) -> list[str | None]:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, num_tasks)))
        draws = rng.random(num_tasks)
        faults: list[str | None] = []
        for draw in draws:
            threshold = 0.0
            fault = None
            for kind in FAULT_KINDS:
                threshold += self.fractions[kind]
                if draw < threshold:
                    fault = kind
                    break
            faults.append(fault)
        return faults

    def _reexecute(self, fn: Callable, index: int, task: Any) -> Any:
        """Run one chunk again through the inner executor (the retry path).

        The inner run is drained, not abandoned at its first result, so it
        finishes like any batch: a broker run reads its ``done`` frame and
        the counters it carries.
        """
        self._retries += 1
        counter_add("transport.fault_retries")
        results = [result for _, result in self._inner.run(_indexed_call, [(index, fn, task)])]
        if not results:
            raise TransportError(f"inner executor returned no result re-executing chunk {index}")
        return results[0]

    def run(self, fn: Callable, tasks: Sequence) -> Iterator[Any]:
        tasks = list(tasks)
        if not tasks:
            return
        faults = self._assign_faults(len(tasks))
        delayed: list = []
        indexed = [(index, fn, task) for index, task in enumerate(tasks)]
        for index, result in self._inner.run(_indexed_call, indexed):
            fault = faults[index]
            if fault is not None:
                self._counts[fault] += 1
                counter_add(f"transport.faults.{fault}")
            if fault is None:
                yield result
            elif fault == "duplicate":
                yield result
                yield result
            elif fault == "delay":
                delayed.append(result)
                if len(delayed) > self.delay_window:
                    yield delayed.pop(0)
            else:  # drop / error: first attempt lost, recover by re-execution
                yield self._reexecute(fn, index, tasks[index])
        while delayed:
            yield delayed.pop(0)

    def close(self) -> None:
        self._inner.close()

    def provenance(self) -> dict:
        provenance = {
            "executor": self.name,
            "seed": self.seed,
            "faults": dict(self._counts),
            "fault_retries": self._retries,
        }
        inner = self._inner.provenance()
        if inner:
            provenance["inner"] = inner
        return provenance


# ---------------------------------------------------------------------------
# Environment wiring
# ---------------------------------------------------------------------------
def parse_fault_spec(spec: str) -> dict:
    """Parse ``REPRO_SHARD_FAULTS`` (``drop=0.2,duplicate=0.1,seed=7``).

    Keys: the four fault kinds (float fractions), ``seed`` and
    ``delay_window`` (ints).  Returns keyword arguments for
    :class:`FaultInjectingExecutor`.
    """
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        if not sep:
            raise EngineError(
                f"fault spec entries must be key=value, got {part!r} in {spec!r}"
            )
        try:
            if key in FAULT_KINDS:
                kwargs[key] = float(value)
            elif key in ("seed", "delay_window"):
                kwargs[key] = int(value)
            else:
                raise EngineError(
                    f"unknown fault spec key {key!r}; expected one of "
                    f"{FAULT_KINDS + ('seed', 'delay_window')}"
                )
        except ValueError as error:
            raise EngineError(f"bad fault spec value in {part!r}") from error
    return kwargs


def wrap_faults_from_env(executor: ShardExecutor) -> ShardExecutor:
    """Wrap ``executor`` per ``REPRO_SHARD_FAULTS`` (identity when unset)."""
    spec = os.environ.get(ENV_SHARD_FAULTS, "").strip()
    if not spec:
        return executor
    return FaultInjectingExecutor(executor, **parse_fault_spec(spec))
