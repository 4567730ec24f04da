"""The multi-node shard transport: a lease broker, pull workers, heartbeats.

No run dials a worker.  One broker owns the chunk queue and workers
*pull* from it, so a run needs no worker addresses, workers may join late
or leave early, and a wedged-but-connected worker is caught by its lease,
not by a socket timeout:

:class:`ShardBroker`
    A TCP service (``repro shard-broker --listen HOST:PORT``) that owns
    the chunk queue.  Drivers **submit** batches; workers **pull** chunks.
    A worker's ``next`` that finds the queue empty is held until a chunk is
    queued or the hold (a tenth of the heartbeat, 20 ms to 0.5 s) runs
    out, so a submitted batch starts at once on an idle worker.  Every
    chunk handed to a worker carries a **lease** (TTL = 3x the heartbeat
    interval); the worker renews it with heartbeat frames while
    computing.  An expired lease — a wedged worker — or a disconnect — a
    dead one — re-queues the chunk for any live worker.  Because the
    engine's reduction tree drops duplicate chunk deliveries, this
    at-least-once re-issue keeps rows bit-identical to a serial run even
    when a "lost" worker turns out to be merely slow and its result lands
    after the re-issued copy's.

:class:`BrokerWorker`
    The client side of ``repro shard-worker --broker HOST:PORT``:
    registers on connect, pulls chunks with ``next`` requests that the
    broker holds until one is queued, heartbeats while computing, ships
    results (or the task's error) back.  ``max_chunks`` is the
    deterministic failure knob: the worker computes that many chunks, then
    dies abruptly *while holding its next lease* — exactly the failure the
    lease machinery exists to absorb.

:class:`BrokerExecutor`
    The engine-facing :class:`~repro.engine.executors.ShardExecutor`
    (``REPRO_SHARD_EXECUTOR=broker``).  Connects to a running broker
    (``REPRO_SHARD_BROKER=host:port``) or embeds one in the driver process
    (``REPRO_SHARD_BROKER_LISTEN=host:port``) for workers to join.
    Graceful degradation: if no worker registers within
    ``REPRO_SHARD_JOIN_DEADLINE`` seconds (default 10), it warns once
    through :mod:`repro.obs.logs` and runs the batch on its fallback
    executor (process pool, or serial at ``max_workers=1``) instead of
    hanging.

All frames ride the authenticated wire protocol of
:mod:`repro.engine.transport`: with ``REPRO_SHARD_KEY`` set on every peer,
each frame's HMAC-SHA256 digests are verified before unpickling; without
it (localhost testing) frames travel unauthenticated.

Environment wiring (every timing must be a finite number of seconds)::

    REPRO_SHARD_BROKER         connect the executor to a running broker
    REPRO_SHARD_BROKER_LISTEN  embed a broker in the driver at this address
    REPRO_SHARD_HEARTBEAT      lease heartbeat interval, seconds (default 2)
    REPRO_SHARD_JOIN_DEADLINE  max wait for the first worker (default 10)
    REPRO_SHARD_TIMEOUT        executor's recv timeout, seconds (default 60)
    REPRO_SHARD_FAULTS         wrap the executor in a fault injector (testing)
    REPRO_SHARD_KEY            shared HMAC secret (unset = unauthenticated)
"""

from __future__ import annotations

import math
import os
import queue as _queue
import socket
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.engine.executors import (
    ProcessPoolShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
)
from repro.engine.transport import (
    _KEY_FROM_ENV,
    parse_hostport,
    recv_message,
    resolve_shard_key,
    send_message,
)
from repro.exceptions import (
    AuthenticationError,
    EngineError,
    HostUnavailableError,
    TransportError,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import counter_add

__all__ = [
    "ShardBroker",
    "BrokerWorker",
    "BrokerExecutor",
    "broker_executor_from_env",
    "DEFAULT_HEARTBEAT_SECONDS",
    "DEFAULT_JOIN_DEADLINE_SECONDS",
    "ENV_SHARD_BROKER",
    "ENV_SHARD_BROKER_LISTEN",
    "ENV_SHARD_HEARTBEAT",
    "ENV_SHARD_JOIN_DEADLINE",
    "ENV_SHARD_TIMEOUT",
]

ENV_SHARD_BROKER = "REPRO_SHARD_BROKER"
ENV_SHARD_BROKER_LISTEN = "REPRO_SHARD_BROKER_LISTEN"
ENV_SHARD_HEARTBEAT = "REPRO_SHARD_HEARTBEAT"
ENV_SHARD_JOIN_DEADLINE = "REPRO_SHARD_JOIN_DEADLINE"
ENV_SHARD_TIMEOUT = "REPRO_SHARD_TIMEOUT"

DEFAULT_HEARTBEAT_SECONDS = 2.0
DEFAULT_JOIN_DEADLINE_SECONDS = 10.0
DEFAULT_TIMEOUT_SECONDS = 60.0

#: A lease survives this many missed heartbeats before its chunk re-issues.
LEASE_TTL_HEARTBEATS = 3

_logger = get_logger("repro.engine.broker")


def _seconds(name: str, value: float, allow_zero: bool = False) -> float:
    """``value`` as seconds: finite and > 0 (>= 0 with ``allow_zero``).

    NaN and infinity are rejected, not just non-positive values: a NaN
    join deadline never passes (``monotonic() >= nan`` is always false), a
    NaN lease never holds (so every chunk re-issues at every scan), and an
    infinite timing never ends.
    """
    value = float(value)
    if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise EngineError(f"{name} must be a finite number {bound}, got {value}")
    return value


def _env_seconds(name: str, default: float, allow_zero: bool = False) -> float:
    """Environment variable ``name`` checked by :func:`_seconds` (``default`` when unset)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as error:
        raise EngineError(f"{name} must be a number, got {raw!r}") from error
    return _seconds(name, value, allow_zero)


class _Batch:
    """One submitted chunk batch: its tasks, completions, and delivery queue."""

    __slots__ = ("batch_id", "fn", "tasks", "completed", "deliveries", "cancelled")

    def __init__(self, batch_id: int, fn: Callable, tasks: list) -> None:
        self.batch_id = batch_id
        self.fn = fn
        self.tasks = tasks
        self.completed: set[int] = set()
        self.deliveries: _queue.Queue = _queue.Queue()
        self.cancelled = False


# ---------------------------------------------------------------------------
# Broker service
# ---------------------------------------------------------------------------
class ShardBroker:
    """Owns the chunk queue; workers pull, drivers submit, leases expire.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`address`).
    heartbeat:
        Lease heartbeat interval in seconds; defaults to
        ``REPRO_SHARD_HEARTBEAT`` (2s).  A chunk's lease TTL is
        :data:`LEASE_TTL_HEARTBEATS` times this — a worker that misses
        that many heartbeats forfeits the chunk.  An idle worker's ``next``
        is held for a tenth of it (20 ms to 0.5 s) before ``wait`` answers.
    auth_key:
        HMAC secret; defaults to ``REPRO_SHARD_KEY`` from the environment
        (``None`` when unset — the localhost opt-out).  Frames failing
        verification drop their connection without ever being unpickled.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat: float | None = None,
        auth_key: "bytes | None" = _KEY_FROM_ENV,  # type: ignore[assignment]
    ) -> None:
        self.heartbeat = (
            _env_seconds(ENV_SHARD_HEARTBEAT, DEFAULT_HEARTBEAT_SECONDS)
            if heartbeat is None
            else _seconds("heartbeat", heartbeat)
        )
        self.lease_ttl = LEASE_TTL_HEARTBEATS * self.heartbeat
        # How long an idle worker's ``next`` waits for a chunk: one round
        # trip per hold while idle, floored so a tiny test heartbeat does not
        # spin, capped so SIGTERM reaches an idle worker within 0.5 s.
        self._hold = max(0.02, min(self.heartbeat / 10.0, 0.5))
        self._auth_key = resolve_shard_key() if auth_key is _KEY_FROM_ENV else auth_key
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._lock = threading.Lock()
        #: Notified whenever chunks join the queue, and on stop.
        self._work = threading.Condition(self._lock)
        self._closed = threading.Event()
        self._connections: set[socket.socket] = set()
        self._queue: deque[int] = deque()
        #: chunk id -> (batch, task index); removed when its batch ends.
        self._chunks: dict[int, tuple[_Batch, int]] = {}
        #: chunk id -> [worker id, lease deadline (monotonic)].
        self._leases: dict[int, list] = {}
        self._batches: dict[int, _Batch] = {}
        self._active_batches = 0
        self._next_chunk_id = 0
        self._next_worker_id = 0
        self._next_batch_id = 0
        self._workers_alive = 0
        self._stats = {
            "batches": 0,
            "chunks_completed": 0,
            "duplicate_results": 0,
            "heartbeats": 0,
            "leases_issued": 0,
            "leases_reissued": 0,
            "workers_joined": 0,
            "workers_left": 0,
        }
        self._scanner: threading.Thread | None = None
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        """The bound ``host:port`` (resolves ``port=0`` to the real port)."""
        return f"{self.host}:{self.port}"

    def stats(self) -> dict:
        """Lifetime counters plus live gauges (workers / queued / leases)."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["workers"] = self._workers_alive
            snapshot["queued_chunks"] = len(self._queue)
            snapshot["held_leases"] = len(self._leases)
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardBroker":
        """Serve in a background thread (tests, embed mode); returns self."""
        self._start_scanner()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` (CLI foreground)."""
        self._start_scanner()
        self._accept_loop()

    def _start_scanner(self) -> None:
        if self._scanner is None:
            self._scanner = threading.Thread(target=self._scan_leases, daemon=True)
            self._scanner.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._server.accept()
            except OSError:
                break
            thread = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            thread.start()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, let active batches finish, stop.

        The SIGTERM/SIGINT path of ``repro shard-broker``: new connections
        are refused immediately, in-flight batches run to completion (their
        workers and drivers are already connected), then everything closes.
        """
        try:
            self._server.close()
        except OSError:
            pass
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if self._active_batches == 0:
                    break
            time.sleep(0.01)
        self.stop()

    def stop(self) -> None:
        """Stop accepting and sever every open connection (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
            self._work.notify_all()
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Lease machinery
    # ------------------------------------------------------------------
    def _scan_leases(self) -> None:
        # Tick well inside the TTL so expiry latency is a fraction of it;
        # floor keeps a tiny test heartbeat from busy-spinning.
        tick = max(0.02, min(self.lease_ttl / 4.0, 0.5))
        while not self._closed.wait(tick):
            now = time.monotonic()
            reissued = 0
            with self._lock:
                for chunk_id, (_, deadline) in list(self._leases.items()):
                    if deadline > now:
                        continue
                    del self._leases[chunk_id]
                    reissued += self._requeue_locked(chunk_id)
            for _ in range(reissued):
                counter_add("broker.leases_reissued")
            if reissued:
                _logger.warning(
                    "lease-expired",
                    f"re-issued {reissued} expired chunk lease(s) "
                    f"(ttl {self.lease_ttl:.1f}s)",
                )

    def _requeue_locked(self, chunk_id: int) -> int:
        """Re-queue a forfeited chunk (caller holds the lock); 1 if re-issued."""
        meta = self._chunks.get(chunk_id)
        if meta is None:
            return 0
        batch, _ = meta
        if batch.cancelled or chunk_id in batch.completed:
            return 0
        # Front of the queue: a re-issued chunk is the batch's straggler.
        self._queue.appendleft(chunk_id)
        self._stats["leases_reissued"] += 1
        self._work.notify()
        return 1

    def _lease_next(self, worker_id: int):
        """Lease the next live chunk, waiting up to the hold for one to be queued.

        None when the hold runs out, or the broker stops, with no chunk to give.
        """
        give_up = time.monotonic() + self._hold
        with self._work:
            while True:
                while self._queue:
                    chunk_id = self._queue.popleft()
                    meta = self._chunks.get(chunk_id)
                    if meta is None:
                        continue
                    batch, task_index = meta
                    if batch.cancelled or chunk_id in batch.completed:
                        continue
                    deadline = time.monotonic() + self.lease_ttl
                    self._leases[chunk_id] = [worker_id, deadline]
                    self._stats["leases_issued"] += 1
                    return chunk_id, batch.fn, batch.tasks[task_index]
                remaining = give_up - time.monotonic()
                if remaining <= 0 or self._closed.is_set():
                    return None
                self._work.wait(remaining)

    def _renew(self, chunk_id: int, worker_id: int) -> None:
        with self._lock:
            lease = self._leases.get(chunk_id)
            if lease is not None and lease[0] == worker_id:
                lease[1] = time.monotonic() + self.lease_ttl
                self._stats["heartbeats"] += 1

    def _complete(self, chunk_id: int, result: Any) -> None:
        with self._lock:
            self._leases.pop(chunk_id, None)
            meta = self._chunks.get(chunk_id)
            if meta is None:
                return
            batch, _ = meta
            if batch.cancelled:
                return
            if chunk_id in batch.completed:
                # A late delivery from a forfeited lease whose re-issue
                # already finished — at-least-once's duplicate, dropped here
                # (and again by the engine's tree had it slipped through).
                self._stats["duplicate_results"] += 1
                return
            batch.completed.add(chunk_id)
            self._stats["chunks_completed"] += 1
            # Deliveries enqueue under the lock so "done" can never overtake
            # a result still in another worker thread's hands.
            batch.deliveries.put(("result", result))
            if len(batch.completed) == len(batch.tasks):
                batch.deliveries.put(("done",))
        counter_add("broker.chunks_completed")

    def _fail(self, chunk_id: int, message: str) -> None:
        with self._lock:
            self._leases.pop(chunk_id, None)
            meta = self._chunks.get(chunk_id)
            if meta is None:
                return
            batch, _ = meta
            if batch.cancelled:
                return
            batch.deliveries.put(("task-error", message))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.add(conn)
        try:
            while not self._closed.is_set():
                message = recv_message(conn, self._auth_key)
                op = message[0]
                if op == "register":
                    self._worker_loop(conn)
                    return
                if op == "submit":
                    self._driver_loop(conn, message)
                    return
                if op == "status":
                    send_message(conn, ("status", self.stats()), self._auth_key)
                elif op == "ping":
                    send_message(conn, ("pong", os.getpid()), self._auth_key)
                else:
                    send_message(conn, ("error", f"unknown op {op!r}"), self._auth_key)
        except AuthenticationError as error:
            _logger.warning(
                "auth-failure",
                f"rejected unauthenticated frame: {error}",
                address=self.address,
            )
        except (TransportError, OSError):
            pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _worker_loop(self, conn: socket.socket) -> None:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            self._workers_alive += 1
            self._stats["workers_joined"] += 1
        counter_add("broker.workers_joined")
        send_message(conn, ("registered", worker_id, self.heartbeat), self._auth_key)
        held: set[int] = set()
        try:
            while not self._closed.is_set():
                message = recv_message(conn, self._auth_key)
                op = message[0]
                if op == "next":
                    chunk = self._lease_next(worker_id)
                    if chunk is None:
                        send_message(conn, ("wait",), self._auth_key)
                    else:
                        chunk_id, fn, task = chunk
                        held.add(chunk_id)
                        send_message(conn, ("chunk", chunk_id, fn, task), self._auth_key)
                elif op == "heartbeat":
                    # Fire-and-forget by design: no reply, so the worker's
                    # heartbeat pump never races its main loop for replies.
                    self._renew(message[1], worker_id)
                elif op == "result":
                    self._complete(message[1], message[2])
                    held.discard(message[1])
                    send_message(conn, ("ok",), self._auth_key)
                elif op == "task-error":
                    self._fail(message[1], message[2])
                    held.discard(message[1])
                    send_message(conn, ("ok",), self._auth_key)
                else:
                    send_message(conn, ("error", f"unknown op {op!r}"), self._auth_key)
        except AuthenticationError as error:
            _logger.warning(
                "auth-failure",
                f"rejected unauthenticated frame: {error}",
                address=self.address,
            )
        except (TransportError, OSError):
            pass
        finally:
            reissued = 0
            with self._lock:
                self._workers_alive -= 1
                self._stats["workers_left"] += 1
                # A dead worker forfeits its leases immediately — no need to
                # wait out the TTL when the disconnect is already visible.
                for chunk_id in held:
                    lease = self._leases.get(chunk_id)
                    if lease is None or lease[0] != worker_id:
                        continue
                    del self._leases[chunk_id]
                    reissued += self._requeue_locked(chunk_id)
            counter_add("broker.workers_left")
            for _ in range(reissued):
                counter_add("broker.leases_reissued")
            if reissued:
                _logger.warning(
                    "worker-lost",
                    f"worker {worker_id} disconnected holding {reissued} "
                    f"lease(s); chunks re-issued",
                )

    def _driver_loop(self, conn: socket.socket, message: tuple) -> None:
        _, fn, tasks = message
        with self._lock:
            batch = _Batch(self._next_batch_id, fn, list(tasks))
            self._next_batch_id += 1
            self._batches[batch.batch_id] = batch
            self._active_batches += 1
            self._stats["batches"] += 1
            for task_index in range(len(batch.tasks)):
                chunk_id = self._next_chunk_id
                self._next_chunk_id += 1
                self._chunks[chunk_id] = (batch, task_index)
                self._queue.append(chunk_id)
            self._work.notify(len(batch.tasks))
            if not batch.tasks:
                batch.deliveries.put(("done",))
        try:
            while not self._closed.is_set():
                try:
                    item = batch.deliveries.get(timeout=0.25)
                except _queue.Empty:
                    continue
                kind = item[0]
                if kind == "result":
                    send_message(conn, ("result", item[1]), self._auth_key)
                elif kind == "task-error":
                    send_message(conn, ("task-error", item[1]), self._auth_key)
                    return
                else:  # done: every chunk delivered exactly once
                    send_message(conn, ("done", self.stats()), self._auth_key)
                    return
        except (TransportError, OSError):
            return
        finally:
            self._cancel_batch(batch)

    def _cancel_batch(self, batch: _Batch) -> None:
        """End a batch: queued chunks evaporate, late results are ignored."""
        with self._lock:
            batch.cancelled = True
            self._active_batches -= 1
            self._batches.pop(batch.batch_id, None)
            for chunk_id in [
                cid for cid, (owner, _) in self._chunks.items() if owner is batch
            ]:
                del self._chunks[chunk_id]
                self._leases.pop(chunk_id, None)


# ---------------------------------------------------------------------------
# Pull worker (``repro shard-worker --broker``)
# ---------------------------------------------------------------------------
class BrokerWorker:
    """Registers with a broker and pulls chunks until stopped.

    The broker holds each ``next`` until a chunk is queued, so an idle
    worker starts a submitted batch at once.  A ``wait`` reply only means
    the hold ran out, and the worker asks again straight away: one round
    trip per hold while idle.

    Parameters
    ----------
    broker:
        ``host:port`` of the broker to join.
    heartbeat:
        Override the lease-renewal interval; by default the worker adopts
        the broker's own interval from the registration reply, keeping
        both sides of the TTL contract in one place.
    max_chunks:
        Failure knob: compute this many chunks, then die abruptly while
        *holding* the next chunk's lease (no result, no clean close) — the
        broker must detect the disconnect and re-issue.
    delay:
        Sleep before computing each chunk (deterministic slow worker).
    connect_timeout:
        How long to keep retrying the initial connect (covers a worker
        started before its broker).
    auth_key:
        HMAC secret; defaults to ``REPRO_SHARD_KEY`` from the environment.
    """

    def __init__(
        self,
        broker: str,
        heartbeat: float | None = None,
        max_chunks: int | None = None,
        delay: float = 0.0,
        connect_timeout: float | None = None,
        auth_key: "bytes | None" = _KEY_FROM_ENV,  # type: ignore[assignment]
    ) -> None:
        self.broker_host, self.broker_port = parse_hostport(broker)
        if max_chunks is not None and max_chunks < 1:
            raise EngineError(f"max_chunks must be >= 1, got {max_chunks}")
        self._heartbeat_override = None if heartbeat is None else _seconds("heartbeat", heartbeat)
        self._max_chunks = max_chunks
        self._delay = _seconds("delay", delay, allow_zero=True)
        self._connect_timeout = (
            _env_seconds(ENV_SHARD_JOIN_DEADLINE, DEFAULT_JOIN_DEADLINE_SECONDS, allow_zero=True)
            if connect_timeout is None
            else _seconds("connect_timeout", connect_timeout, allow_zero=True)
        )
        self._auth_key = resolve_shard_key() if auth_key is _KEY_FROM_ENV else auth_key
        self._stop = threading.Event()
        self._send_lock = threading.Lock()
        self.chunks_done = 0
        self._received = 0

    def request_stop(self) -> None:
        """Graceful stop: finish the in-flight chunk, then disconnect.

        Signal-safe (only sets an event); the run loop exits after the
        current chunk's result is shipped.
        """
        self._stop.set()

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self._connect_timeout
        pause = 0.05
        while True:
            try:
                return socket.create_connection(
                    (self.broker_host, self.broker_port), timeout=30.0
                )
            except OSError as error:
                if time.monotonic() >= deadline or self._stop.is_set():
                    raise HostUnavailableError(
                        f"broker {self.broker_host}:{self.broker_port} unreachable "
                        f"after {self._connect_timeout:.0f}s: {error}"
                    ) from error
                time.sleep(pause)
                pause = min(pause * 2, 1.0)

    def _send(self, sock: socket.socket, payload: tuple) -> None:
        with self._send_lock:
            send_message(sock, payload, self._auth_key)

    def _pump_heartbeats(
        self, sock: socket.socket, chunk_id: int, interval: float, done: threading.Event
    ) -> None:
        while not done.wait(interval):
            if self._stop.is_set():
                return
            try:
                self._send(sock, ("heartbeat", chunk_id))
            except (TransportError, OSError):
                return

    def run_forever(self) -> None:
        """Pull and compute chunks until stopped or crashed-on-purpose.

        Returns normally on :meth:`request_stop`, an exhausted
        ``max_chunks`` budget, or the broker shutting down; raises
        :class:`~repro.exceptions.AuthenticationError` on a key mismatch
        (deterministic — reconnecting cannot help).
        """
        sock = self._connect()
        try:
            self._send(sock, ("register", f"worker-{os.getpid()}"))
            reply = recv_message(sock, self._auth_key)
            if reply[0] != "registered":
                raise TransportError(f"broker rejected registration: {reply!r}")
            interval = (
                float(reply[2]) if self._heartbeat_override is None
                else self._heartbeat_override
            )
            while not self._stop.is_set():
                self._send(sock, ("next",))
                reply = recv_message(sock, self._auth_key)
                if reply[0] == "wait":
                    continue
                if reply[0] != "chunk":
                    raise TransportError(f"unexpected broker reply {reply[0]!r}")
                _, chunk_id, fn, task = reply
                self._received += 1
                if self._max_chunks is not None and self._received > self._max_chunks:
                    # Simulated crash: exit holding the lease — no result, no
                    # goodbye.  The broker's disconnect path must re-issue.
                    return
                done = threading.Event()
                pump = threading.Thread(
                    target=self._pump_heartbeats,
                    args=(sock, chunk_id, interval, done),
                    daemon=True,
                )
                pump.start()
                try:
                    if self._delay:
                        time.sleep(self._delay)
                    try:
                        result = fn(task)
                    except Exception as error:  # noqa: BLE001 — shipped to the driver
                        done.set()
                        self._send(
                            sock,
                            ("task-error", chunk_id, f"{type(error).__name__}: {error}"),
                        )
                    else:
                        done.set()
                        self._send(sock, ("result", chunk_id, result))
                        self.chunks_done += 1
                    recv_message(sock, self._auth_key)  # the ("ok",) ack
                finally:
                    done.set()
                    pump.join(timeout=5.0)
        except AuthenticationError:
            raise
        except (TransportError, OSError):
            # Broker gone (shutdown or crash): a pull worker simply exits.
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Engine-facing executor
# ---------------------------------------------------------------------------
#: The broker's lifetime counters a :class:`BrokerExecutor` reports; none
#: ever decreases.
_LIFETIME_COUNTERS = (
    "workers_joined",
    "workers_left",
    "leases_issued",
    "leases_reissued",
    "chunks_completed",
    "duplicate_results",
    "heartbeats",
    "batches",
)


class BrokerExecutor(ShardExecutor):
    """Run shard chunks through a :class:`ShardBroker`'s pull workers.

    Exactly one of ``broker`` (connect to a running service) or ``listen``
    (embed a broker in this process for workers to join) must be given.
    When no worker registers within ``join_deadline`` seconds the batch
    runs on ``fallback`` instead — a warn-once, never a hang.

    ``timeout`` bounds every driver-side recv, so it must exceed the
    worst-case chunk compute time plus one lease re-issue cycle.
    """

    name = "broker"
    in_process = False

    def __init__(
        self,
        broker: str | None = None,
        listen: str | None = None,
        fallback: ShardExecutor | None = None,
        join_deadline: float | None = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        heartbeat: float | None = None,
        auth_key: "bytes | None" = _KEY_FROM_ENV,  # type: ignore[assignment]
    ) -> None:
        if (broker is None) == (listen is None):
            raise EngineError(
                "BrokerExecutor needs exactly one of broker=HOST:PORT "
                "(connect) or listen=HOST:PORT (embed)"
            )
        self.timeout = _seconds("timeout", timeout)
        self._auth_key = resolve_shard_key() if auth_key is _KEY_FROM_ENV else auth_key
        self._fallback = fallback if fallback is not None else SerialShardExecutor()
        self._join_deadline = (
            _env_seconds(ENV_SHARD_JOIN_DEADLINE, DEFAULT_JOIN_DEADLINE_SECONDS, allow_zero=True)
            if join_deadline is None
            else _seconds("join_deadline", join_deadline, allow_zero=True)
        )
        self._broker: ShardBroker | None = None
        if listen is not None:
            host, port = parse_hostport(listen)
            # Eager start so workers can join (and tests can read the bound
            # address) before the first batch arrives.
            self._broker = ShardBroker(
                host, port, heartbeat=heartbeat, auth_key=self._auth_key
            ).start()
            self._address = self._broker.address
        else:
            parse_hostport(broker)
            self._address = str(broker)
        self._stats_snapshot: dict = {}
        self._fell_back = False

    @property
    def address(self) -> str:
        """The broker's ``host:port`` (bound address in embed mode)."""
        return self._address

    @property
    def embedded_broker(self) -> ShardBroker | None:
        """The in-process broker when built with ``listen`` (else None)."""
        return self._broker

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        host, port = parse_hostport(self._address)
        sock = socket.create_connection((host, port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def _status(self) -> dict | None:
        """One status round-trip; None when the broker is not answering."""
        try:
            sock = self._connect()
        except OSError:
            return None
        try:
            send_message(sock, ("status",), self._auth_key)
            reply = recv_message(sock, self._auth_key)
        except AuthenticationError:
            raise  # a key mismatch must not masquerade as "no workers yet"
        except (TransportError, OSError):
            return None
        finally:
            try:
                sock.close()
            except OSError:
                pass
        return reply[1] if reply[0] == "status" else None

    def _await_workers(self) -> bool:
        deadline = time.monotonic() + self._join_deadline
        while True:
            status = self._status()
            if status is not None and status.get("workers", 0) >= 1:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    # ------------------------------------------------------------------
    def run(self, fn: Callable, tasks: Sequence) -> Iterator[Any]:
        tasks = list(tasks)
        if not tasks:
            return
        if not self._await_workers():
            self._fell_back = True
            counter_add("broker.fallbacks")
            _logger.warn_once(
                "broker-no-workers",
                f"no worker joined broker {self._address} within "
                f"{self._join_deadline:.0f}s; falling back to the "
                f"{self._fallback.name} executor",
                broker=self._address,
            )
            yield from self._fallback.run(fn, tasks)
            return
        sock = self._connect()
        try:
            send_message(sock, ("submit", fn, tasks), self._auth_key)
            delivered = 0
            while True:
                try:
                    reply = recv_message(sock, self._auth_key)
                except AuthenticationError:
                    raise
                except TimeoutError:
                    raise TransportError(
                        f"broker {self._address} idle for {self.timeout:.0f}s "
                        f"with {len(tasks) - delivered} chunks outstanding"
                    )
                except OSError as error:
                    raise TransportError(
                        f"broker {self._address} connection lost with "
                        f"{len(tasks) - delivered} chunks outstanding: {error}"
                    ) from error
                kind = reply[0]
                if kind == "result":
                    delivered += 1
                    yield reply[1]
                elif kind == "task-error":
                    raise TransportError(
                        f"task failed on a broker worker: {reply[1]}"
                    )
                elif kind == "done":
                    # A nested run (a fault re-execution) can read its done
                    # frame before an older one; the counters only grow, so
                    # each keeps its largest value.
                    for key in _LIFETIME_COUNTERS:
                        self._stats_snapshot[key] = max(
                            self._stats_snapshot.get(key, 0), int(reply[1].get(key, 0))
                        )
                    return
                else:
                    raise TransportError(f"unexpected broker frame {kind!r}")
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Stop the embedded broker (if any) and close the fallback."""
        if self._broker is not None:
            self._broker.stop()
        self._fallback.close()

    def provenance(self) -> dict:
        stats = self._broker.stats() if self._broker is not None else self._stats_snapshot
        provenance: dict = {"executor": self.name, "broker": self._address}
        for key in _LIFETIME_COUNTERS:
            provenance[key] = int(stats.get(key, 0))
        if self._fell_back:
            provenance["fallbacks"] = 1
            inner = {"executor": self._fallback.name}
            inner.update(self._fallback.provenance())
            provenance["fallback"] = inner
        return provenance


def broker_executor_from_env(pool=None) -> BrokerExecutor:
    """Build a :class:`BrokerExecutor` from the environment.

    ``REPRO_SHARD_BROKER`` selects connect mode, ``REPRO_SHARD_BROKER_LISTEN``
    embed mode; exactly one must be set (both validated eagerly with
    :func:`~repro.engine.transport.parse_hostport`, naming the bad entry).
    The no-worker fallback is a process-pool executor when the engine hands
    over its pool, serial otherwise.
    """
    broker = os.environ.get(ENV_SHARD_BROKER, "").strip()
    listen = os.environ.get(ENV_SHARD_BROKER_LISTEN, "").strip()
    if bool(broker) == bool(listen):
        raise EngineError(
            f"shard executor 'broker' requires exactly one of "
            f"{ENV_SHARD_BROKER}=host:port (connect to a running broker) or "
            f"{ENV_SHARD_BROKER_LISTEN}=host:port (embed one in this process)"
        )
    for env_name, value in ((ENV_SHARD_BROKER, broker), (ENV_SHARD_BROKER_LISTEN, listen)):
        if value:
            try:
                parse_hostport(value)
            except EngineError as error:
                raise EngineError(f"{env_name} entry {value!r} is invalid: {error}") from error
    fallback: ShardExecutor = (
        ProcessPoolShardExecutor(pool) if pool is not None else SerialShardExecutor()
    )
    return BrokerExecutor(
        broker=broker or None,
        listen=listen or None,
        fallback=fallback,
        timeout=_env_seconds(ENV_SHARD_TIMEOUT, DEFAULT_TIMEOUT_SECONDS),
    )
