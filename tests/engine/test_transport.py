"""Shard transport tests: the wire protocol, fault injection, authentication.

The acceptance property mirrors the executor suite's: *how badly the
transport misbehaved on the way must be invisible in the results*.
Injected drops, duplicates and delays still deliver every chunk, through
the serial executor and through the lease broker; what the transport *did*
(faults, re-executions) is visible in provenance, never in the results.
Frames keyed with ``REPRO_SHARD_KEY`` are verified before unpickling, so a
worker without the broker's key never registers.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine.broker import (
    DEFAULT_HEARTBEAT_SECONDS,
    BrokerExecutor,
    BrokerWorker,
    ShardBroker,
)
from repro.engine.executors import SerialShardExecutor, resolve_shard_executor
from repro.engine.transport import (
    ENV_SHARD_FAULTS,
    FaultInjectingExecutor,
    parse_fault_spec,
    parse_hostport,
    recv_message,
    send_message,
)
from repro.exceptions import EngineError, TransportError
from repro.quantum.device import get_device


# Module-level so tasks ship to workers by reference.
def _double(task):
    return task * 2


def _start_worker(broker: ShardBroker, **kwargs) -> BrokerWorker:
    """One pull worker in a daemon thread; it exits when the broker stops."""
    worker = BrokerWorker(broker.address, **kwargs)
    threading.Thread(target=worker.run_forever, daemon=True).start()
    return worker


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            payload = {"words": [1, 2, 3], "nested": ("a", None)}
            send_message(left, payload)
            assert recv_message(right) == payload
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!Q", 100) + b"short")
            left.close()
            with pytest.raises(TransportError, match="connection closed"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_frame_claim_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!Q", 1 << 40))
            with pytest.raises(TransportError, match="frame claims"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_hostport(self):
        assert parse_hostport("worker-3:7641") == ("worker-3", 7641)
        assert parse_hostport(" 127.0.0.1:0 ") == ("127.0.0.1", 0)
        for bad in ("no-port", ":7641", "host:notaport", "host:70000"):
            with pytest.raises(EngineError):
                parse_hostport(bad)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------
class TestFaultInjection:
    def test_every_kind_still_delivers_every_chunk(self):
        executor = FaultInjectingExecutor(
            SerialShardExecutor(), seed=3, drop=0.25, delay=0.25, duplicate=0.2, error=0.1
        )
        results = list(executor.run(_double, list(range(40))))
        counts = executor.provenance()["faults"]
        assert sum(counts.values()) > 0, "fractions this high must inject something"
        # Duplicates add deliveries; nothing is ever missing.
        assert len(results) == 40 + counts["duplicate"]
        assert sorted(set(results)) == [2 * value for value in range(40)]

    def test_fault_pattern_is_deterministic(self):
        def tally():
            executor = FaultInjectingExecutor(
                SerialShardExecutor(), seed=11, drop=0.3, duplicate=0.3
            )
            results = list(executor.run(_double, list(range(25))))
            return results, executor.provenance()["faults"]

        first_results, first_counts = tally()
        second_results, second_counts = tally()
        assert first_results == second_results
        assert first_counts == second_counts

    def test_dropped_chunks_are_reexecuted(self):
        executor = FaultInjectingExecutor(SerialShardExecutor(), seed=1, drop=1.0)
        results = list(executor.run(_double, list(range(8))))
        assert sorted(results) == [2 * value for value in range(8)]
        provenance = executor.provenance()
        assert provenance["faults"]["drop"] == 8
        assert provenance["fault_retries"] == 8

    def test_reexecution_drains_the_inner_run(self):
        # A broker run reads its done frame, and the counters it carries,
        # only when its consumer reads past the last result.
        class FinishCountingExecutor(SerialShardExecutor):
            finished = 0

            def run(self, fn, tasks):
                yield from super().run(fn, tasks)
                self.finished += 1

        inner = FinishCountingExecutor()
        executor = FaultInjectingExecutor(inner, seed=1, drop=1.0)
        results = list(executor.run(_double, list(range(8))))
        assert sorted(results) == [2 * value for value in range(8)]
        # The outer run and each of the 8 re-executions ran to the end.
        assert inner.finished == 1 + 8

    def test_delay_reorders_but_loses_nothing(self):
        # A *mix* of delayed and prompt chunks reorders (all-delayed would
        # just shift the FIFO buffer); every seed in range(8) reorders here.
        executor = FaultInjectingExecutor(
            SerialShardExecutor(), seed=2, delay=0.5, delay_window=3
        )
        results = list(executor.run(_double, list(range(10))))
        assert results != [2 * value for value in range(10)], "delay mix must reorder"
        assert sorted(results) == [2 * value for value in range(10)]

    def test_wraps_broker_executor(self):
        broker = ShardBroker(heartbeat=DEFAULT_HEARTBEAT_SECONDS).start()
        try:
            _start_worker(broker)
            executor = FaultInjectingExecutor(
                BrokerExecutor(broker=broker.address, join_deadline=10.0, timeout=10.0),
                seed=5,
                drop=0.3,
                duplicate=0.2,
            )
            results = list(executor.run(_double, list(range(12))))
            provenance = executor.provenance()
            assert sorted(set(results)) == [2 * value for value in range(12)]
            assert len(results) == 12 + provenance["faults"]["duplicate"]
            assert provenance["inner"]["executor"] == "broker"
            # Each re-executed drop is its own broker batch on its own
            # connection: the broker completes the 12 chunks plus one per
            # drop/error retry.
            assert provenance["fault_retries"] >= 1
            assert broker.stats()["chunks_completed"] == 12 + provenance["fault_retries"]
            executor.close()
        finally:
            broker.stop()

    def test_validation(self):
        serial = SerialShardExecutor()
        with pytest.raises(EngineError, match="wraps a ShardExecutor"):
            FaultInjectingExecutor(object())
        with pytest.raises(EngineError, match="in \\[0, 1\\]"):
            FaultInjectingExecutor(serial, drop=1.5)
        with pytest.raises(EngineError, match="sum to <= 1"):
            FaultInjectingExecutor(serial, drop=0.6, duplicate=0.6)
        with pytest.raises(EngineError, match="delay_window"):
            FaultInjectingExecutor(serial, delay_window=0)


# ---------------------------------------------------------------------------
# Authenticated frames end-to-end
# ---------------------------------------------------------------------------
class TestAuthenticatedTransport:
    KEY = b"s3cret-shard-key"

    def test_keyed_roundtrip(self):
        broker = ShardBroker(heartbeat=0.1, auth_key=self.KEY).start()
        try:
            _start_worker(broker, auth_key=self.KEY)
            executor = BrokerExecutor(
                broker=broker.address, join_deadline=5.0, timeout=10.0, auth_key=self.KEY
            )
            assert sorted(executor.run(_double, [1, 2, 3])) == [2, 4, 6]
            stats = broker.stats()
            assert stats["workers_joined"] == 1
            assert stats["chunks_completed"] == 3
            executor.close()
        finally:
            broker.stop()

    def _assert_worker_never_registers(self, worker_key):
        """A worker keyed with ``worker_key`` is dropped at its first frame.

        The broker verifies the digest before unpickling, so the worker
        never registers and never leases one of the queued chunks.
        """
        broker = ShardBroker(heartbeat=0.1, auth_key=self.KEY).start()
        client = socket.create_connection((broker.host, broker.port), timeout=5.0)
        try:
            send_message(client, ("submit", _double, [1, 2, 3]), self.KEY)
            deadline = time.monotonic() + 5.0
            while broker.stats()["queued_chunks"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert broker.stats()["queued_chunks"] == 3
            worker = BrokerWorker(broker.address, connect_timeout=5.0, auth_key=worker_key)
            worker.run_forever()  # returns once the broker drops the connection
            stats = broker.stats()
            assert stats["workers_joined"] == 0
            assert stats["leases_issued"] == 0
            assert worker.chunks_done == 0, "a rejected frame must never execute"
        finally:
            client.close()
            broker.stop()

    def test_keyed_broker_rejects_unkeyed_worker(self):
        self._assert_worker_never_registers(None)

    def test_key_mismatch_rejected(self):
        self._assert_worker_never_registers(b"some-other-key")


# ---------------------------------------------------------------------------
# Environment wiring
# ---------------------------------------------------------------------------
class TestEnvWiring:
    def test_faults_env_wraps_any_named_executor(self, monkeypatch):
        monkeypatch.setenv(ENV_SHARD_FAULTS, "drop=0.2,duplicate=0.1,seed=7")
        executor = resolve_shard_executor("serial", None)
        assert isinstance(executor, FaultInjectingExecutor)
        assert executor.name == "fault(serial)"
        assert executor.seed == 7
        assert executor.fractions["drop"] == 0.2
        monkeypatch.delenv(ENV_SHARD_FAULTS)
        assert isinstance(resolve_shard_executor("serial", None), SerialShardExecutor)

    def test_parse_fault_spec(self):
        assert parse_fault_spec("drop=0.2, error=0.1 ,seed=3,delay_window=5") == {
            "drop": 0.2,
            "error": 0.1,
            "seed": 3,
            "delay_window": 5,
        }
        assert parse_fault_spec("") == {}
        with pytest.raises(EngineError, match="key=value"):
            parse_fault_spec("drop")
        with pytest.raises(EngineError, match="unknown fault spec key"):
            parse_fault_spec("teleport=0.5")
        with pytest.raises(EngineError, match="bad fault spec value"):
            parse_fault_spec("drop=lots")


# ---------------------------------------------------------------------------
# Planner meta
# ---------------------------------------------------------------------------
class TestPlannerMeta:
    def test_planner_meta_transport_block(self):
        """Serial-path reports carry no transport block at all.

        The broker's block is checked by
        ``test_broker.py::TestEngineBrokerBitIdentity::test_acceptance_death_late_join_faults``.
        """
        from repro.experiments.runner import ExperimentReport, attach_engine_meta

        engine = ExecutionEngine(max_workers=1, sample_shard_shots=8_192)
        try:
            job = CircuitJob(
                job_id="plain",
                circuit=bernstein_vazirani("10110"),
                shots=40_000,
                noise_model=get_device("ibm-paris").noise_model,
            )
            engine.run([job], seed=7)
            report = attach_engine_meta(ExperimentReport(name="plain"), engine)
        finally:
            engine.close()
        assert report.meta["planner"]["reduction"]["merges"] == 4
        assert "transport" not in report.meta["planner"]
