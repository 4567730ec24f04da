"""Socket shard transport tests: protocol, workers, failure handling, faults.

The acceptance property mirrors the executor suite's: *which transport
delivered the chunks — and how badly it misbehaved on the way — must be
invisible in the results*.  Sharded runs over 1/2/4 socket hosts, with a
host killed mid-run, a deliberately slow host, and seed-driven injected
faults, all produce rows bit-identical to the serial executor; what the
transport *did* (retries, re-placements, dropped duplicates) is visible in
provenance and ``report.meta["planner"]["transport"]``, never in the rows.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine.executors import SerialShardExecutor, resolve_shard_executor
from repro.engine.transport import (
    ENV_SHARD_FAULTS,
    ENV_SHARD_HOSTS,
    ENV_SHARD_RETRIES,
    ENV_SHARD_TIMEOUT,
    FaultInjectingExecutor,
    ShardWorker,
    SocketHostExecutor,
    parse_fault_spec,
    parse_hostport,
    recv_message,
    send_message,
)
from repro.exceptions import EngineError, HostUnavailableError, TransportError
from repro.quantum.device import get_device


# Module-level so tasks ship to workers by reference.
def _double(task):
    return task * 2


def _fail_on_negative(task):
    if task < 0:
        raise ValueError(f"negative task {task}")
    return task


def _free_port_address() -> str:
    """A localhost address nothing is listening on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


@pytest.fixture
def worker():
    worker = ShardWorker().start()
    yield worker
    worker.stop()


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
# Worker server
# ---------------------------------------------------------------------------
class TestShardWorker:
    def test_serves_run_requests(self, worker):
        executor = SocketHostExecutor([worker.address], timeout=5.0)
        try:
            assert sorted(executor.run(_double, [1, 2, 3])) == [2, 4, 6]
            assert worker.requests_served == 3
        finally:
            executor.close()

    def test_ping(self, worker):
        executor = SocketHostExecutor([worker.address], timeout=5.0)
        try:
            assert executor.ping(worker.address) > 0
        finally:
            executor.close()

    def test_shutdown_op_stops_worker(self, worker):
        sock = socket.create_connection(parse_hostport(worker.address), timeout=5.0)
        try:
            send_message(sock, ("shutdown",))
            assert recv_message(sock) == ("ok", None)
        finally:
            sock.close()
        # stop() runs in the worker's handler thread; poll until the
        # listener is really gone.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(parse_hostport(worker.address), timeout=0.5):
                    time.sleep(0.01)
            except OSError:
                return
        pytest.fail("worker still accepting connections after shutdown op")

    def test_max_requests_budget_kills_worker(self):
        worker = ShardWorker(max_requests=2).start()
        try:
            executor = SocketHostExecutor(
                [worker.address], timeout=2.0, max_retries=1, backoff=0.01
            )
            # Two chunks succeed; the third finds the worker dead and, with
            # no surviving host, the transport fails terminally.
            with pytest.raises(TransportError, match="no shard host survives"):
                list(executor.run(_double, [1, 2, 3, 4]))
            assert worker.requests_served == 2
            executor.close()
        finally:
            worker.stop()

    def test_constructor_validation(self):
        with pytest.raises(EngineError, match="max_requests"):
            ShardWorker(max_requests=0)
        with pytest.raises(EngineError, match="delay"):
            ShardWorker(delay=-1.0)


# ---------------------------------------------------------------------------
# Socket executor failure handling
# ---------------------------------------------------------------------------
class TestSocketExecutor:
    def test_constructor_validation(self):
        with pytest.raises(EngineError, match="HOST:PORT"):
            SocketHostExecutor(["not-an-address"])
        with pytest.raises(EngineError, match="timeout"):
            SocketHostExecutor(["h:1"], timeout=0)
        with pytest.raises(EngineError, match="max_retries"):
            SocketHostExecutor(["h:1"], max_retries=-1)
        with pytest.raises(EngineError, match="backoff"):
            SocketHostExecutor(["h:1"], backoff=2.0, backoff_cap=1.0)

    def test_unreachable_single_host_raises(self):
        executor = SocketHostExecutor(
            [_free_port_address()], timeout=0.5, max_retries=1, backoff=0.01
        )
        with pytest.raises(TransportError):
            list(executor.run(_double, [1]))

    def test_run_on_host_exhausted_retries_raise_host_unavailable(self):
        address = _free_port_address()
        executor = SocketHostExecutor([address], timeout=0.5, max_retries=2, backoff=0.01)
        with pytest.raises(HostUnavailableError, match="after 3 attempts"):
            executor.run_on_host(address, _double, 1)
        assert executor.provenance()["retries"] == 2

    def test_ping_unreachable_host_raises_host_unavailable(self):
        # Regression: the dial used to happen outside the try, so a refused
        # connection escaped ping() as a raw OSError instead of the
        # HostUnavailableError callers are told to expect.
        address = _free_port_address()
        executor = SocketHostExecutor([address], timeout=0.5, max_retries=0, backoff=0.01)
        with pytest.raises(HostUnavailableError, match="did not answer ping"):
            executor.ping(address)

    def test_task_exception_is_terminal_not_retried(self, worker):
        executor = SocketHostExecutor([worker.address], timeout=5.0, max_retries=3)
        try:
            with pytest.raises(TransportError, match="negative task"):
                list(executor.run(_fail_on_negative, [1, -2, 3]))
            # Deterministic failure: no retry, no re-placement recorded.
            provenance = executor.provenance()
            assert provenance["retries"] == 0
            assert provenance["replacements"] == 0
        finally:
            executor.close()

    def test_dead_host_replaces_onto_survivor(self, worker):
        dead = _free_port_address()
        executor = SocketHostExecutor(
            [dead, worker.address], timeout=1.0, max_retries=1, backoff=0.01
        )
        try:
            results = sorted(executor.run(_double, [1, 2, 3, 4, 5, 6]))
            assert results == [2, 4, 6, 8, 10, 12]
            provenance = executor.provenance()
            assert provenance["dead_hosts"] == [dead]
            assert provenance["replacements"] >= 3
            assert provenance["hosts"][worker.address]["chunks"] == 6
        finally:
            executor.close()

    def test_mid_run_host_death_replaces_remaining_chunks(self):
        dying = ShardWorker(max_requests=2).start()
        survivor = ShardWorker().start()
        executor = SocketHostExecutor(
            [dying.address, survivor.address], timeout=2.0, max_retries=1, backoff=0.01
        )
        try:
            results = sorted(executor.run(_double, list(range(10))))
            assert results == [2 * value for value in range(10)]
            provenance = executor.provenance()
            assert provenance["dead_hosts"] == [dying.address]
            assert provenance["replacements"] >= 1
            assert provenance["chunks"] == 10
            # A later batch routes everything to the survivor immediately.
            assert sorted(executor.run(_double, [7, 8])) == [14, 16]
        finally:
            executor.close()
            dying.stop()
            survivor.stop()

    def test_empty_task_list(self, worker):
        executor = SocketHostExecutor([worker.address], timeout=5.0)
        try:
            assert list(executor.run(_double, [])) == []
        finally:
            executor.close()


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

    def test_delay_reorders_but_loses_nothing(self):
        # A *mix* of delayed and prompt chunks reorders (all-delayed would
        # just shift the FIFO buffer); every seed in range(8) reorders here.
        executor = FaultInjectingExecutor(
            SerialShardExecutor(), seed=2, delay=0.5, delay_window=3
        )
        results = list(executor.run(_double, list(range(10))))
        assert results != [2 * value for value in range(10)], "delay mix must reorder"
        assert sorted(results) == [2 * value for value in range(10)]

    def test_wraps_socket_executor(self, worker):
        executor = FaultInjectingExecutor(
            SocketHostExecutor([worker.address], timeout=5.0),
            seed=5,
            drop=0.3,
            duplicate=0.2,
        )
        results = list(executor.run(_double, list(range(12))))
        assert sorted(set(results)) == [2 * value for value in range(12)]
        provenance = executor.provenance()
        assert provenance["inner"]["executor"] == "socket"
        # Re-executed drops go through the socket too: chunk count exceeds
        # the task count by exactly the number of drop/error retries.
        assert provenance["inner"]["chunks"] == 12 + provenance["fault_retries"]
        executor.close()

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
        worker = ShardWorker(auth_key=self.KEY).start()
        try:
            executor = SocketHostExecutor([worker.address], timeout=5.0, auth_key=self.KEY)
            assert sorted(executor.run(_double, [1, 2, 3])) == [2, 4, 6]
            assert executor.ping(worker.address) > 0
            executor.close()
        finally:
            worker.stop()

    def test_keyed_worker_rejects_unkeyed_client(self):
        # The worker verifies the digest before unpickling and drops the
        # connection; with no retries left the client sees the host as gone.
        worker = ShardWorker(auth_key=self.KEY).start()
        try:
            executor = SocketHostExecutor(
                [worker.address], timeout=1.0, max_retries=0, backoff=0.01, auth_key=None
            )
            with pytest.raises(HostUnavailableError):
                executor.run_on_host(worker.address, _double, 1)
            assert worker.requests_served == 0, "tampered frame must never execute"
            executor.close()
        finally:
            worker.stop()

    def test_key_mismatch_rejected(self):
        worker = ShardWorker(auth_key=self.KEY).start()
        try:
            executor = SocketHostExecutor(
                [worker.address],
                timeout=1.0,
                max_retries=0,
                backoff=0.01,
                auth_key=b"some-other-key",
            )
            with pytest.raises(HostUnavailableError):
                executor.run_on_host(worker.address, _double, 1)
            assert worker.requests_served == 0
            executor.close()
        finally:
            worker.stop()


# ---------------------------------------------------------------------------
# Environment wiring
# ---------------------------------------------------------------------------
class TestEnvWiring:
    def test_socket_requires_hosts(self, monkeypatch):
        monkeypatch.delenv(ENV_SHARD_HOSTS, raising=False)
        with pytest.raises(EngineError, match=ENV_SHARD_HOSTS):
            resolve_shard_executor("socket", None)

    def test_socket_reads_hosts_and_knobs(self, monkeypatch, worker):
        monkeypatch.setenv(ENV_SHARD_HOSTS, f"{worker.address}, {worker.address}")
        monkeypatch.setenv(ENV_SHARD_TIMEOUT, "7.5")
        monkeypatch.setenv(ENV_SHARD_RETRIES, "5")
        executor = resolve_shard_executor("socket", None)
        assert isinstance(executor, SocketHostExecutor)
        assert executor.hosts == (worker.address, worker.address)
        assert executor.timeout == 7.5
        assert executor.max_retries == 5

    def test_bad_knobs_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_SHARD_HOSTS, "h:1")
        monkeypatch.setenv(ENV_SHARD_TIMEOUT, "soon")
        with pytest.raises(EngineError, match=ENV_SHARD_TIMEOUT):
            resolve_shard_executor("socket", None)

    def test_bad_host_entry_rejected_eagerly_by_name(self, monkeypatch):
        # A typo'd entry must fail at startup naming the offending token,
        # not mid-run when a chunk first routes to it.
        monkeypatch.setenv(ENV_SHARD_HOSTS, "127.0.0.1:1, bogus")
        with pytest.raises(EngineError, match="entry 'bogus' is invalid"):
            resolve_shard_executor("socket", None)

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
# Engine acceptance: bit-identity under faults, provenance in planner meta
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _sharded_run(device, **engine_kwargs):
    """One 40k-shot job sharded into 8k chunks; returns (distribution, stats)."""
    engine = ExecutionEngine(sample_shard_shots=8_192, **engine_kwargs)
    try:
        job = CircuitJob(
            job_id="shard-transport",
            circuit=bernstein_vazirani("10110"),
            shots=40_000,
            noise_model=device.noise_model,
        )
        result = engine.run([job], seed=7)[0]
        return result.noisy, engine.last_run_stats
    finally:
        engine.close()


class TestEngineSocketBitIdentity:
    def test_socket_hosts_bit_identical_to_serial(self, device):
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        workers = [ShardWorker().start() for _ in range(4)]
        try:
            for num_hosts in (1, 2, 4):
                executor = SocketHostExecutor(
                    [w.address for w in workers[:num_hosts]], timeout=10.0
                )
                try:
                    noisy, stats = _sharded_run(
                        device, max_workers=1, shard_executor=executor
                    )
                finally:
                    executor.close()
                assert (
                    noisy.probabilities() == reference.probabilities()
                ), f"hosts={num_hosts}"
                assert stats.transport["executor"] == "socket"
                assert stats.transport["chunks"] == 5
        finally:
            for w in workers:
                w.stop()

    def test_faulty_delayed_and_dying_hosts_bit_identical(self, device):
        """The acceptance scenario: one slow host, one killed mid-run,
        drop/duplicate faults on top — rows identical, provenance visible."""
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        dying = ShardWorker(max_requests=2).start()
        delayed = ShardWorker(delay=0.05).start()
        try:
            executor = FaultInjectingExecutor(
                SocketHostExecutor(
                    [dying.address, delayed.address],
                    timeout=10.0,
                    max_retries=1,
                    backoff=0.01,
                ),
                seed=5,
                drop=0.2,
                duplicate=0.2,
            )
            try:
                noisy, stats = _sharded_run(device, max_workers=1, shard_executor=executor)
            finally:
                executor.close()
            assert noisy.probabilities() == reference.probabilities()
            transport = stats.transport
            assert transport["inner"]["dead_hosts"] == [dying.address]
            assert transport["inner"]["replacements"] >= 1
            assert transport["inner"]["retries"] >= 1
            # Injected duplicates were delivered and dropped at the tree.
            if transport["faults"]["duplicate"]:
                assert stats.duplicate_chunks_dropped >= 1
        finally:
            dying.stop()
            delayed.stop()

    def test_env_resolved_socket_run_with_faults(self, device, monkeypatch):
        """The CI-smoke path: everything configured through the environment."""
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        workers = [ShardWorker().start() for _ in range(2)]
        try:
            monkeypatch.setenv(
                ENV_SHARD_HOSTS, ",".join(w.address for w in workers)
            )
            monkeypatch.setenv(ENV_SHARD_FAULTS, "drop=0.2,duplicate=0.2,seed=5")
            monkeypatch.setenv(ENV_SHARD_TIMEOUT, "10")
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "socket")
            noisy, stats = _sharded_run(device, max_workers=1)
            assert noisy.probabilities() == reference.probabilities()
            assert stats.planner_decisions["shard-executor"] == {
                "fault(socket)/override": 1
            }
            assert stats.transport["inner"]["executor"] == "socket"
        finally:
            for w in workers:
                w.stop()

    def test_planner_meta_transport_block(self, device, monkeypatch):
        from repro.experiments.runner import ExperimentReport, attach_engine_meta

        worker = ShardWorker().start()
        executor = SocketHostExecutor([worker.address], timeout=10.0)
        engine = ExecutionEngine(
            max_workers=1, sample_shard_shots=8_192, shard_executor=executor
        )
        try:
            job = CircuitJob(
                job_id="meta-transport",
                circuit=bernstein_vazirani("10110"),
                shots=40_000,
                noise_model=device.noise_model,
            )
            engine.run([job], seed=7)
            report = ExperimentReport(name="meta-transport")
            attach_engine_meta(report, engine)
        finally:
            engine.close()
            executor.close()
            worker.stop()
        planner = report.meta["planner"]
        assert planner["transport"]["executor"] == "socket"
        assert planner["transport"]["chunks"] == 5
        assert planner["transport"]["hosts"][worker.address]["chunks"] == 5
        assert planner["reduction"]["duplicate_chunks_dropped"] == 0
        # Serial-path reports carry no transport block at all.
        assert "transport" not in attach_engine_meta(
            ExperimentReport(name="plain"), _PlainEngine(device)
        ).meta.get("planner", {})


class _PlainEngine:
    """Minimal engine stand-in: lifetime stats without transport."""

    def __init__(self, device):
        engine = ExecutionEngine(max_workers=1, sample_shard_shots=8_192)
        try:
            job = CircuitJob(
                job_id="plain",
                circuit=bernstein_vazirani("10110"),
                shots=40_000,
                noise_model=device.noise_model,
            )
            engine.run([job], seed=7)
            self.lifetime_stats = engine.lifetime_stats
            self.cache = engine.cache
        finally:
            engine.close()
