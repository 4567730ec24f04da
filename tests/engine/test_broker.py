"""Broker transport tests: pull workers, leases, heartbeats, degradation.

The acceptance property is the transport suite's, one level up: chunks now
reach workers by *pull* through a lease broker, workers die holding leases
and join mid-run, and none of it may be visible in the rows — only in
provenance (``leases_reissued``, ``workers_joined/left``) and
``report.meta["planner"]["transport"]``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.engine.broker import (
    ENV_SHARD_BROKER,
    ENV_SHARD_HEARTBEAT,
    ENV_SHARD_JOIN_DEADLINE,
    ENV_SHARD_TIMEOUT,
    BrokerExecutor,
    BrokerWorker,
    ShardBroker,
    broker_executor_from_env,
)
from repro.engine.executors import SHARD_EXECUTOR_NAMES
from repro.engine.transport import FaultInjectingExecutor, recv_message, send_message
from repro.exceptions import EngineError, TransportError
from repro.experiments.runner import ExperimentReport, attach_engine_meta, planner_decisions
from repro.quantum.device import get_device


# Module-level so tasks ship to workers by reference.
def _double(task):
    return task * 2


def _fail_on_negative(task):
    if task < 0:
        raise ValueError(f"negative task {task}")
    return task


@pytest.fixture
def broker():
    broker = ShardBroker(heartbeat=0.1).start()
    yield broker
    broker.stop()


def _start_worker(broker, **kwargs) -> BrokerWorker:
    worker = BrokerWorker(broker.address, **kwargs)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    return worker


# ---------------------------------------------------------------------------
# Broker service + pull worker
# ---------------------------------------------------------------------------
class TestShardBroker:
    def test_pull_worker_executes_batch(self, broker):
        _start_worker(broker)
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=10.0)
        try:
            assert sorted(executor.run(_double, [1, 2, 3])) == [2, 4, 6]
            provenance = executor.provenance()
            assert provenance["executor"] == "broker"
            assert provenance["workers_joined"] == 1
            assert provenance["leases_issued"] == 3
            assert provenance["chunks_completed"] == 3
            assert provenance["leases_reissued"] == 0
        finally:
            executor.close()

    def test_status_op(self, broker):
        _start_worker(broker)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if broker.stats()["workers"] == 1:
                break
            time.sleep(0.01)
        status = broker.stats()
        assert status["workers"] == 1
        assert status["queued_chunks"] == 0

    def test_empty_task_list(self, broker):
        _start_worker(broker)
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=10.0)
        try:
            assert list(executor.run(_double, [])) == []
        finally:
            executor.close()

    def test_task_exception_is_terminal(self, broker):
        _start_worker(broker)
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=10.0)
        try:
            with pytest.raises(TransportError, match="negative task"):
                list(executor.run(_fail_on_negative, [1, -2, 3]))
        finally:
            executor.close()

    def test_worker_dying_with_lease_reissues_chunk(self, broker):
        # The dying worker computes one chunk, then dies abruptly *holding*
        # its second lease; the survivor must receive the re-issued chunk.
        _start_worker(broker, max_chunks=1)
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=15.0)
        try:
            survivor_started = False
            results = []
            for value in executor.run(_double, [1, 2, 3, 4]):
                results.append(value)
                if not survivor_started:
                    _start_worker(broker)
                    survivor_started = True
            assert sorted(results) == [2, 4, 6, 8]
            provenance = executor.provenance()
            assert provenance["leases_reissued"] >= 1
            assert provenance["workers_joined"] >= 2
            assert provenance["workers_left"] >= 1
        finally:
            executor.close()

    def test_expired_lease_of_wedged_worker_reissues(self, broker):
        # A wedged-but-connected worker: takes a lease, never heartbeats,
        # never disconnects.  Only TTL expiry can recover its chunk.
        wedge = socket.create_connection((broker.host, broker.port), timeout=5.0)
        try:
            send_message(wedge, ("register", "wedge"))
            assert recv_message(wedge)[0] == "registered"

            executor = BrokerExecutor(
                broker=broker.address, join_deadline=5.0, timeout=15.0
            )
            collected: list = []

            def drain():
                collected.extend(executor.run(_double, [1, 2, 3]))

            run_thread = threading.Thread(target=drain, daemon=True)
            run_thread.start()
            # Wedge grabs the first chunk... and then does nothing at all.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                send_message(wedge, ("next",))
                reply = recv_message(wedge)
                if reply[0] == "chunk":
                    break
                time.sleep(0.01)
            else:
                pytest.fail("wedged worker never received a chunk")
            _start_worker(broker)  # the healthy worker that inherits it
            run_thread.join(timeout=15.0)
            assert not run_thread.is_alive()
            assert sorted(collected) == [2, 4, 6]
            stats = broker.stats()
            assert stats["leases_reissued"] >= 1
            assert executor.provenance()["duplicate_results"] == 0
            executor.close()
        finally:
            wedge.close()

    def test_heartbeats_keep_slow_worker_leased(self, broker):
        # One slow worker, compute time ~6x the lease TTL: heartbeats must
        # keep renewing the lease, so the chunk is never re-issued.
        _start_worker(broker, delay=2.0)  # ttl = 0.3s at heartbeat 0.1
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=30.0)
        try:
            assert sorted(executor.run(_double, [7])) == [14]
            provenance = executor.provenance()
            assert provenance["leases_reissued"] == 0
            assert provenance["heartbeats"] >= 1
        finally:
            executor.close()


class TestHeldNext:
    """An idle worker's ``next`` is held until a chunk is queued.

    At ``heartbeat=5`` the hold is 0.5 s: a batch submitted inside it must be
    answered with its chunk at once, neither ``wait`` nor at the hold's end.
    """

    HOLD_S = 0.5

    @staticmethod
    def _register(broker) -> socket.socket:
        worker = socket.create_connection((broker.host, broker.port), timeout=5.0)
        send_message(worker, ("register", "raw"))
        assert recv_message(worker)[0] == "registered"
        return worker

    def test_held_next_answers_a_chunk_submitted_during_the_hold(self):
        broker = ShardBroker(heartbeat=5.0).start()
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=10.0)
        worker = self._register(broker)
        try:
            collected: list = []

            def submit():
                time.sleep(0.05)
                collected.extend(executor.run(_double, [21]))

            asked = time.monotonic()
            send_message(worker, ("next",))
            driver = threading.Thread(target=submit, daemon=True)
            driver.start()
            reply = recv_message(worker)
            answered = time.monotonic() - asked
            assert reply[0] == "chunk", reply
            assert answered < self.HOLD_S
            _, chunk_id, fn, task = reply
            send_message(worker, ("result", chunk_id, fn(task)))
            assert recv_message(worker) == ("ok",)
            driver.join(timeout=10.0)
            assert not driver.is_alive()
            assert collected == [42]
        finally:
            worker.close()
            executor.close()
            broker.stop()

    def test_stop_ends_a_held_next(self):
        broker = ShardBroker(heartbeat=5.0).start()
        before = set(threading.enumerate())
        worker = self._register(broker)
        try:
            (connection,) = [
                thread
                for thread in set(threading.enumerate()) - before
                if "_serve_connection" in thread.name
            ]
            send_message(worker, ("next",))
            time.sleep(0.05)  # the broker is now holding the request
            stopped = time.monotonic()
            broker.stop()
            connection.join(timeout=5.0)
            assert not connection.is_alive()
            # Woken by stop(), not by the hold running out ~0.45 s later.
            assert time.monotonic() - stopped < self.HOLD_S / 2
        finally:
            worker.close()
            broker.stop()

    def test_many_held_workers_lease_each_chunk_once(self):
        # More workers than cores, all holding ``next`` on one condition,
        # with a short switch interval: a lost update would lease a chunk
        # twice (or never), which the counters and results would show.
        broker = ShardBroker(heartbeat=1.0).start()
        executor = BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(6):
                _start_worker(broker)
            tasks = list(range(60))
            for _ in range(3):
                assert sorted(executor.run(_double, tasks)) == [2 * task for task in tasks]
            stats = broker.stats()
            assert stats["leases_issued"] == stats["chunks_completed"] == 3 * len(tasks)
            assert stats["leases_reissued"] == stats["duplicate_results"] == 0
        finally:
            sys.setswitchinterval(interval)
            executor.close()
            broker.stop()


# ---------------------------------------------------------------------------
# Executor construction, fallback, env wiring
# ---------------------------------------------------------------------------
class TestBrokerExecutor:
    def test_validates_the_address_and_timeout(self):
        with pytest.raises(EngineError, match="HOST:PORT"):
            BrokerExecutor(broker="bogus")
        with pytest.raises(EngineError, match="timeout"):
            BrokerExecutor(broker="127.0.0.1:1", timeout=0)

    def test_no_worker_falls_back_instead_of_hanging(self):
        from repro.obs.logs import log_records, reset_logs

        reset_logs()
        broker = ShardBroker(heartbeat=0.1).start()
        executor = BrokerExecutor(broker=broker.address, join_deadline=0.2, timeout=5.0)
        try:
            assert sorted(executor.run(_double, [1, 2])) == [2, 4]
            provenance = executor.provenance()
            assert provenance["fallbacks"] == 1
            assert provenance["fallback"]["executor"] == "serial"
            events = [record["event"] for record in log_records()]
            assert "broker-no-workers" in events
        finally:
            executor.close()
            broker.stop()

    def test_provenance_counts_a_fault_re_execution(self, broker):
        # A dropped chunk runs again as a batch of its own, nested in the
        # outer one.  Its done frame carries later counters than the outer
        # batch's, which the executor reads after it.
        _start_worker(broker)
        executor = FaultInjectingExecutor(
            BrokerExecutor(broker=broker.address, join_deadline=5.0, timeout=10.0),
            seed=5,
            drop=0.3,
            duplicate=0.2,
        )
        try:
            list(executor.run(_double, list(range(12))))
            provenance = executor.provenance()
        finally:
            executor.close()
        stats = broker.stats()
        assert provenance["fault_retries"] >= 1
        assert provenance["inner"]["chunks_completed"] == stats["chunks_completed"]
        assert provenance["inner"]["batches"] == stats["batches"]

    def test_broker_name_registered(self):
        assert "broker" in SHARD_EXECUTOR_NAMES

    def test_env_requires_the_broker_address(self, monkeypatch):
        monkeypatch.delenv(ENV_SHARD_BROKER, raising=False)
        with pytest.raises(EngineError, match=f"requires {ENV_SHARD_BROKER}"):
            broker_executor_from_env()
        monkeypatch.setenv(ENV_SHARD_BROKER, "127.0.0.1:1")
        assert broker_executor_from_env().address == "127.0.0.1:1"

    def test_env_validates_addresses_eagerly_naming_entry(self, monkeypatch):
        monkeypatch.setenv(ENV_SHARD_BROKER, "bogus")
        with pytest.raises(EngineError, match="REPRO_SHARD_BROKER entry 'bogus'"):
            broker_executor_from_env()


# ---------------------------------------------------------------------------
# Timings must be finite
# ---------------------------------------------------------------------------
_NON_FINITE = ("nan", "inf", "-inf")

#: Each constructor timing argument, built so that an accepted value leaves
#: nothing running (the broker is stopped, the executors only parse).
_TIMING_ARGUMENTS = {
    "ShardBroker-heartbeat": ("heartbeat", lambda value: ShardBroker(heartbeat=value).stop()),
    "BrokerExecutor-timeout": (
        "timeout", lambda value: BrokerExecutor(broker="127.0.0.1:1", timeout=value)
    ),
    "BrokerExecutor-join_deadline": (
        "join_deadline", lambda value: BrokerExecutor(broker="127.0.0.1:1", join_deadline=value)
    ),
    "BrokerWorker-heartbeat": (
        "heartbeat", lambda value: BrokerWorker("127.0.0.1:1", heartbeat=value)
    ),
    "BrokerWorker-connect_timeout": (
        "connect_timeout", lambda value: BrokerWorker("127.0.0.1:1", connect_timeout=value)
    ),
}


class TestTimingValidation:
    """NaN and infinite timings are rejected up front.

    A NaN join deadline never passes, so a run with no worker would wait
    forever instead of falling back; a NaN heartbeat makes every lease
    expire at every scan; an infinite one never expires.
    """

    @pytest.mark.parametrize("raw", _NON_FINITE + ("soon",))
    @pytest.mark.parametrize(
        "name", (ENV_SHARD_HEARTBEAT, ENV_SHARD_JOIN_DEADLINE, ENV_SHARD_TIMEOUT)
    )
    def test_env_timing_rejected_naming_the_variable(self, monkeypatch, name, raw):
        # The broker reads the heartbeat, the executor the other two; stop()
        # closes the broker's socket should a heartbeat be accepted.
        monkeypatch.setenv(ENV_SHARD_BROKER, "127.0.0.1:1")
        monkeypatch.setenv(name, raw)
        reason = "a number" if raw == "soon" else "a finite number"
        with pytest.raises(EngineError, match=f"{name} must be {reason}"):
            if name == ENV_SHARD_HEARTBEAT:
                ShardBroker().stop()
            else:
                broker_executor_from_env()

    @pytest.mark.parametrize("raw", _NON_FINITE)
    @pytest.mark.parametrize("argument", sorted(_TIMING_ARGUMENTS))
    def test_constructor_timing_rejected(self, argument, raw):
        name, build = _TIMING_ARGUMENTS[argument]
        with pytest.raises(EngineError, match=f"{name} must be a finite number"):
            build(float(raw))

    def test_join_deadline_must_not_be_negative(self, monkeypatch):
        with pytest.raises(EngineError, match="join_deadline must be a finite number >= 0"):
            BrokerExecutor(broker="127.0.0.1:1", join_deadline=-1.0)
        monkeypatch.setenv(ENV_SHARD_JOIN_DEADLINE, "-1")
        with pytest.raises(EngineError, match=f"{ENV_SHARD_JOIN_DEADLINE} must be a finite"):
            BrokerExecutor(broker="127.0.0.1:1")

    def test_env_timings_are_read(self, monkeypatch):
        monkeypatch.setenv(ENV_SHARD_BROKER, "127.0.0.1:1")
        monkeypatch.setenv(ENV_SHARD_HEARTBEAT, "0.5")
        # Zero stays valid: check for a worker once, then fall back.
        monkeypatch.setenv(ENV_SHARD_JOIN_DEADLINE, "0")
        monkeypatch.setenv(ENV_SHARD_TIMEOUT, "7.5")
        broker = ShardBroker()
        try:
            assert broker.heartbeat == 0.5
        finally:
            broker.stop()
        executor = broker_executor_from_env()
        assert executor._join_deadline == 0.0
        assert executor.timeout == 7.5


# ---------------------------------------------------------------------------
# Engine acceptance: mid-run death + late joiner + faults, bit-identical
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def device():
    return get_device("ibm-paris")


def _sharded_job(device) -> CircuitJob:
    """One 40k-shot job: five chunks at 8k shots."""
    return CircuitJob(
        job_id="shard-broker",
        circuit=bernstein_vazirani("10110"),
        shots=40_000,
        noise_model=device.noise_model,
    )


def _sharded_run(device, **engine_kwargs):
    """One 40k-shot job sharded into 8k chunks; returns (distribution, engine)."""
    engine = ExecutionEngine(sample_shard_shots=8_192, **engine_kwargs)
    try:
        result = engine.run([_sharded_job(device)], seed=7)[0]
        return result.noisy, engine
    finally:
        engine.close()


class TestEngineBrokerBitIdentity:
    def test_broker_run_bit_identical_to_serial(self, device):
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        broker = ShardBroker(heartbeat=0.1).start()
        try:
            _start_worker(broker)
            executor = BrokerExecutor(
                broker=broker.address, join_deadline=10.0, timeout=30.0
            )
            try:
                noisy, engine = _sharded_run(device, max_workers=1, shard_executor=executor)
            finally:
                executor.close()
            assert noisy.probabilities() == reference.probabilities()
            # The keys perfbench's shots-broker check reads, as a report carries them.
            report = attach_engine_meta(ExperimentReport(name="broker"), engine)
            transport = report.meta["planner"]["transport"]
            assert transport is engine.transport
            assert transport["executor"] == "broker"
            assert transport["chunks_completed"] == 5
            assert isinstance(transport["leases_reissued"], int)
            assert "fallbacks" not in transport
        finally:
            broker.stop()

    def test_acceptance_death_late_join_faults(self, device):
        """The ISSUE acceptance scenario: a worker dies mid-run holding a
        lease, a replacement joins late, drop/duplicate faults are injected
        — rows bit-identical to serial, lease re-issues and worker
        join/leave counts visible in ``report.meta["planner"]["transport"]``.
        """
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        broker = ShardBroker(heartbeat=0.1).start()
        try:
            # Only the doomed worker exists at submit time: it computes one
            # chunk, takes the next lease, and dies holding it.  The late
            # joiner (0.3s in) is the only path to completion.
            _start_worker(broker, max_chunks=1)
            joiner = threading.Timer(0.3, _start_worker, args=(broker,))
            joiner.daemon = True
            joiner.start()
            executor = FaultInjectingExecutor(
                BrokerExecutor(broker=broker.address, join_deadline=10.0, timeout=30.0),
                seed=5,
                drop=0.2,
                duplicate=0.2,
            )
            engine = ExecutionEngine(
                max_workers=1, sample_shard_shots=8_192, shard_executor=executor
            )
            try:
                job = CircuitJob(
                    job_id="shard-broker",
                    circuit=bernstein_vazirani("10110"),
                    shots=40_000,
                    noise_model=device.noise_model,
                )
                result = engine.run([job], seed=7)[0]
                report = ExperimentReport(name="broker-acceptance")
                attach_engine_meta(report, engine)
            finally:
                engine.close()
                executor.close()
            assert result.noisy.probabilities() == reference.probabilities()
            transport = report.meta["planner"]["transport"]
            assert transport["inner"]["executor"] == "broker"
            assert transport["inner"]["leases_reissued"] >= 1, transport
            assert transport["inner"]["workers_joined"] >= 2, transport
            assert transport["inner"]["workers_left"] >= 1, transport
            assert sum(transport["faults"].values()) >= 1, transport
        finally:
            joiner.cancel()
            broker.stop()

    def test_env_resolved_broker_run(self, device, monkeypatch):
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        broker = ShardBroker(heartbeat=0.1).start()
        try:
            _start_worker(broker)
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "broker")
            monkeypatch.setenv(ENV_SHARD_BROKER, broker.address)
            monkeypatch.setenv(ENV_SHARD_JOIN_DEADLINE, "10")
            noisy, engine = _sharded_run(device, max_workers=1)
            assert noisy.probabilities() == reference.probabilities()
            assert planner_decisions(engine.last_run)["shard-executor"] == {"broker/override": 1}
            assert engine.transport["executor"] == "broker"
        finally:
            broker.stop()

    def test_env_resolved_fallback_when_no_worker(self, device, monkeypatch):
        # A started broker that no worker joins: the run must degrade to the
        # local fallback executor inside the join deadline, not hang.
        reference, _ = _sharded_run(device, max_workers=1, shard_executor="serial")
        broker = ShardBroker(heartbeat=0.1).start()
        try:
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "broker")
            monkeypatch.setenv(ENV_SHARD_BROKER, broker.address)
            monkeypatch.setenv(ENV_SHARD_JOIN_DEADLINE, "0.2")
            noisy, engine = _sharded_run(device, max_workers=1)
        finally:
            broker.stop()
        assert noisy.probabilities() == reference.probabilities()
        report = attach_engine_meta(ExperimentReport(name="fallback"), engine)
        transport = report.meta["planner"]["transport"]
        assert transport["executor"] == "broker"
        assert transport["fallbacks"] == 1
        assert transport["fallback"]["executor"] == "serial"

    def test_transport_reads_the_brokers_lifetime_counters(self, device, monkeypatch):
        """Three batches through one engine report the broker's counts, once."""
        broker = ShardBroker(heartbeat=0.1).start()
        try:
            _start_worker(broker)
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "broker")
            monkeypatch.setenv(ENV_SHARD_BROKER, broker.address)
            monkeypatch.setenv(ENV_SHARD_JOIN_DEADLINE, "10")
            with ExecutionEngine(sample_shard_shots=8_192) as engine:
                for seed in (7, 8, 9):
                    engine.run([_sharded_job(device)], seed=seed)
            stats = broker.stats()
        finally:
            broker.stop()
        report = attach_engine_meta(ExperimentReport(name="three-batches"), engine)
        transport = report.meta["planner"]["transport"]
        counts = ("chunks_completed", "batches", "workers_joined")
        assert [transport[name] for name in counts] == [stats[name] for name in counts]
        assert [stats[name] for name in counts] == [15, 3, 1]
