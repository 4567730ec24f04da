"""The benchmark's workloads, each built from a seed.

A workload's ``open()`` does everything a run needs before its first
iteration apart from imports: the cache fill, or starting the broker's
workers.  ``iterate()`` is one unit of work: a fresh engine runs one study,
and the study post-processes what the engine returns.

The studies draw their circuits (the secret keys) and their sampling seed
from one configuration seed.  The benchmark fixes that seed at
:data:`CIRCUIT_SEED`, so every run has the same circuits and the same
amount of work (with keys drawn per run, the HAMMER work of ``fig8-cold``
varies by 16% from seed to seed), and its engine samples with the
benchmark's own seed instead, so the seed still decides the noisy histograms
that HAMMER reconstructs.  At the default seed the two agree and each study
runs exactly as ``repro`` runs it.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import time

from repro.calibration.scenario import all_scenarios
from repro.engine import ExecutionEngine
from repro.engine.transport import recv_message, send_message
from repro.experiments.bv_study import BvStudyConfig, run_bv_single_example, run_bv_study
from repro.experiments.scenario_study import ScenarioStudyConfig, run_scenario_study
from repro.quantum.device import ibm_paris

#: The studies' configuration seed: it fixes the circuits of every run.
CIRCUIT_SEED = 8


class BenchmarkEngine(ExecutionEngine):
    """Samples with the benchmark's seed and keeps every batch it ran.

    ``batches`` holds each ``(jobs, results)`` pair, for the output check.
    """

    def __init__(self, sample_seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sample_seed = sample_seed
        self.batches: list[tuple[list, list]] = []

    def run(self, jobs, seed=0):
        jobs = list(jobs)
        results = super().run(jobs, seed=self.sample_seed)
        self.batches.append((jobs, results))
        return results


class Workload:
    """One report row per job, nothing to set up, no disk tier."""

    name = ""
    cache_dir: str | None = None

    def __init__(self, seed: int, size: str, work_dir: str, services) -> None:
        self.seed = seed
        self.full = size == "full"
        self.work_dir = work_dir
        self.services = services

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def iterate(self):
        """One unit of work: ``(study report, engine batches)``."""
        raise NotImplementedError

    def row_job(self, row_index: int) -> int:
        """The job a report row describes."""
        return row_index

    def pst_pairs(self, report) -> list[tuple[float, float]]:
        """``(raw PST, HAMMER PST)`` of every job."""
        return [(row["baseline_pst"], row["hammer_pst"]) for row in report.rows]

    def inspect(self, report) -> tuple[dict[int, str], dict[str, float]]:
        """Failed jobs beyond the output check, and counts for the traced run."""
        return {}, {}


class Fig8Cold(Workload):
    """Figure 8(b): BV on the 3 default IBM devices, widths 12-14, memo-cold."""

    name = "fig8-cold"

    def iterate(self):
        config = BvStudyConfig(
            qubit_range=(12, 14) if self.full else (5, 6),
            keys_per_size=1,
            shots=32_768 if self.full else 2_048,
            seed=CIRCUIT_SEED,
        )
        with BenchmarkEngine(self.seed, max_workers=1) as engine:
            report = run_bv_study(config, engine=engine)
        return report, engine.batches


class ZooWarm(Workload):
    """The calibrated scenario zoo, re-run on a filled disk cache."""

    name = "zoo-warm"

    def _study(self, cache_dir: str):
        config = ScenarioStudyConfig(
            scenarios=None if self.full else tuple(s.name for s in all_scenarios()[:2]),
            num_qubits=10 if self.full else 5,
            keys_per_scenario=2 if self.full else 1,
            seed=CIRCUIT_SEED,
        )
        with BenchmarkEngine(self.seed, cache_dir=cache_dir) as engine:
            report = run_scenario_study(config, engine=engine)
        return report, engine.batches

    def open(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="zoo-cache-", dir=self.work_dir)
        self._study(self.cache_dir)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def iterate(self):
        # A fresh engine starts with an empty memory tier: every artifact
        # (transpile, ideal, sample) comes off the disk tier.
        return self._study(self.cache_dir)


class ShotsBroker(Workload):
    """Figure 8(a) at 2M shots, sharded through a broker and two pull workers."""

    name = "shots-broker"
    workers = 2

    def __init__(self, seed: int, size: str, work_dir: str, services) -> None:
        super().__init__(seed, size, work_dir, services)
        self.shots = 2_097_152 if self.full else 16_384
        # None keeps the engine's default 262,144-shot chunks: 8 chunks either way.
        self.shard_shots = None if self.full else 2_048
        self.expected_chunks = 0
        self.chunks_completed = 0
        self.leases_reissued = 0

    def open(self) -> None:
        self.services.start_workers(self.workers)
        os.environ.update(
            REPRO_SHARD_EXECUTOR="broker",
            REPRO_SHARD_BROKER=self.services.address(),
            REPRO_SHARD_KEY=self.services.key,
        )
        self.wait_for_workers(self.workers)

    def close(self) -> None:
        self.services.stop()

    def broker_status(self) -> dict:
        host, port = self.services.address().rsplit(":", 1)
        key = self.services.key.encode()
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            send_message(sock, ("status",), key)
            return recv_message(sock, key)[1]

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until exactly ``count`` workers are registered with the broker."""
        deadline = time.monotonic() + timeout
        while self.broker_status()["workers"] != count:
            if time.monotonic() > deadline:
                raise RuntimeError(f"the broker never had {count} registered workers")
            time.sleep(0.02)

    def stop_workers(self) -> None:
        """Stop every worker and wait until the broker has seen them leave."""
        self.services.stop_workers()
        self.wait_for_workers(0)

    def iterate(self):
        engine = BenchmarkEngine(self.seed, max_workers=1, sample_shard_shots=self.shard_shots)
        with engine:
            self.expected_chunks = -(-self.shots // engine.sample_shard_shots)
            report = run_bv_single_example(
                num_qubits=10 if self.full else 5,
                device=ibm_paris(),
                shots=self.shots,
                seed=CIRCUIT_SEED,
                engine=engine,
            )
        return report, engine.batches

    def row_job(self, row_index: int) -> int:
        return 0

    def pst_pairs(self, report) -> list[tuple[float, float]]:
        return [(report.summary["baseline_pst"], report.summary["hammer_pst"])]

    def inspect(self, report):
        """The job failed if it left the broker or the broker did not run its chunks.

        In connect mode the transport provenance carries the broker's
        lifetime counters, so the check is on how far they moved since the
        previous iteration.
        """
        transport = report.meta.get("planner", {}).get("transport", {})
        if transport.get("executor") != "broker":
            return {0: f"shard executor was {transport.get('executor')!r}, not the broker"}, {}
        if transport.get("fallbacks"):
            return {0: "fell back off the broker"}, {}
        completed = transport["chunks_completed"] - self.chunks_completed
        reissued = transport["leases_reissued"] - self.leases_reissued
        self.chunks_completed = transport["chunks_completed"]
        self.leases_reissued = transport["leases_reissued"]
        problems = {}
        if completed != self.expected_chunks:
            problems[0] = f"the broker completed {completed} chunks, not {self.expected_chunks}"
        return problems, {"transport.leases_reissued": reissued}


WORKLOADS = {workload.name: workload for workload in (Fig8Cold, ZooWarm, ShotsBroker)}
