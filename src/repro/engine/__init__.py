"""Shared job-based execution engine for all paper sweeps.

Studies express their sweep as a batch of :class:`CircuitJob` objects and
hand it to an :class:`ExecutionEngine`, which owns transpilation, ideal
(statevector) simulation, noisy sampling, content-addressed caching of the
deterministic artifacts, and optional process-pool parallelism — with
per-job RNG streams that make row-level results bit-identical regardless of
worker count.
"""

from repro.engine.broker import BrokerExecutor, BrokerWorker, ShardBroker
from repro.engine.cache import ExecutionCache
from repro.engine.engine import ExecutionEngine
from repro.engine.executors import (
    ProcessPoolShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    resolve_shard_executor,
)
from repro.engine.hashing import (
    circuit_fingerprint,
    coupling_fingerprint,
    hammer_key,
    ideal_key,
    noise_fingerprint,
    sample_key,
    transpile_key,
)
from repro.engine.jobs import CircuitJob, JobResult
from repro.engine.reduction import ReductionStats, ReductionTree
from repro.engine.transport import FaultInjectingExecutor

__all__ = [
    "CircuitJob",
    "JobResult",
    "ExecutionEngine",
    "ExecutionCache",
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessPoolShardExecutor",
    "FaultInjectingExecutor",
    "ShardBroker",
    "BrokerWorker",
    "BrokerExecutor",
    "resolve_shard_executor",
    "ReductionTree",
    "ReductionStats",
    "circuit_fingerprint",
    "coupling_fingerprint",
    "hammer_key",
    "ideal_key",
    "noise_fingerprint",
    "sample_key",
    "transpile_key",
]
