"""Exception hierarchy for the HAMMER reproduction package.

All package-specific errors derive from :class:`ReproError` so callers can
catch a single exception type at API boundaries while still being able to
distinguish configuration problems from numerical/validation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class BitstringError(ReproError):
    """Raised when a bitstring is malformed (wrong alphabet or width)."""


class DistributionError(ReproError):
    """Raised when an outcome distribution is invalid.

    Examples include empty distributions, negative probabilities, or
    mixing outcomes of different bit widths.
    """


class CircuitError(ReproError):
    """Raised for invalid circuit construction or execution requests."""


class NoiseModelError(ReproError):
    """Raised when a noise channel or noise model is misconfigured."""


class TranspilerError(ReproError):
    """Raised when a circuit cannot be mapped onto a target device."""


class DeviceError(ReproError):
    """Raised when a device profile is malformed or unknown."""


class GraphError(ReproError):
    """Raised for invalid max-cut problem graphs."""


class EngineError(ReproError):
    """Raised when an execution-engine job batch or cache is misconfigured."""


class MergeError(EngineError):
    """Raised when sharded partial histograms cannot be merged.

    Merging shot-shard segments is an engine concern (the reduction tree in
    :mod:`repro.engine.reduction`), so this derives from :class:`EngineError`.
    (A deprecated ``NoiseModelError`` parentage — compatibility for
    historical ``merge_counted_chunks`` callers — was kept for one release
    and has been dropped; catch :class:`MergeError` or :class:`EngineError`.)
    """


class TransportError(EngineError):
    """Raised when the broker shard transport fails terminally.

    Covers protocol violations (truncated/oversized frames), a remote task
    raising on its worker (re-raised here — deterministic failures are not
    retried), and a broker connection lost or idle past its timeout.
    """


class HostUnavailableError(TransportError):
    """Raised when a pull worker cannot reach its broker.

    :class:`~repro.engine.broker.BrokerWorker` retries the connect with
    backoff until its connect timeout (``REPRO_SHARD_JOIN_DEADLINE`` by
    default) runs out, then raises this.
    """


class AuthenticationError(TransportError):
    """Raised when a shard transport frame fails HMAC verification.

    Every authenticated frame carries HMAC-SHA256 digests (keyed by
    ``REPRO_SHARD_KEY``) over its length header and payload; a mismatch —
    a tampered byte, a peer with a different key, or an unauthenticated
    peer talking to a keyed endpoint — raises this *before* any attempt to
    unpickle the payload.  Deterministic, so never retried.
    """


class BackendError(ReproError):
    """Raised when a simulation backend cannot run a circuit.

    Examples include unknown backend names, circuits wider than a backend's
    limit, and non-Clifford gates handed to the stabilizer backend.
    """


class ObservabilityError(ReproError):
    """Raised when the tracing/metrics layer is misused or misconfigured.

    Examples include activating a second observation while one is already
    active and merging a malformed worker metrics payload.
    """


class ExperimentError(ReproError):
    """Raised when an experiment is configured inconsistently."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset request cannot be satisfied."""
