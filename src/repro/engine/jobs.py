"""Job and result schema of the execution engine.

A :class:`CircuitJob` describes one circuit execution request — the logical
circuit, the shot budget, the noise model, the ideal-simulation backend and
(optionally) the device shape to transpile onto.  Every job samples the
bit-flip + scramble model of :mod:`repro.quantum.sampler`.  The engine turns
a batch of jobs into :class:`JobResult` objects carrying both histograms
plus the per-job timing and cache-hit metadata the experiment reports
surface.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.backends import AUTO_BACKEND, available_backends, get_backend
from repro.core.distribution import Distribution
from repro.exceptions import DeviceError, EngineError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.coupling import CouplingMap
from repro.quantum.device import DeviceProfile
from repro.quantum.noise import NoiseModel

__all__ = ["CircuitJob", "JobResult"]


@dataclass(frozen=True)
class CircuitJob:
    """One circuit-execution request in an engine batch.

    Attributes
    ----------
    job_id:
        Identifier, unique within its batch (used for result bookkeeping and
        the cache-trace rows).
    circuit:
        The logical circuit to execute.
    shots:
        Number of noisy trials to sample.
    noise_model:
        Noise description of the simulated device (already scaled by the
        study's ``noise_scale`` if any).
    coupling_map / basis_gates:
        Transpilation target.  When both are ``None`` the circuit runs as-is
        (no routing, no basis decomposition).
    device:
        Optional :class:`~repro.quantum.device.DeviceProfile` the job
        targets.  Used for width validation at submission time (see
        :meth:`validate_width`) and as provenance; it does **not** imply
        transpilation — pass ``coupling_map``/``basis_gates`` for that.
    map_to_logical:
        When the circuit was routed, un-permute the measured bitstrings (and
        the ideal distribution) back to logical qubit order.
    backend:
        Ideal-simulation backend: a registry name
        (``"statevector"``/``"stabilizer"``) or ``"auto"`` (the default),
        which picks the stabilizer tableau whenever the executed
        (post-transpile) circuit is Clifford and the dense statevector
        otherwise.  Both backends return the same ideal distribution, so no
        histogram moves, but the resolved backend is part of the ideal and
        sample cache keys: a ``--cache-dir`` written while Clifford jobs
        defaulted to the statevector misses once.
    metadata:
        Free-form study-level tags (device name, sweep coordinates, …),
        copied onto the :class:`JobResult`.
    """

    job_id: str
    circuit: QuantumCircuit
    shots: int
    noise_model: NoiseModel
    coupling_map: CouplingMap | None = None
    basis_gates: tuple[str, ...] | None = None
    device: DeviceProfile | None = None
    map_to_logical: bool = True
    backend: str = AUTO_BACKEND
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise EngineError("job_id must be a non-empty string")
        if self.shots <= 0:
            raise EngineError(f"job {self.job_id!r}: shots must be positive, got {self.shots}")
        if self.backend != AUTO_BACKEND and self.backend not in available_backends():
            raise EngineError(
                f"job {self.job_id!r}: unknown backend {self.backend!r}; "
                f"expected one of {available_backends()} or {AUTO_BACKEND!r}"
            )

    @property
    def wants_transpile(self) -> bool:
        """True when the job requests routing and/or basis decomposition."""
        return self.coupling_map is not None or self.basis_gates is not None

    def validate_width(self) -> None:
        """Check that the circuit fits every width-bearing target of the job.

        Called by the engine at submission time so that a circuit wider than
        its device fails with a :class:`~repro.exceptions.DeviceError`
        naming the device and both widths — instead of an index error deep
        inside the routing pass or the bit-flip sampler.
        """
        width = self.circuit.num_qubits
        if self.device is not None and not self.device.supports_circuit_width(width):
            raise DeviceError(
                f"job {self.job_id!r}: circuit {self.circuit.name!r} needs {width} qubits "
                f"but device {self.device.name!r} has {self.device.num_qubits}"
            )
        if self.coupling_map is not None and width > self.coupling_map.num_qubits:
            raise DeviceError(
                f"job {self.job_id!r}: circuit {self.circuit.name!r} needs {width} qubits "
                f"but coupling map {self.coupling_map.name!r} has {self.coupling_map.num_qubits}"
            )
        calibration = self.noise_model.calibration
        if calibration is not None and not calibration.supports_width(width):
            raise DeviceError(
                f"job {self.job_id!r}: circuit {self.circuit.name!r} needs {width} qubits "
                f"but the calibration of device {calibration.device_name!r} covers only "
                f"{calibration.num_qubits}"
            )
        # Explicit backend choices fail on width here (transpilation never
        # changes the register width); "auto" resolves on the executed
        # circuit's gate set inside the engine's ideal phase.
        if self.backend != AUTO_BACKEND:
            limit = get_backend(self.backend).max_qubits()
            if limit is not None and width > limit:
                raise DeviceError(
                    f"job {self.job_id!r}: circuit {self.circuit.name!r} needs {width} "
                    f"qubits but the {self.backend!r} backend is limited to {limit}"
                )


@dataclass
class JobResult:
    """Outcome of one executed :class:`CircuitJob`.

    ``noisy`` and ``ideal`` are in logical bit order when the job asked for
    ``map_to_logical`` (the default), physical order otherwise.  The timing
    fields attribute shared prepare work (transpile + ideal simulation) to
    the first job in the batch that triggered it; cache hits report 0.0.
    """

    job_id: str
    noisy: Distribution
    ideal: Distribution
    num_qubits: int
    two_qubit_gates: int
    depth: int
    num_swaps: int
    transpiled: bool
    transpile_cache_hit: bool
    ideal_cache_hit: bool
    prepare_seconds: float
    sample_seconds: float
    metadata: dict[str, Any] = field(default_factory=dict)
    sample_cache_hit: bool = False
    #: ``permutation[logical_bit] = physical_bit`` of the routed circuit, set
    #: when the histograms were un-permuted to logical order (transpiled jobs
    #: with ``map_to_logical``).  Per-physical-qubit quantities — calibration
    #: readout rates, accumulated flip probabilities of ``executed_circuit``
    #: — must be gathered through :meth:`to_logical_order` before being
    #: applied to the (logical) histograms.  ``None`` means histograms are in
    #: physical/circuit order.
    measurement_permutation: tuple[int, ...] | None = None
    #: The circuit that was actually simulated and sampled (routed +
    #: decomposed when the job transpiled, the input circuit otherwise).
    #: Qubit indices are physical.
    executed_circuit: QuantumCircuit | None = None
    #: Resolved ideal-simulation backend ("statevector" or "stabilizer"; an
    #: ``"auto"`` job records what the dispatch actually picked).
    backend: str = "statevector"

    def to_logical_order(self, per_physical_qubit: "np.ndarray") -> "np.ndarray":
        """Gather a per-physical-qubit array into the histograms' bit order.

        ``result[l] = per_physical_qubit[permutation[l]]`` — logical bit
        ``l`` was measured on physical qubit ``permutation[l]``, so its
        readout/flip rates live at that physical index.  Identity when the
        job was not routed (or ran in physical order).
        """
        if self.measurement_permutation is None:
            return per_physical_qubit
        return per_physical_qubit[list(self.measurement_permutation)]

    def as_trace_row(self) -> dict[str, Any]:
        """Flat row of this job's shape, backend, cache hits and seconds.

        :func:`~repro.experiments.runner.attach_engine_meta` lists one per
        job under ``report.meta["jobs"]``.
        """
        return {
            "job_id": self.job_id,
            "num_qubits": self.num_qubits,
            "two_qubit_gates": self.two_qubit_gates,
            "backend": self.backend,
            "transpile_cache_hit": self.transpile_cache_hit,
            "ideal_cache_hit": self.ideal_cache_hit,
            "sample_cache_hit": self.sample_cache_hit,
            "prepare_seconds": self.prepare_seconds,
            "sample_seconds": self.sample_seconds,
        }
