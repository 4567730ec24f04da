"""Stable content hashes for circuits and transpilation targets.

The execution engine's cache is content-addressed: two jobs share a cache
entry exactly when their circuit (instruction list), coupling map and basis
gates are identical.  The fingerprints below are computed from a canonical
binary encoding — gate names are length-prefixed, qubit indices and float
parameters are packed at fixed width — so the digest is stable across
processes and Python sessions (unlike ``hash()``, which is salted).
"""

from __future__ import annotations

import hashlib
import struct

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.coupling import CouplingMap
from repro.quantum.noise import NoiseModel

__all__ = [
    "circuit_fingerprint",
    "coupling_fingerprint",
    "noise_fingerprint",
    "transpile_key",
    "ideal_key",
    "sample_key",
]


def _hash_circuit_into(digest: "hashlib._Hash", circuit: QuantumCircuit) -> None:
    digest.update(struct.pack("<q", circuit.num_qubits))
    digest.update(struct.pack("<q", len(circuit.instructions)))
    for instruction in circuit.instructions:
        name = instruction.name.encode("utf-8")
        digest.update(struct.pack("<q", len(name)))
        digest.update(name)
        digest.update(struct.pack("<q", len(instruction.qubits)))
        digest.update(struct.pack(f"<{len(instruction.qubits)}q", *instruction.qubits))
        digest.update(struct.pack("<q", len(instruction.params)))
        if instruction.params:
            digest.update(struct.pack(f"<{len(instruction.params)}d", *instruction.params))


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Hex digest identifying a circuit by its exact instruction content.

    The circuit ``name`` is deliberately excluded: it is a display label and
    must not split cache entries for structurally identical circuits.
    """
    digest = hashlib.sha256(b"repro-circuit-v1")
    _hash_circuit_into(digest, circuit)
    return digest.hexdigest()


def coupling_fingerprint(coupling_map: CouplingMap | None) -> str:
    """Hex digest of a coupling map (qubit count + sorted edge set)."""
    digest = hashlib.sha256(b"repro-coupling-v1")
    if coupling_map is None:
        digest.update(b"none")
        return digest.hexdigest()
    digest.update(struct.pack("<q", coupling_map.num_qubits))
    edges = sorted((min(a, b), max(a, b)) for a, b in coupling_map.edges())
    digest.update(struct.pack("<q", len(edges)))
    for a, b in edges:
        digest.update(struct.pack("<qq", a, b))
    return digest.hexdigest()


def transpile_key(
    circuit: QuantumCircuit,
    coupling_map: CouplingMap | None,
    basis_gates: tuple[str, ...] | None,
) -> str:
    """Cache key of a transpilation request (circuit + target device shape).

    v2: the basis decomposition of odd-quarter-turn diagonal gates changed
    (single faithful ``rz`` instead of a halved-angle ZSXZSXZ split), so
    pre-existing persistent-cache artifacts must not replay the old output —
    a warm ``--cache-dir`` run has to match a cold one exactly.
    """
    digest = hashlib.sha256(b"repro-transpile-v2")
    _hash_circuit_into(digest, circuit)
    digest.update(coupling_fingerprint(coupling_map).encode("ascii"))
    if basis_gates is None:
        digest.update(b"basis:none")
    else:
        digest.update(("basis:" + ",".join(basis_gates)).encode("utf-8"))
    return digest.hexdigest()


def ideal_key(circuit: QuantumCircuit, backend: str = "statevector") -> str:
    """Cache key of a circuit's noise-free measurement distribution.

    The resolved simulation backend is part of the key: two backends produce
    the same distribution up to float rounding, but not bit-identically, and
    cached artifacts must reproduce exactly what an uncached run computes.
    """
    digest = hashlib.sha256(b"repro-ideal-v2")
    _hash_circuit_into(digest, circuit)
    digest.update(("backend:" + backend).encode("utf-8"))
    return digest.hexdigest()


def noise_fingerprint(noise_model: NoiseModel) -> str:
    """Hex digest of a noise model, including any attached calibration.

    The scalar channel rates are packed at full precision; when a
    per-qubit/per-edge :class:`~repro.calibration.snapshot.CalibrationSnapshot`
    is attached its own content fingerprint is folded in, so a calibrated
    model never collides with the uniform model sharing its medians — the
    invariant that keeps heterogeneous and uniform sweeps apart in the
    sample cache.
    """
    digest = hashlib.sha256(b"repro-noise-v1")
    digest.update(
        struct.pack(
            "<6d",
            noise_model.single_qubit_error,
            noise_model.two_qubit_error,
            noise_model.readout_error.prob_1_given_0,
            noise_model.readout_error.prob_0_given_1,
            noise_model.idle_error_per_layer,
            noise_model.crosstalk_error,
        )
    )
    if noise_model.calibration is None:
        digest.update(b"calibration:none")
    else:
        digest.update(b"calibration:")
        digest.update(noise_model.calibration.fingerprint().encode("ascii"))
    return digest.hexdigest()


def sample_key(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int,
    method: str,
    entropy: tuple[int, ...],
    backend: str = "statevector",
    shard_shots: int | None = None,
) -> str:
    """Cache key of one noisy sampling run.

    Sampling is deterministic given the executed circuit, the noise model,
    the shot budget, the sampling method, the RNG seed entropy *and* the
    ideal-simulation backend (the sampler draws rows from the backend's
    ideal support, whose float probabilities differ between backends at the
    last ulp) — the engine derives every job's generator from ``(seed,
    batch index)``, so including that entropy here makes cached histograms
    exactly the ones an uncached run would draw, preserving worker-count
    bit-identity.

    ``shard_shots`` is the chunk size of a sharded job (``None`` for the
    unsharded path).  A sharded job consumes per-chunk RNG streams instead
    of one job stream, so its histogram differs from the unsharded draw at
    the same entropy — the layout must be part of the key.  Leaving it out
    of the digest when ``None`` keeps every pre-existing persistent-cache
    key valid.
    """
    digest = hashlib.sha256(b"repro-sample-v2")
    _hash_circuit_into(digest, circuit)
    digest.update(noise_fingerprint(noise_model).encode("ascii"))
    digest.update(struct.pack("<q", shots))
    method_bytes = method.encode("utf-8")
    digest.update(struct.pack("<q", len(method_bytes)))
    digest.update(method_bytes)
    digest.update(struct.pack("<q", len(entropy)))
    digest.update(struct.pack(f"<{len(entropy)}q", *entropy))
    digest.update(("backend:" + backend).encode("utf-8"))
    if shard_shots is not None:
        digest.update(struct.pack("<q", shard_shots))
    return digest.hexdigest()
