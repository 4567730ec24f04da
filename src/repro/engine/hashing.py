"""Stable content hashes for circuits and transpilation targets.

The execution engine's cache is content-addressed: two jobs share a cache
entry exactly when their circuit (instruction list), coupling map and basis
gates are identical.  The fingerprints below are computed from a canonical
binary encoding — gate names are length-prefixed, qubit indices and float
parameters are packed at fixed width — so the digest is stable across
processes and Python sessions (unlike ``hash()``, which is salted).

The encoding is :meth:`QuantumCircuit.canonical_bytes
<repro.quantum.circuit.QuantumCircuit.canonical_bytes>`, built from the
circuit's instruction table and memoised on the circuit: every key below
digests the same bytes, so an executed circuit is encoded once for its ideal
key and its sample key.

:func:`hammer_key` is the one key that digests no circuit: it addresses a
HAMMER reconstruction by the histogram's own arrays and the config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

from repro.core import tuning
from repro.core.distribution import Distribution
from repro.core.hammer import HammerConfig
from repro.core.weights import WeightScheme, resolve_weight_scheme
from repro.exceptions import EngineError
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
    "hammer_key",
]


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Hex digest identifying a circuit by its exact instruction content.

    The circuit ``name`` is deliberately excluded: it is a display label and
    must not split cache entries for structurally identical circuits.
    """
    digest = hashlib.sha256(b"repro-circuit-v1")
    digest.update(circuit.canonical_bytes())
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
    digest.update(circuit.canonical_bytes())
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
    digest.update(circuit.canonical_bytes())
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
    entropy: tuple[int, ...],
    backend: str = "statevector",
    shard_shots: int | None = None,
) -> str:
    """Cache key of one noisy sampling run.

    Sampling is deterministic given the executed circuit, the noise model,
    the shot budget, the RNG seed entropy *and* the ideal-simulation backend
    (the sampler draws rows from the backend's ideal support, whose float
    probabilities differ between backends at the last ulp) — the engine
    derives every job's generator from ``(seed, batch index)``, so including
    that entropy here makes cached histograms exactly the ones an uncached
    run would draw, preserving worker-count bit-identity.

    ``shard_shots`` is the chunk size of a sharded job (``None`` for the
    unsharded path).  A sharded job consumes per-chunk RNG streams instead
    of one job stream, so its histogram differs from the unsharded draw at
    the same entropy — the layout must be part of the key.  Leaving it out
    of the digest when ``None`` keeps every pre-existing persistent-cache
    key valid.

    The digest still carries the length-prefixed name ``bitflip`` of the
    one sampling model, where keys once carried a per-job method: every
    existing key, ``--cache-dir`` file name and pinned digest stays put.
    """
    digest = hashlib.sha256(b"repro-sample-v2")
    digest.update(circuit.canonical_bytes())
    digest.update(noise_fingerprint(noise_model).encode("ascii"))
    digest.update(struct.pack("<q", shots))
    model = b"bitflip"
    digest.update(struct.pack("<q", len(model)))
    digest.update(model)
    digest.update(struct.pack("<q", len(entropy)))
    digest.update(struct.pack(f"<{len(entropy)}q", *entropy))
    digest.update(("backend:" + backend).encode("utf-8"))
    if shard_shots is not None:
        digest.update(struct.pack("<q", shard_shots))
    return digest.hexdigest()


def _update_value(digest, value) -> None:
    """Feed one config value into ``digest``, tagged by kind, numbers exactly.

    A weight scheme, nested ones included, is keyed by its class and fields;
    a sequence or dict by its items in order, so a reordered dict costs a
    miss, never a wrong hit.  A value with no stable encoding (a callable,
    an arbitrary object) is refused.
    """
    if value is None:
        digest.update(b"N")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        digest.update(b"S" + struct.pack("<q", len(data)) + data)
    elif isinstance(value, (float, np.floating)):
        digest.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, (bool, int, np.bool_, np.integer)):
        data = str(int(value)).encode("ascii")
        digest.update(b"I" + struct.pack("<q", len(data)) + data)
    elif isinstance(value, WeightScheme):
        digest.update(b"W")
        _update_value(digest, f"{type(value).__module__}.{type(value).__qualname__}")
        _update_items(digest, sorted(vars(value).items()))
    elif isinstance(value, dict):
        digest.update(b"M")
        _update_items(digest, list(value.items()))
    elif isinstance(value, (tuple, list)):
        if all(type(item) is float for item in value):
            digest.update(b"D" + struct.pack(f"<q{len(value)}d", len(value), *value))
        else:
            digest.update(b"L" + struct.pack("<q", len(value)))
            for item in value:
                _update_value(digest, item)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "biuf":
        array = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
        digest.update(b"A")
        _update_value(digest, array.dtype.str)
        _update_value(digest, array.shape)
        digest.update(array)
    else:
        raise EngineError(f"cannot key a HAMMER config holding {value!r}")


def _update_items(digest, items: list) -> None:
    """Feed ``(name, value)`` pairs into ``digest``, count first."""
    digest.update(struct.pack("<q", len(items)))
    for name, value in items:
        _update_value(digest, name)
        _update_value(digest, value)


def hammer_key(distribution: Distribution, config: HammerConfig | None = None) -> str:
    """Cache key of one HAMMER reconstruction: the histogram's content plus the config.

    HAMMER is a pure function of what it reads, so the key needs no job
    context and no measurement permutation can make it stale.  It digests:

    * the width and the packed support's uint64 words and probability
      vector (what the kernel reads), plus the raw weights and their total
      (what the degenerate all-zero-score fallback returns), each array
      through the buffer protocol (uncopied on a little-endian host);
    * every field of the config in declaration order, the weight scheme
      resolved to an instance (``None``, ``HammerConfig()`` and
      ``"inverse_chs"`` share one key) and keyed by its class and fields;
    * the kernel context that can move output bits: the forced plan, if
      any.  The tile and block sizes that fix accumulation order are
      constants of :mod:`repro.core.kernels`, so the tag covers them.

    v2: any change that moves a HAMMER output bit (kernel arithmetic, a
    kernel size, a split constant, a plan rule, a weight formula) must bump
    the tag, or a warm ``--cache-dir`` keeps replaying the old bits.
    """
    if config is None:
        config = HammerConfig()
    packed = distribution.packed()
    digest = hashlib.sha256(b"repro-hammer-v2")
    digest.update(
        struct.pack("<qqd", packed.num_bits, packed.num_outcomes, distribution.total_weight)
    )
    digest.update(np.ascontiguousarray(packed.words, dtype="<u8"))
    digest.update(np.ascontiguousarray(packed.probabilities, dtype="<f8"))
    digest.update(np.ascontiguousarray(distribution.weight_vector(), dtype="<f8"))
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "weight_scheme":
            value = resolve_weight_scheme(value)
        _update_value(digest, field.name)
        _update_value(digest, value)
    _update_value(digest, tuning.kernel_override())
    return digest.hexdigest()
