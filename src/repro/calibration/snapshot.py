"""Per-qubit / per-edge device calibration snapshots.

Real NISQ machines are not uniform: every qubit has its own readout
assignment errors, every coupler its own two-qubit gate error, and both
drift between calibration runs.  The paper's evaluation leans on exactly
this heterogeneity — the three IBM machines share a topology family but
differ qubit-by-qubit — whereas the simulator's :class:`NoiseModel`
historically carried one scalar per error channel.

A :class:`CalibrationSnapshot` is the bridge: a frozen record of

* per-qubit readout flip vectors ``p10`` (read 1 given 0) and ``p01``,
* per-qubit single-qubit gate errors,
* per-edge two-qubit gate errors (edges in canonical ``a < b`` order),
* per-qubit idle (decoherence) rates per depth layer,

plus the metadata needed to reproduce it (``device_name``, ``seed``,
``drift_time``).  Snapshots are immutable, value-comparable, strictly
JSON round-trippable (``from_json(to_json(s)) == s`` exactly — Python's
``repr``-based float serialisation is lossless) and content-addressable
via :meth:`fingerprint`, which the execution engine folds into its cache
keys so heterogeneous runs never collide with uniform ones.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.exceptions import NoiseModelError

__all__ = ["CalibrationSnapshot"]

_QUBIT_FIELDS = ("p10", "p01", "single_qubit_error", "idle_error_per_layer")


def _as_rate_array(name: str, values, expected_length: int) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.shape[0] != expected_length:
        raise NoiseModelError(
            f"calibration field {name!r} must be a 1-D array of length "
            f"{expected_length}, got shape {array.shape}"
        )
    if not np.all((array >= 0.0) & (array <= 1.0)):
        raise NoiseModelError(f"calibration field {name!r} must lie in [0, 1]")
    array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class CalibrationSnapshot:
    """One calibration run of a (simulated) device.

    Attributes
    ----------
    device_name:
        Name of the device the snapshot describes (e.g. ``"ibm-paris"``).
    num_qubits:
        Number of physical qubits covered by the per-qubit vectors.
    p10 / p01:
        Per-qubit readout flip probabilities ``P(read 1 | prepared 0)``
        and ``P(read 0 | prepared 1)``.
    single_qubit_error:
        Per-qubit depolarizing error probability of single-qubit gates.
    idle_error_per_layer:
        Per-qubit error probability accumulated per layer of circuit depth.
    edges / two_qubit_error:
        Parallel sequences: ``two_qubit_error[i]`` is the depolarizing error
        (per qubit) of two-qubit gates on coupler ``edges[i]``.  Edges are
        canonical ``(min, max)`` pairs, sorted and unique.  Pairs without an
        entry fall back to the median two-qubit error (logical circuits may
        apply gates on uncoupled pairs before routing).
    seed:
        Seed the snapshot was generated from; also the anchor that makes
        :meth:`drifted` deterministic.
    drift_time:
        Time coordinate (arbitrary units) of this snapshot relative to the
        generating calibration; 0.0 for a fresh calibration.
    """

    device_name: str
    num_qubits: int
    p10: np.ndarray
    p01: np.ndarray
    single_qubit_error: np.ndarray
    idle_error_per_layer: np.ndarray
    edges: tuple[tuple[int, int], ...]
    two_qubit_error: np.ndarray
    seed: int = 0
    drift_time: float = 0.0

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise NoiseModelError(f"num_qubits must be positive, got {self.num_qubits}")
        for name in _QUBIT_FIELDS:
            object.__setattr__(self, name, _as_rate_array(name, getattr(self, name), self.num_qubits))
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if not (0 <= a < b < self.num_qubits):
                raise NoiseModelError(
                    f"edge ({a}, {b}) is not canonical (need 0 <= a < b < {self.num_qubits})"
                )
            if (a, b) in seen:
                raise NoiseModelError(f"duplicate calibration edge ({a}, {b})")
            seen.add((a, b))
        if edges != tuple(sorted(edges)):
            raise NoiseModelError("calibration edges must be sorted")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(
            self,
            "two_qubit_error",
            _as_rate_array("two_qubit_error", self.two_qubit_error, len(edges)),
        )
        if self.drift_time < 0:
            raise NoiseModelError(f"drift_time must be >= 0, got {self.drift_time}")

    # ------------------------------------------------------------------
    # Value semantics (ndarray fields break the generated __eq__/__hash__)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CalibrationSnapshot):
            return NotImplemented
        return (
            self.device_name == other.device_name
            and self.num_qubits == other.num_qubits
            and self.edges == other.edges
            and self.seed == other.seed
            and self.drift_time == other.drift_time
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (*_QUBIT_FIELDS, "two_qubit_error")
            )
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @cached_property
    def median_two_qubit_error(self) -> float:
        """Median coupler error; fallback for pairs without an entry."""
        if len(self.edges) == 0:
            return 0.0
        return float(np.median(self.two_qubit_error))

    def edge_error(self, qubit_a: int, qubit_b: int) -> float:
        """Two-qubit gate error of a pair (median fallback for unlisted pairs)."""
        if 0 <= qubit_a < self.num_qubits and 0 <= qubit_b < self.num_qubits:
            return float(self.edge_error_matrix[qubit_a, qubit_b])
        return self.median_two_qubit_error

    @cached_property
    def edge_error_matrix(self) -> np.ndarray:
        """``(n, n)`` two-qubit gate error of every ordered pair of covered qubits.

        Listed couplers in both orientations; every other pair, the diagonal
        included, holds :attr:`median_two_qubit_error`.
        """
        matrix = np.full((self.num_qubits, self.num_qubits), self.median_two_qubit_error)
        if self.edges:
            first, second = np.array(self.edges).T
            matrix[first, second] = self.two_qubit_error
            matrix[second, first] = self.two_qubit_error
        matrix.setflags(write=False)
        return matrix

    def edge_errors(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """:meth:`edge_error` of many pairs at once (pairs outside ``[0, n)`` get the median)."""
        inside = (first >= 0) & (first < self.num_qubits) & (second >= 0) & (second < self.num_qubits)
        if inside.all():
            return self.edge_error_matrix[first, second]
        errors = np.full(first.shape, self.median_two_qubit_error)
        errors[inside] = self.edge_error_matrix[first[inside], second[inside]]
        return errors

    def supports_width(self, num_qubits: int) -> bool:
        """True when the per-qubit vectors cover a circuit of this width."""
        return num_qubits <= self.num_qubits

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "CalibrationSnapshot":
        """All rates multiplied by ``factor``, capped per entry at 1.0."""
        if factor < 0:
            raise NoiseModelError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            **{
                name: np.minimum(1.0, getattr(self, name) * factor)
                for name in (*_QUBIT_FIELDS, "two_qubit_error")
            },
        )

    def drifted(self, time: float, drift_scale: float = 0.05) -> "CalibrationSnapshot":
        """Deterministic calibration drift: each rate takes a lognormal step.

        Every per-qubit and per-edge rate is multiplied by an independent
        ``exp(N(0, drift_scale * sqrt(time)))`` factor (a geometric random
        walk — the textbook model for rates that decay/recover between
        calibrations), capped at 1.  The walk is seeded from the snapshot
        seed plus the *interval* ``[drift_time, drift_time + time]``, so the
        same snapshot drifted over the same interval is always the same
        snapshot, while successive steps (``drifted(t).drifted(t)``) draw
        independent factors; ``time == 0`` is the identity.
        """
        if time < 0:
            raise NoiseModelError(f"drift time must be >= 0, got {time}")
        if drift_scale < 0:
            raise NoiseModelError(f"drift_scale must be >= 0, got {drift_scale}")
        if time == 0 or drift_scale == 0:
            return self
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (
                    self.seed % (2**64),
                    int(round(self.drift_time * 1e6)),
                    int(round((self.drift_time + time) * 1e6)),
                    0xD21F7,
                )
            )
        )
        sigma = drift_scale * float(np.sqrt(time))
        drifted_fields = {}
        for name in (*_QUBIT_FIELDS, "two_qubit_error"):
            values = getattr(self, name)
            factors = np.exp(rng.normal(0.0, sigma, size=values.shape))
            drifted_fields[name] = np.minimum(1.0, values * factors)
        return replace(self, drift_time=self.drift_time + time, **drifted_fields)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        """Strict JSON encoding; round-trips exactly through :meth:`from_json`."""
        payload = {
            "device_name": self.device_name,
            "num_qubits": self.num_qubits,
            "seed": self.seed,
            "drift_time": self.drift_time,
            "edges": [list(edge) for edge in self.edges],
            "two_qubit_error": self.two_qubit_error.tolist(),
            **{name: getattr(self, name).tolist() for name in _QUBIT_FIELDS},
        }
        return json.dumps(payload, indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output (strict: unknown or
        missing keys are errors)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise NoiseModelError(f"invalid calibration JSON: {error}") from error
        if not isinstance(payload, dict):
            raise NoiseModelError("calibration JSON must be an object")
        expected = {"device_name", "num_qubits", "seed", "drift_time", "edges",
                    "two_qubit_error", *_QUBIT_FIELDS}
        missing = expected - payload.keys()
        unknown = payload.keys() - expected
        if missing or unknown:
            raise NoiseModelError(
                f"calibration JSON keys mismatch (missing: {sorted(missing)}, "
                f"unknown: {sorted(unknown)})"
            )
        return cls(
            device_name=str(payload["device_name"]),
            num_qubits=int(payload["num_qubits"]),
            p10=payload["p10"],
            p01=payload["p01"],
            single_qubit_error=payload["single_qubit_error"],
            idle_error_per_layer=payload["idle_error_per_layer"],
            edges=tuple(tuple(edge) for edge in payload["edges"]),
            two_qubit_error=payload["two_qubit_error"],
            seed=int(payload["seed"]),
            drift_time=float(payload["drift_time"]),
        )

    def fingerprint(self) -> str:
        """Stable content hash (device, widths, every rate at full precision)."""
        digest = hashlib.sha256(b"repro-calibration-v1")
        digest.update(self.device_name.encode("utf-8"))
        digest.update(struct.pack("<qqd", self.num_qubits, self.seed, self.drift_time))
        for name in _QUBIT_FIELDS:
            digest.update(getattr(self, name).tobytes())
        digest.update(struct.pack("<q", len(self.edges)))
        for a, b in self.edges:
            digest.update(struct.pack("<qq", a, b))
        digest.update(self.two_qubit_error.tobytes())
        return digest.hexdigest()

    def as_rows(self) -> list[dict[str, float]]:
        """Per-qubit rows for CLI / report tables."""
        return [
            {
                "qubit": qubit,
                "p10": float(self.p10[qubit]),
                "p01": float(self.p01[qubit]),
                "single_qubit_error": float(self.single_qubit_error[qubit]),
                "idle_error_per_layer": float(self.idle_error_per_layer[qubit]),
            }
            for qubit in range(self.num_qubits)
        ]
