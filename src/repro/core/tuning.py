"""Machine- and environment-aware sizing of the pairwise Hamming kernels.

The ``O(N^2)`` kernels in :mod:`repro.core.kernels` evaluate the pairwise
structure of a histogram support in bounded-memory pieces.  Two sizes govern
that evaluation:

* the **pairwise block budget** — how many pairwise entries (one entry = one
  ``(x, y)`` distance) a ``dense``-plan row-block may hold at once.  This was a
  hard-coded constant before; it is now overridable via
  ``REPRO_PAIRWISE_BLOCK_ENTRIES`` (the historical default of 4,000,000 is
  kept so existing float accumulation orders are unchanged when the variable
  is unset);
* the **tile shape** of the symmetric (triangular) kernels — auto-tuned at
  import from the detected last-level data cache so one tile's working set
  (the uint64 XOR tile plus its popcount/weight/mask temporaries) stays
  cache-resident.  ``REPRO_TILE_ENTRIES`` overrides the tuned value.

Tuning is *deterministic*: sizes derive from ``/sys`` cache topology (with a
fixed fallback), never from timing runs, so repeated runs — and worker
processes of the same sweep — always agree on accumulation order.

``REPRO_HAMMER_KERNEL`` force-selects a kernel plan (``dense`` / ``tiled`` /
``streaming`` / ``spectral``) for benchmarking and differential testing;
:func:`kernel_override` reads it and :func:`set_kernel_override` sets it
programmatically (benchmarks use this to time before/after pairs in one
process).  Without an override the kernel layer's fixed shape rules choose
the plan.

The ``spectral`` plan takes no size from this module.  Its split between
transformed probability levels and the pairwise sweep is a closed-form
choice, minimising ``2·m·n·2ⁿ·c + N_high(m)²/2`` with one fixed constant
``c`` (:data:`repro.core.kernels.SPECTRAL_TRANSFORM_COST`; no environment
variable), and its stacked transforms are capped at 8 MiB per block.  Each
transform also holds one work array of its block's size, so a block peaks
at twice its size, 16 MiB at ``n = 20``: 4 MiB more than the in-place
butterfly it replaced, which copied half a block per stage.  Transform
scores below ``τ = ½·min(W[d] > 0)·min P`` snap to exact zero, so
its outputs stay within a relative 1e-12 of ``tiled``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import DistributionError

__all__ = [
    "KERNEL_PLANS",
    "kernel_override",
    "set_kernel_override",
    "forced_kernel",
    "pairwise_block_entries",
    "pairwise_block_size",
    "tile_entries",
    "tile_shape",
    "detected_cache_bytes",
    "tuning_report",
]

#: Valid kernel plan names, all four shape-dispatched.  A forced ``dense``
#: runs the pre-PR5 two-pass arithmetic at any support size (the benchmark
#: baseline and differential reference).  ``spectral`` scores the lowest
#: probability levels by Walsh–Hadamard transforms and sweeps only the rest
#: pairwise, at a split minimising ``2·m·n·2ⁿ·c + N_high(m)²/2``;
#: transform scores below ``τ = ½·min(W[d] > 0)·min P`` snap to exact zero,
#: and results hold to ``tiled`` within a relative 1e-12.  It needs the dense
#: hypercube, so a forced ``spectral`` on a register wider than 20 bits runs
#: ``tiled``.
KERNEL_PLANS = ("dense", "tiled", "streaming", "spectral")

_ENV_KERNEL = "REPRO_HAMMER_KERNEL"
_ENV_BLOCK_ENTRIES = "REPRO_PAIRWISE_BLOCK_ENTRIES"
_ENV_TILE_ENTRIES = "REPRO_TILE_ENTRIES"

#: Historical pairwise-entry budget (PR 1-4 hard-coded this); kept as the
#: default so dense-plan float accumulation orders are bit-stable.
_DEFAULT_BLOCK_ENTRIES = 4_000_000

_MIN_BLOCK_ENTRIES = 1 << 16
_MAX_BLOCK_ENTRIES = 1 << 28

#: Tile entries ~ cache bytes: the *hot* per-entry operands of a symmetric
#: tile (the uint16 distances and the boolean filter mask) are ~3 bytes, so
#: one entry per cache byte keeps them resident while the bulkier uint64 XOR
#: and float64 weight tiles stream through.  Tiles are clamped to >= 2^20
#: entries because each tile costs a fixed number of numpy dispatches —
#: smaller tiles drown the sweep in per-call overhead long before cache
#: misses matter.
_MIN_TILE_ENTRIES = 1 << 20
_MAX_TILE_ENTRIES = 1 << 23

_FALLBACK_CACHE_BYTES = 1 << 20  # 1 MiB: a conservative L2

_override: str | None = None


def _parse_positive_int(env_name: str) -> int | None:
    raw = os.environ.get(env_name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError as error:
        raise DistributionError(
            f"{env_name} must be a positive integer, got {raw!r}"
        ) from error
    if value <= 0:
        raise DistributionError(f"{env_name} must be positive, got {value}")
    return value


def _detect_cache_bytes() -> int:
    """Largest per-core data cache reported by ``/sys`` (fallback: 1 MiB).

    Deterministic on a given machine: worker processes of one sweep always
    derive the same tile shape, so accumulation order never depends on
    scheduling.
    """
    best = 0
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_root.glob("index*")):
            try:
                cache_type = (index / "type").read_text().strip()
                level = int((index / "level").read_text().strip())
                size_text = (index / "size").read_text().strip()
            except (OSError, ValueError):
                continue
            if cache_type not in ("Data", "Unified") or level > 2:
                continue
            if size_text.endswith("K"):
                size = int(size_text[:-1]) * 1024
            elif size_text.endswith("M"):
                size = int(size_text[:-1]) * 1024 * 1024
            else:
                size = int(size_text)
            best = max(best, size)
    except OSError:
        pass
    return best or _FALLBACK_CACHE_BYTES


_CACHE_BYTES = _detect_cache_bytes()


def detected_cache_bytes() -> int:
    """The cache size (bytes) the import-time tuner derived tile sizes from."""
    return _CACHE_BYTES


def kernel_override() -> str | None:
    """The forced kernel plan, if any (env ``REPRO_HAMMER_KERNEL`` or API)."""
    if _override is not None:
        return _override
    raw = os.environ.get(_ENV_KERNEL)
    if raw is None or not raw.strip():
        return None
    name = raw.strip().lower()
    if name == "auto":
        return None
    if name not in KERNEL_PLANS:
        raise DistributionError(
            f"{_ENV_KERNEL}={raw!r} is not a kernel plan; expected one of "
            f"{KERNEL_PLANS + ('auto',)}"
        )
    return name


def set_kernel_override(name: str | None) -> None:
    """Force a kernel plan programmatically (``None``/``"auto"`` restores dispatch)."""
    global _override
    if name is None or name == "auto":
        _override = None
        return
    if name not in KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {name!r}; expected one of {KERNEL_PLANS + ('auto',)}"
        )
    _override = name


@contextmanager
def forced_kernel(name: str):
    """Force a kernel plan inside a ``with`` block, then restore the previous override."""
    global _override
    previous = _override
    set_kernel_override(name)
    try:
        yield
    finally:
        _override = previous


def pairwise_block_entries() -> int:
    """Pairwise entries one dense-plan row-block may hold (env-overridable)."""
    value = _parse_positive_int(_ENV_BLOCK_ENTRIES)
    if value is None:
        return _DEFAULT_BLOCK_ENTRIES
    return max(_MIN_BLOCK_ENTRIES, min(_MAX_BLOCK_ENTRIES, value))


def pairwise_block_size(num_outcomes: int) -> int:
    """Rows per block for an ``O(N^2)`` pairwise sweep under the entry budget."""
    budget = pairwise_block_entries()
    return max(1, min(num_outcomes, budget // max(1, num_outcomes)))


def tile_entries() -> int:
    """Entries per symmetric tile: ``REPRO_TILE_ENTRIES``, else the cache size.

    The clamp applies to both, so neither can push a tile outside the sane
    range.
    """
    value = _parse_positive_int(_ENV_TILE_ENTRIES)
    if value is None:
        value = _CACHE_BYTES
    return max(_MIN_TILE_ENTRIES, min(_MAX_TILE_ENTRIES, value))


def tile_shape(num_outcomes: int) -> tuple[int, int]:
    """``(rows, cols)`` of one symmetric tile for an ``N x N`` triangular sweep.

    Tiles are wide rather than square — the inner accumulations are row-major
    reductions (matvec / bincount over contiguous rows), which favour long
    contiguous columns — but rows are kept >= 64 so the triangular sweep does
    not degenerate into row-at-a-time passes.
    """
    entries = tile_entries()
    cols = max(1, min(num_outcomes, entries // 64))
    rows = max(1, min(num_outcomes, max(64, entries // max(1, min(num_outcomes, cols)))))
    return rows, cols


def tuning_report() -> dict[str, object]:
    """Flat summary of the effective tuning decisions (for ``repro profile``)."""
    return {
        "cache_bytes": _CACHE_BYTES,
        "pairwise_block_entries": pairwise_block_entries(),
        "tile_entries": tile_entries(),
        "kernel_override": kernel_override() or "auto",
    }
