"""The forced kernel plan of the pairwise Hamming kernels.

``REPRO_HAMMER_KERNEL`` force-selects a kernel plan (``dense`` / ``tiled`` /
``spectral``) for benchmarking and differential testing;
:func:`kernel_override` reads it and :func:`set_kernel_override` sets it
programmatically (benchmarks use this to time before/after pairs in one
process).  Without an override the kernel layer's fixed shape rules choose
the plan.

No kernel size is read from the machine or the environment.  The ``dense``
row block, the symmetric tile, the ``spectral`` split's cost constant and
its transform block are constants of :mod:`repro.core.kernels`, so a plan
accumulates in the same order on every machine.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.exceptions import DistributionError

__all__ = [
    "KERNEL_PLANS",
    "kernel_override",
    "set_kernel_override",
    "forced_kernel",
    "tuning_report",
]

#: Valid kernel plan names, all three shape-dispatched.  A forced ``dense``
#: runs the pre-PR5 two-pass arithmetic at any support size (the benchmark
#: baseline and differential reference).  ``spectral`` scores the lowest
#: probability levels by Walsh–Hadamard transforms and sweeps only the rest
#: pairwise, at a split minimising ``2·m·n·2ⁿ·c + N_high(m)²/2``;
#: transform scores below ``τ = ½·min(W[d] > 0)·min P`` snap to exact zero,
#: and results hold to ``tiled`` within a relative 1e-12.  It needs the dense
#: hypercube, so a forced ``spectral`` on a register wider than 20 bits runs
#: ``tiled``.
KERNEL_PLANS = ("dense", "tiled", "spectral")

_ENV_KERNEL = "REPRO_HAMMER_KERNEL"

_override: str | None = None


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


def tuning_report() -> dict[str, object]:
    """The effective kernel choice (for ``repro profile``)."""
    return {"kernel_override": kernel_override() or "auto"}
