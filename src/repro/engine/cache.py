"""Content-addressed artifact cache for the execution engine.

Four namespaces are used by :class:`~repro.engine.engine.ExecutionEngine`:

``"transpile"``
    Key: :func:`~repro.engine.hashing.transpile_key` (circuit + coupling map
    + basis gates).  Value: the routed/decomposed circuit plus its
    measurement permutation and SWAP count.
``"ideal"``
    Key: :func:`~repro.engine.hashing.ideal_key` of the *executed* circuit.
    Value: the noise-free measurement :class:`Distribution`.
``"sample"``
    Key: :func:`~repro.engine.hashing.sample_key` (executed circuit + noise
    fingerprint — including any calibration snapshot — + shots + per-job
    seed entropy + backend + shard layout).  Value: the noisy measurement
    :class:`Distribution`.  Because the key pins the RNG entropy, a hit
    returns exactly the histogram an uncached run would draw.
``"hammer"``
    Key: :func:`~repro.engine.hashing.hammer_key` (the input histogram's
    packed words, probabilities and weights + every :class:`HammerConfig`
    field + the kernel context).  Value: the reconstructed
    :class:`Distribution` (:meth:`ExecutionEngine.hammer`).  A content key:
    it carries no job context.

Entries always live in an in-process dict; when a ``cache_dir`` is given they
are additionally persisted as pickle files (``<dir>/<namespace>/<key>.pkl``,
written atomically via a temp file + rename) so repeated sweeps across
processes — e.g. re-running a CLI figure with the same ``--cache-dir`` —
skip every transpile, simulation, sampling and HAMMER pass of the previous
run.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.exceptions import EngineError
from repro.obs.logs import get_logger
from repro.obs.metrics import counter_add
from repro.obs.trace import trace_span

__all__ = ["ExecutionCache"]

_logger = get_logger("repro.engine.cache")

_NAMESPACES = ("transpile", "ideal", "sample", "hammer")


class ExecutionCache:
    """In-memory + optional on-disk store for execution artifacts.

    The memory tier is bounded (``max_memory_entries``, least-recently-used
    eviction): paper-scale sweeps accumulate thousands of ideal
    distributions, and without a bound a long-lived shared engine would pin
    all of them in RAM even when the disk tier already persists them.
    Evicted entries re-enter from disk (when configured) or are recomputed.
    """

    def __init__(
        self, cache_dir: str | Path | None = None, max_memory_entries: int = 4096
    ) -> None:
        if max_memory_entries < 1:
            raise EngineError(f"max_memory_entries must be >= 1, got {max_memory_entries}")
        self._memory: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self.max_memory_entries = int(max_memory_entries)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _check_namespace(self, namespace: str) -> None:
        if namespace not in _NAMESPACES:
            raise EngineError(
                f"unknown cache namespace {namespace!r}; expected one of {_NAMESPACES}"
            )

    def _path(self, namespace: str, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / namespace / f"{key}.pkl"

    def _remember(self, namespace: str, key: str, value: Any) -> None:
        self._memory[(namespace, key)] = value
        self._memory.move_to_end((namespace, key))
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def get(self, namespace: str, key: str) -> Any | None:
        """Fetch an artifact, checking memory first and then the disk tier.

        Each lookup counts ``cache.<namespace>.hits`` or ``.misses`` in the
        active metrics registry (the engine's run or HAMMER scope).
        """
        self._check_namespace(namespace)
        with trace_span("cache.get", namespace=namespace) as span:
            entry = self._memory.get((namespace, key))
            if entry is not None:
                self._memory.move_to_end((namespace, key))
                counter_add(f"cache.{namespace}.hits")
                span.set(hit=True, tier="memory")
                return entry
            if self.cache_dir is not None:
                path = self._path(namespace, key)
                if path.exists():
                    try:
                        with path.open("rb") as handle:
                            entry = pickle.load(handle)
                    except Exception:
                        # A stale/corrupt entry (package upgrade, truncated
                        # write, old schema) must degrade to a miss, not crash
                        # the sweep: drop the file so the recompute self-heals.
                        try:
                            path.unlink()
                        except OSError:
                            pass
                    else:
                        self._remember(namespace, key, entry)
                        counter_add(f"cache.{namespace}.hits")
                        span.set(hit=True, tier="disk")
                        return entry
            counter_add(f"cache.{namespace}.misses")
            span.set(hit=False)
            return None

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Store an artifact in memory and (when configured) on disk.

        Disk persistence is an optimisation, never a correctness
        requirement: a failed write (full volume, lost permission) degrades
        to memory-only with a warning instead of aborting the sweep that
        already computed the artifact.
        """
        self._check_namespace(namespace)
        if value is None:
            raise EngineError("cannot cache a None artifact")
        self._remember(namespace, key, value)
        if self.cache_dir is not None:
            try:
                path = self._path(namespace, key)
                path.parent.mkdir(parents=True, exist_ok=True)
                descriptor, temp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
                )
                try:
                    with os.fdopen(descriptor, "wb") as handle:
                        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    os.replace(temp_name, path)
                except BaseException:
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
                    raise
            except (OSError, pickle.PicklingError) as error:
                # Structured record first (lands in run artifacts), then the
                # historical warning for interactive stderr visibility.
                _logger.warning(
                    "cache-persist-failed",
                    "execution cache could not persist an artifact; continuing memory-only",
                    namespace=namespace,
                    key=key[:16],
                    cache_dir=str(self.cache_dir),
                    error=str(error),
                )
                warnings.warn(
                    f"execution cache could not persist {namespace}/{key[:16]}… "
                    f"to {self.cache_dir}: {error}; continuing memory-only",
                    stacklevel=2,
                )

    @property
    def num_memory_entries(self) -> int:
        """Number of artifacts currently held in the in-process tier."""
        return len(self._memory)
