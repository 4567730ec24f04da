"""Deterministic pairwise reduction trees over sharded partial histograms.

PR 5 split million-shot sampling jobs into fixed-size shot chunks, but the
merge was a flat, single-machine barrier: every chunk's ``(words, counts)``
partial histogram was collected, vstacked at once and re-aggregated — peak
memory ``O(chunks)`` and no merging until the last chunk landed.  This
module replaces that barrier with a Tascade-style reduction tree:

* **Fixed tree shape, keyed only by chunk index.**  Leaf ``i`` is node
  ``(0, i)``; node ``(level, pos)`` merges children ``(level-1, 2*pos)``
  and ``(level-1, 2*pos+1)``.  Which pairs merge — and therefore the float
  summation order of every outcome's count — depends only on the leaf
  count, never on where a chunk executed or when it completed, so the
  merged histogram is **bit-identical** for any shard placement, worker
  count, or completion order.  (Shard counts are non-negative
  integer-valued floats, so each pairwise addition is exact; the fixed
  shape makes the stronger guarantee structural rather than numerical.)
* **Incremental merging.**  :meth:`ReductionTree.add` cascades a finished
  chunk up the tree immediately: whenever a node's sibling is already
  present the two segments merge and the parent is attempted next.  With
  chunks completing roughly in index order the tree holds at most one live
  segment per level — ``O(log chunks)`` peak memory instead of
  ``O(chunks)`` — and out-of-order completions only add transiently held
  leaves (bounded by the executor's in-flight window, e.g. worker count).
* **Sorted pairwise merges.**  Chunk segments arrive sorted ascending by
  outcome (``PackedOutcomes`` aggregation order == lexicographic uint64
  word order), and a pairwise merge of two sorted unique supports is a
  linear interleave (``searchsorted`` + ``insert``) rather than the full
  re-sort a flat vstack pays: no merge sorts anything.

:class:`ReductionTree` is histogram-agnostic on purpose: segments are
plain ``(words, counts)`` pairs, picklable and compact, exactly what a
remote shard executor would ship back from another host.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.bitstring import PackedOutcomes
from repro.core.distribution import Distribution
from repro.exceptions import MergeError
from repro.obs.metrics import counter_add
from repro.obs.trace import trace_span

__all__ = [
    "ReductionTree",
    "ReductionStats",
    "merge_sorted_segments",
]

#: One partial histogram: ``(words, counts)`` — a ``(n, w)`` uint64 packed
#: support sorted ascending by outcome and its per-outcome shot counts.
Segment = tuple[np.ndarray, np.ndarray]


def merge_sorted_segments(left: Segment, right: Segment) -> Segment:
    """Merge two sorted-unique ``(words, counts)`` segments into one.

    Both inputs must have their rows sorted ascending by outcome value
    (lexicographic uint64 word order — the order every ``PackedOutcomes``
    aggregation produces).  Outcomes present in both segments get their
    counts added (exact for the integer-valued floats shot counts are);
    outcomes unique to one side are interleaved in place.  ``O(n + m)``
    plus a ``searchsorted`` — no re-sort of the combined support.
    """
    left_words, left_counts = left
    right_words, right_counts = right
    if left_words.shape[1] != right_words.shape[1]:
        raise MergeError(
            f"cannot merge segments of {left_words.shape[1]} and "
            f"{right_words.shape[1]} words per outcome"
        )
    num_words = left_words.shape[1]
    if num_words == 1:
        left_keys = np.ascontiguousarray(left_words).reshape(-1)
        right_keys = np.ascontiguousarray(right_words).reshape(-1)
    else:
        # Structured view: lexicographic row comparison, the same order
        # np.unique(words, axis=0) sorts by.
        row_dtype = [("", left_words.dtype)] * num_words
        left_keys = np.ascontiguousarray(left_words).view(row_dtype).reshape(-1)
        right_keys = np.ascontiguousarray(right_words).view(row_dtype).reshape(-1)
    positions = np.searchsorted(left_keys, right_keys, side="left")
    in_range = positions < left_keys.shape[0]
    shared = np.zeros(right_keys.shape[0], dtype=bool)
    if in_range.any():
        shared[in_range] = (
            left_keys[positions[in_range]] == right_keys[in_range]
        )
    counts = left_counts.astype(float, copy=True)
    counts[positions[shared]] += right_counts[shared]
    fresh = ~shared
    if not fresh.any():
        return np.ascontiguousarray(left_words), counts
    words = np.insert(left_words, positions[fresh], right_words[fresh], axis=0)
    counts = np.insert(counts, positions[fresh], right_counts[fresh])
    return words, counts


@dataclass(frozen=True)
class ReductionStats:
    """Accounting of one completed reduction tree."""

    num_leaves: int
    #: Number of merge levels: ``ceil(log2(num_leaves))`` (0 for one leaf).
    depth: int
    #: Pairwise merges performed — always ``num_leaves - 1``.
    merges: int
    #: Most segments (stored + in flight) ever held at once.  In-order
    #: completion keeps this at ``depth + 1``; out-of-order completion adds
    #: the executor's in-flight window on top.
    peak_live_segments: int
    #: Wall seconds spent inside pairwise merges.
    merge_seconds: float


class ReductionTree:
    """Fixed-shape binary reduction over sharded ``(words, counts)`` segments.

    Parameters
    ----------
    num_leaves:
        Number of chunk segments that will be added (the job's chunk count).
    num_bits:
        Register width of the packed outcomes, needed to build the final
        :class:`~repro.core.distribution.Distribution`.

    Usage::

        tree = ReductionTree(num_chunks, circuit.num_qubits)
        for index, words, counts in completed_chunks_in_any_order:
            tree.add(index, words, counts)
        noisy = tree.distribution()      # only valid once tree.complete

    The tree never inspects *when* a leaf arrives — only its index — so the
    result is bit-identical to feeding the same segments in ascending order,
    and (because pairwise count addition is exact) to the flat
    ``merge_counted_chunks`` reduction over the same segments.
    """

    def __init__(self, num_leaves: int, num_bits: int) -> None:
        if num_leaves < 1:
            raise MergeError(
                f"a reduction tree needs at least one leaf, got {num_leaves}"
            )
        self.num_leaves = int(num_leaves)
        self.num_bits = int(num_bits)
        self.depth = int(math.ceil(math.log2(self.num_leaves))) if self.num_leaves > 1 else 0
        self._pending: dict[tuple[int, int], Segment] = {}
        self._arrived: set[int] = set()
        self._result: Segment | None = None
        self._merges = 0
        self._merge_seconds = 0.0
        self._peak_live = 0

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once every leaf has arrived and folded into the root."""
        return self._result is not None

    def arrived(self, index: int) -> bool:
        """Whether leaf ``index`` has already been added.

        Lets a consumer fed by an at-least-once transport (lease re-issues,
        injected duplicates) drop a late second delivery
        instead of tripping :meth:`add`'s duplicate guard — the guard stays
        the hard backstop; this is the polite check in front of it.
        """
        if not 0 <= index < self.num_leaves:
            raise MergeError(
                f"chunk index {index} outside [0, {self.num_leaves})"
            )
        return index in self._arrived

    def add(self, index: int, words: np.ndarray, counts: np.ndarray) -> None:
        """Insert one finished chunk and cascade merges as far as possible.

        Cascading is eager: after placing leaf ``index``, every node whose
        sibling is already present merges immediately, so memory is released
        as soon as the tree shape allows — no barrier, no deferred work at
        :meth:`distribution` time.
        """
        if not 0 <= index < self.num_leaves:
            raise MergeError(
                f"chunk index {index} outside [0, {self.num_leaves})"
            )
        if index in self._arrived:
            raise MergeError(f"chunk index {index} added twice")
        self._arrived.add(index)
        live = len(self._pending) + 1
        self._peak_live = max(self._peak_live, live)
        level, pos = 0, index
        value: Segment = (words, counts)
        while True:
            span = 1 << level
            if span >= self.num_leaves and pos == 0:
                self._result = value
                return
            sibling_start = (pos ^ 1) << level
            if sibling_start >= self.num_leaves:
                # The sibling's whole leaf range is beyond the last chunk:
                # promote unmerged (the flat reduction has no counterpart
                # rows either, so this costs nothing and changes nothing).
                level, pos = level + 1, pos >> 1
                continue
            sibling = self._pending.pop((level, pos ^ 1), None)
            if sibling is None:
                self._pending[(level, pos)] = value
                return
            # Merge count is fixed by the tree shape (num_leaves - 1), so
            # the counter is deterministic for any placement or worker count.
            counter_add("reduction.merges")
            with trace_span("reduction.merge", level=level + 1, pos=pos >> 1):
                start = time.perf_counter()
                if pos & 1:
                    value = merge_sorted_segments(sibling, value)
                else:
                    value = merge_sorted_segments(value, sibling)
                self._merge_seconds += time.perf_counter() - start
            self._merges += 1
            level, pos = level + 1, pos >> 1

    def result_segment(self) -> Segment:
        """The merged root ``(words, counts)`` segment."""
        if self._result is None:
            missing = self.num_leaves - len(self._arrived)
            raise MergeError(
                f"reduction tree incomplete: {missing} of {self.num_leaves} "
                f"chunks still outstanding"
            )
        return self._result

    def distribution(self) -> Distribution:
        """The merged histogram as a :class:`Distribution` (root must exist)."""
        words, counts = self.result_segment()
        packed = PackedOutcomes(np.ascontiguousarray(words), self.num_bits)
        return Distribution.from_packed(packed, weights=counts)

    def stats(self) -> ReductionStats:
        """Merge accounting for this tree (valid at any point; final when complete)."""
        return ReductionStats(
            num_leaves=self.num_leaves,
            depth=self.depth,
            merges=self._merges,
            peak_live_segments=self._peak_live,
            merge_seconds=self._merge_seconds,
        )
