"""Shape-adaptive pairwise Hamming kernels behind HAMMER and the CHS spectrum.

Every ``O(N^2)`` hot path of the reproduction — HAMMER's step-1 CHS
accumulation, its step-3 neighbourhood scores, and ``average_chs`` — runs
through this module.  A shape-based dispatcher picks the cheapest plan for
each ``(support size, register width)``:

``dense``
    Small supports (``N <= 256``).  The full pairwise structure fits in one
    block, evaluated with the historical (PR 1-4) arithmetic: dense
    Walsh–Hadamard CHS where the hypercube is cheap, blocked ordered-pair
    popcounts otherwise, and a full ordered score pass.  This plan is kept
    **bit-identical** to previous releases — the golden regression fixtures
    (and every published row table at laptop scale) reproduce exactly.
    Forced with ``REPRO_HAMMER_KERNEL=dense`` it runs the same arithmetic at
    any support size, the differential reference of the property tests.

``tiled``
    Large supports on registers wider than ``DENSE_CHS_MAX_BITS``
    (``spectral`` reuses its score sweep for its high levels).  The CHS
    spectrum comes first — the dense Walsh–Hadamard transform in
    ``O(n * 2^n)`` where the hypercube is cheap, otherwise one symmetric
    triangular sweep — and with the per-distance weights then known, the
    score pass walks only the upper triangle of the pair matrix in tiles of
    :data:`TILE_ENTRIES`: each unordered pair's distance is popcounted
    **once** and its gathered weight serves both score directions, halving
    both the popcount and the gather work of the historical ordered pass.

``spectral``
    Large supports on narrow registers (``n <= DENSE_CHS_MAX_BITS``).  The
    step-3 filter ``P(y) < P(x)`` compares only probability values, and a
    shot histogram has few distinct ones, with most outcomes in the lowest
    levels (counts 1, 2, 3, ...).  The support is grouped by exact
    probability value and the ``m`` lowest levels are scored on the dense
    hypercube: one forward Walsh–Hadamard transform of each level's mass, a
    running sum in the transform domain, a multiply by the transformed
    ``W∘popcount`` and one inverse transform per level.  Only the outcomes
    above the split are swept pairwise (the tiled score sweep); one more
    inverse transform carries all low-level mass beneath them.  The split
    minimises ``2·m·n·2ⁿ·c + N_high(m)²/2`` (:func:`spectral_split`, ``c`` =
    :data:`SPECTRAL_TRANSFORM_COST`), and ``m = 0`` is the ``tiled`` plan
    bit for bit.  Without the filter the scores are one convolution minus
    the ``W[0]·P(x)`` self term, used when its two transforms cost less than
    the pair sweep.  Transform round-off never reaches the output: every
    true nonzero score is at least ``2τ`` with ``τ = ½·min(W[d] > 0)·min P``,
    so transform scores below ``τ`` snap to exact 0, and the plan falls back
    to ``m = 0`` whenever the round-off bound is not below ``τ``.  Not
    bit-identical to ``tiled``; the differential tests hold it to
    ``hammer_reference`` and ``tiled`` within a relative 1e-12.

Dispatch has two steps: a forced plan (``REPRO_HAMMER_KERNEL`` or
:func:`repro.core.tuning.set_kernel_override`) wins outright, and otherwise
the fixed shape rules of :func:`choose_plan` decide.  :func:`chs_histogram`
is the one CHS dispatch of every plan.

The popcount primitive is NumPy's ``np.bitwise_count`` (NumPy >= 2.0).  The
two sizes that fix accumulation order — the ``dense`` row block
(:data:`PAIRWISE_BLOCK_ENTRIES`) and the symmetric tile
(:data:`TILE_ENTRIES`) — are constants, so a plan accumulates in the same
order on every machine.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from repro.core import tuning
from repro.exceptions import DistributionError
from repro.obs.metrics import counter_add
from repro.obs.trace import trace_span

__all__ = [
    "popcount_u64",
    "choose_plan",
    "chs_histogram",
    "hammer_pass",
    "spectral_split",
    "walsh_hadamard_inplace",
    "DENSE_CHS_MAX_BITS",
    "DENSE_SUPPORT_MAX",
    "PAIRWISE_BLOCK_ENTRIES",
    "SPECTRAL_TRANSFORM_COST",
    "TILE_ENTRIES",
]


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (``np.bitwise_count``)."""
    return np.bitwise_count(values)


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------
#: Widest register for which the dense hypercube paths — the CHS
#: Walsh–Hadamard transform, the ``spectral`` plan and the tensored inverse
#: of :func:`repro.baselines.readout_mitigation.mitigate_readout` — are
#: considered (2**20 float64 work vectors = 8 MiB each).
DENSE_CHS_MAX_BITS = 20

#: Largest support handled by the ``dense`` plan (the bit-identical historical
#: arithmetic).  2**8, so every register of at most 8 bits stays on ``dense``
#: at any shot count — that covers every golden fixture (widths 5-8).  The
#: ``tiled`` sweep overtakes ``dense`` from about 200 outcomes up, and the
#: plan dispatched above the bound (``spectral`` up to 20 bits, ``tiled``
#: beyond) measured 1.3-2.7x faster than ``dense`` at every shape tried from
#: 257 to 1024 outcomes on 9-127 bits (2-vCPU Xeon, NumPy 2.4).
DENSE_SUPPORT_MAX = 256


def _tile_distances(words_a: np.ndarray, words_b: np.ndarray) -> np.ndarray:
    """Pairwise distances between two row blocks, in the narrowest dtype.

    Single-word registers (width <= 64) stay in uint8 straight out of the
    popcount; wider registers accumulate per-word counts in uint16.  The
    score sweep gathers its weights through :func:`_gather_weights`, which
    widens at most :data:`GATHER_BLOCK_ENTRIES` of them to ``intp`` at a
    time, so no whole tile is ever widened to int64.
    """
    num_words = words_a.shape[1]
    first = popcount_u64(np.bitwise_xor.outer(words_a[:, 0], words_b[:, 0]))
    if num_words == 1:
        return first
    distances = first.astype(np.uint16)
    for word_index in range(1, num_words):
        xor = np.bitwise_xor.outer(words_a[:, word_index], words_b[:, word_index])
        distances += popcount_u64(xor)
    return distances


def walsh_hadamard_inplace(array: np.ndarray) -> np.ndarray:
    """Unnormalised fast Walsh–Hadamard transform of each row, O(n * 2**n).

    ``array`` is one C-contiguous vector of length ``2**n`` or a stack of
    such rows, transformed in place and returned; anything else raises
    ``ValueError``.

    The radix-2 network runs in Pease's constant-geometry order (J. ACM
    15(2), 1968): every stage reads the adjacent pairs ``(2j, 2j + 1)`` of
    one buffer and writes their sum to entry ``j`` and their difference to
    entry ``j + 2**(n-1)`` of the other, so each of the ``n`` stages is one
    ``add`` and one ``subtract`` with a ``2**(n-1)``-long inner loop per
    row.  Each stage rotates the index bits down by one, so stage ``s``
    pairs the entries that differ in bit ``s`` of the input index, bit 0
    first, and the output comes out in natural order.  Those are the
    butterflies of the in-place network (``i`` with ``i + 2**s`` at stage
    ``s``), in the same stage order and on the same operands, as
    ``left + right`` and ``left - right`` with ``left`` the entry whose bit
    is clear, so every entry rounds exactly as in that network: the rounding
    every CHS, every ``spectral`` row and the spectral round-off bound rest on.
    """
    size = array.shape[-1] if array.ndim else 0
    if size < 1 or size & (size - 1):
        raise ValueError(f"the last axis must have a power-of-two length, got {size}")
    if not array.flags.c_contiguous:
        raise ValueError("the Walsh–Hadamard transform needs a C-contiguous array")
    half = size // 2
    work = np.empty_like(array)
    # Even stages read ``array`` and write ``work``, odd stages the reverse.
    stages = [
        (source[..., 0::2], source[..., 1::2], target[..., :half], target[..., half:])
        for source, target in ((array, work), (work, array))
    ]
    num_stages = size.bit_length() - 1
    for stage in range(num_stages):
        left, right, sums, differences = stages[stage & 1]
        np.add(left, right, out=sums)
        np.subtract(left, right, out=differences)
    if num_stages & 1:
        array[...] = work
    return array


@functools.lru_cache(maxsize=DENSE_CHS_MAX_BITS + 1)
def _hypercube_popcounts(num_bits: int) -> np.ndarray:
    """Popcount of every vertex of the ``num_bits``-cube (cached, read-only)."""
    table = popcount_u64(np.arange(1 << num_bits, dtype=np.uint64))
    table.flags.writeable = False
    return table


def _dense_chs(packed, weights: np.ndarray, limit: int) -> np.ndarray:
    """CHS via the XOR-convolution theorem on the dense hypercube.

    ``chs[d] = Σ_{x,y: d(x,y)=d} w(y)`` equals the sum of the XOR-convolution
    ``(f ⊛ w)(z) = Σ_x f(x) w(x ⊕ z)`` (``f`` the support indicator) over all
    ``z`` of popcount ``d`` — three Walsh–Hadamard transforms instead of an
    ``O(N^2)`` pairwise sweep.
    """
    num_bits = packed.num_bits
    size = 1 << num_bits
    indices = packed.words[:, 0].astype(np.int64)
    support = np.zeros(size, dtype=float)
    support[indices] = 1.0
    weighted = np.zeros(size, dtype=float)
    weighted[indices] = weights
    product = walsh_hadamard_inplace(support) * walsh_hadamard_inplace(weighted)
    convolution = walsh_hadamard_inplace(product) / size
    popcounts = _hypercube_popcounts(num_bits)
    histogram = np.bincount(popcounts, weights=convolution, minlength=num_bits + 1)[
        : num_bits + 1
    ]
    # The transform leaves ~1e-13-relative fuzz where the exact answer is 0;
    # snap it out so downstream 1/CHS weighting never divides by noise.
    histogram[np.abs(histogram) < 1e-10 * max(1.0, float(np.abs(histogram).max()))] = 0.0
    np.clip(histogram, 0.0, None, out=histogram)
    histogram[limit + 1 :] = 0.0
    return histogram


#: Pairwise entries one ``dense``-plan row block may hold, the historical
#: budget.  The blocks fix the order the blocked CHS adds its per-block
#: histograms in, so changing this moves ``dense`` output bits and needs a
#: new ``hammer_key`` tag.
PAIRWISE_BLOCK_ENTRIES = 4_000_000


def _block_rows(num_outcomes: int) -> int:
    """Rows per ``dense``-plan block of an ``N x N`` ordered-pair sweep."""
    return max(1, min(num_outcomes, PAIRWISE_BLOCK_ENTRIES // max(1, num_outcomes)))


def _blocked_chs(packed, weights: np.ndarray, limit: int) -> np.ndarray:
    """Historical ordered-pair blocked CHS (bit-identical to PR 1-4).

    ``packed.block_distances`` is the single home of the int64 ordered-pair
    arithmetic the bit-stable plans depend on — it is deliberately not
    duplicated here.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    chs = np.zeros(num_bits + 1, dtype=float)
    block_size = _block_rows(num_outcomes)
    for start in range(0, num_outcomes, block_size):
        distances = packed.block_distances(start, min(start + block_size, num_outcomes))
        within = distances <= limit
        if within.any():
            chs[: limit + 1] += np.bincount(
                distances[within],
                weights=np.broadcast_to(weights, distances.shape)[within],
                minlength=limit + 1,
            )[: limit + 1]
    return chs


# ---------------------------------------------------------------------------
# Symmetric triangular sweeps (the tiled plan, and spectral's high levels)
# ---------------------------------------------------------------------------
#: Entries of one symmetric tile.  The tiles fix the order the sweeps
#: accumulate in, so changing this moves ``tiled`` (and ``spectral``
#: high-level) output bits and needs a new ``hammer_key`` tag.  2**21 is the
#: L2 size in bytes of the 2-vCPU x86-64 machine every pinned row was
#: measured on; a forced ``tiled`` on fig8-cold's 9 HAMMER inputs took
#: 2.18, 2.23, 2.81 and 4.28 s there (best of 3) at 2**20 .. 2**23.
TILE_ENTRIES = 1 << 21


def _tile_shape(num_outcomes: int) -> tuple[int, int]:
    """``(rows, cols)`` of one symmetric tile for an ``N x N`` triangular sweep.

    Tiles are wide rather than square — the inner accumulations are row-major
    reductions (matvec / bincount over contiguous rows), which favour long
    contiguous columns — but rows are kept >= 64 so the triangular sweep does
    not degenerate into row-at-a-time passes.
    """
    cols = max(1, min(num_outcomes, TILE_ENTRIES // 64))
    rows = max(1, min(num_outcomes, max(64, TILE_ENTRIES // cols)))
    return rows, cols


#: Indices one ``take`` call of :func:`_gather_weights` widens to ``intp``.
#: A whole-tile ``take`` widens the tile first: 8 MiB of ``intp`` beside a
#: 1024 x 1024 float64 result.  The slices change no gathered value.
GATHER_BLOCK_ENTRIES = 1 << 14


def _gather_weights(
    weights: np.ndarray, distances: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``weights.take(distances)``, gathered one fixed-size slice at a time.

    ``out``, when given, is a C-contiguous float64 array shaped like
    ``distances``.  ``mode="clip"`` lets ``take`` write ``out`` directly
    (``"raise"`` buffers it) and never clips here: every distance is at most
    the register width, and :func:`_symmetric_scores` checks that
    ``weights`` has an entry for each.
    """
    if out is None:
        out = np.empty(distances.shape)
    flat_distances = distances.reshape(-1)
    flat_out = out.reshape(-1)
    for start in range(0, flat_distances.size, GATHER_BLOCK_ENTRIES):
        stop = start + GATHER_BLOCK_ENTRIES
        weights.take(flat_distances[start:stop], out=flat_out[start:stop], mode="clip")
    return out


def _symmetric_scores(
    packed,
    probabilities: np.ndarray,
    weights: np.ndarray,
    cutoff: int,
    use_filter: bool,
) -> np.ndarray:
    """Neighbourhood scores with known per-distance weights, one triangular pass.

    The cutoff mask (``distance < cutoff``) is folded into the weight gather
    by zeroing a local copy of the weight vector at and beyond the cutoff —
    exactly the entries the historical pass masked out pairwise.  Each
    unordered pair's distance is computed once and serves both score
    directions.

    One float tile: a tile's gathered weights are the only float64 array of
    its size alive at a time, freed before the next tile's distances are
    computed.  The filter multiplies them by each direction's mask in place,
    gathering again from the same distances into the same buffer for the
    second direction; in-place products are the values ``gathered * mask``
    would hold, so each ``@`` reads the same C-contiguous operands.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    if weights.size <= packed.num_bits:
        raise DistributionError(
            f"need a weight for each distance 0..{packed.num_bits}, got {weights.size}"
        )
    weights = weights.astype(float, copy=True)
    if cutoff < weights.size:
        weights[cutoff:] = 0.0
    scores = np.zeros(num_outcomes, dtype=float)
    tile_rows, tile_cols = _tile_shape(num_outcomes)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        p_i = probabilities[i0:i1]
        # Diagonal square: every ordered pair inside [i0, i1) in one shot.
        distances = _tile_distances(words[i0:i1], words[i0:i1])
        gathered = _gather_weights(weights, distances)
        if use_filter:
            np.multiply(gathered, p_i[:, None] > p_i[None, :], out=gathered)
        else:
            np.fill_diagonal(gathered, 0.0)
        scores[i0:i1] += gathered @ p_i
        del gathered
        # Strictly-right tiles: one distance tile per unordered pair,
        # accumulated into both directions.
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            p_j = probabilities[j0:j1]
            distances = _tile_distances(words[i0:i1], words[j0:j1])
            gathered = _gather_weights(weights, distances)
            if use_filter:
                np.multiply(gathered, p_i[:, None] > p_j[None, :], out=gathered)
                scores[i0:i1] += gathered @ p_j
                _gather_weights(weights, distances, gathered)
                np.multiply(gathered, p_i[:, None] < p_j[None, :], out=gathered)
                scores[j0:j1] += p_i @ gathered
            else:
                scores[i0:i1] += gathered @ p_j
                scores[j0:j1] += p_i @ gathered
            del gathered
    return scores


def _symmetric_chs(packed, pair_weights: np.ndarray, limit: int) -> np.ndarray:
    """CHS histogram ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} pair_weights[y]``.

    Ordered pairs, self pairs included (Algorithm-1 semantics), from one
    triangular traversal: each unordered pair is popcounted exactly once
    and its distance bin serves both ordered directions.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    num_bits = packed.num_bits
    num_bins = limit + 2  # [0, limit] real bins + one overflow sentinel
    chs = np.zeros(num_bins, dtype=float)
    tile_rows, tile_cols = _tile_shape(num_outcomes)
    sentinel = np.int64(limit + 1)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        w_i = pair_weights[i0:i1]
        # Diagonal square (covers both ordered directions within the block).
        bins = np.minimum(_tile_distances(words[i0:i1], words[i0:i1]), sentinel)
        chs += np.bincount(
            bins.ravel(),
            weights=np.broadcast_to(w_i[None, :], bins.shape).ravel(),
            minlength=num_bins,
        )[:num_bins]
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            w_j = pair_weights[j0:j1]
            bins = np.minimum(_tile_distances(words[i0:i1], words[j0:j1]), sentinel)
            flat_bins = bins.ravel()
            # CHS takes both ordered directions from the one distance tile.
            chs += np.bincount(
                flat_bins,
                weights=np.broadcast_to(w_j[None, :], bins.shape).ravel(),
                minlength=num_bins,
            )[:num_bins]
            chs += np.bincount(
                flat_bins,
                weights=np.broadcast_to(w_i[:, None], bins.shape).ravel(),
                minlength=num_bins,
            )[:num_bins]
    chs_full = np.zeros(num_bits + 1, dtype=float)
    stop = min(limit, num_bits) + 1
    chs_full[:stop] = chs[:stop]
    return chs_full


# ---------------------------------------------------------------------------
# Spectral scores: Walsh–Hadamard convolutions per probability level
# ---------------------------------------------------------------------------
#: Cost of one of the ``n * 2**n`` butterfly entries of a hypercube
#: transform, with its share of the scatter, running sum, multiply and
#: gather around it, in units of one unordered pair of the tiled score
#: sweep.  It was fitted to an in-place butterfly about three times slower
#: than the constant-geometry transform.  Re-measured with the latter by
#: replaying one iteration's captured kernel calls (best of 7-15 replays per
#: value; 2-vCPU x86-64, NumPy 2.4): fig8-cold's 9 calls (widths 12-14,
#: 2.5k-12.9k outcomes) are fastest at 0.0625-0.125, 10-15% below 0.5;
#: zoo-warm's 56 (10 bits, 416-1022 outcomes) are flat from 0.0625 to 0.5;
#: 1.0 and 2.0 are slower on both.  Scores agree within a relative 1.2e-15
#: at every value tried, but not bit for bit, so 0.5 stays until a re-fit is
#: measured end to end.
SPECTRAL_TRANSFORM_COST = 0.5

#: Largest stack of level transforms held at once (one row at ``n = 20``),
#: plus one work array of the same size while a transform runs, so a block
#: peaks at 16 MiB.
SPECTRAL_BLOCK_BYTES = 8 << 20


def spectral_split(level_sizes: np.ndarray, num_bits: int) -> int:
    """How many of the lowest probability levels to score by transform.

    Minimises ``2·m·n·2ⁿ·c + N_high(m)²/2`` over ``m = 0 .. K``: each
    transformed level costs one forward and one inverse transform, and the
    ``N_high(m)`` outcomes above the split are swept pairwise.  ``m = 0`` is
    the tiled sweep; ties go to the smaller split.
    """
    above = int(level_sizes.sum()) - np.concatenate(([0], np.cumsum(level_sizes)))
    splits = np.arange(len(level_sizes) + 1)
    transforms = 2.0 * splits * num_bits * float(1 << num_bits) * SPECTRAL_TRANSFORM_COST
    return int(np.argmin(transforms + above.astype(float) ** 2 / 2.0))


def _spectral_scores(
    packed,
    probabilities: np.ndarray,
    weights: np.ndarray,
    cutoff: int,
    use_filter: bool,
    span,
) -> np.ndarray:
    """Neighbourhood scores with the lowest probability levels transformed.

    With the filter, level ``k``'s scores are the XOR-convolution of the
    mass of every strictly lower level with ``W∘popcount``, read at level
    ``k``'s outcomes; without it, one convolution of the whole support less
    each outcome's own ``W[0]·P(x)`` term.  See the module docstring for the
    split rule and the round-off handling.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    weights = weights.astype(float, copy=True)
    weights[cutoff:] = 0.0
    if use_filter:
        order = np.argsort(probabilities, kind="stable")
        ranked = probabilities[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        bounds = np.append(starts, num_outcomes)
    else:
        # Every other outcome counts: the whole support is one level.
        order = np.arange(num_outcomes)
        bounds = np.array([0, num_outcomes])
    split = spectral_split(np.diff(bounds), num_bits)
    if split:
        # Every true nonzero score is a sum of terms W[d]·P(y) >= 2·tau.
        positive = weights[weights > 0.0]
        tau = 0.5 * positive.min() * probabilities.min() if positive.size else 0.0
        reach = sum(math.comb(num_bits, d) * float(w) for d, w in enumerate(weights))
        # Forward, product and inverse transforms, plus the running sum.
        eps = np.finfo(float).eps
        bound = (4 * (num_bits + 1) + split) * eps * float(probabilities.sum()) * reach
        if not (weights.min() >= 0.0 and bound < tau):
            split = 0
    span.set(levels=len(bounds) - 1, split=split)
    if split == 0:
        return _symmetric_scores(packed, probabilities, weights, cutoff, use_filter)

    size = 1 << num_bits
    vertices = packed.words[:, 0].astype(np.intp)
    # W∘popcount in the transform domain, with the inverse's 1/2**n folded in.
    kernel = walsh_hadamard_inplace(weights[_hypercube_popcounts(num_bits)]) / size
    if not use_filter:
        mass = np.zeros(size)
        mass[vertices] = probabilities
        walsh_hadamard_inplace(mass)
        mass *= kernel
        scores = walsh_hadamard_inplace(mass)[vertices] - weights[0] * probabilities
        scores[np.abs(scores) < tau] = 0.0
        return scores

    # Cumulative row k holds the mass of levels 0..k: it scores level k + 1,
    # and the last one scores every outcome above the split.
    high = order[bounds[split]:]
    targets = [order[bounds[k + 1] : bounds[k + 2]] for k in range(split - 1)] + [high]
    scores = np.zeros(num_outcomes)
    rows = max(1, SPECTRAL_BLOCK_BYTES // (8 * size))
    carry = np.zeros(size)
    for first in range(0, split, rows):
        levels = range(first, min(first + rows, split))
        block = np.zeros((len(levels), size))
        for row, level in enumerate(levels):
            members = order[bounds[level] : bounds[level + 1]]
            block[row, vertices[members]] = probabilities[members]
        walsh_hadamard_inplace(block)
        block[0] += carry
        np.cumsum(block, axis=0, out=block)
        carry = block[-1].copy()
        block *= kernel
        walsh_hadamard_inplace(block)
        for row, level in enumerate(levels):
            scores[targets[level]] = block[row, vertices[targets[level]]]
    scores[np.abs(scores) < tau] = 0.0
    if high.size:
        scores[high] += _symmetric_scores(
            packed.subset(high), probabilities[high], weights, cutoff, True
        )
    return scores


# ---------------------------------------------------------------------------
# Plan dispatch
# ---------------------------------------------------------------------------
def choose_plan(num_outcomes: int, num_bits: int) -> str:
    """Pick the cheapest kernel plan for a ``(support size, width)`` shape.

    * ``dense`` — supports up to :data:`DENSE_SUPPORT_MAX` (256): the full
      pair matrix fits in one block and the historical arithmetic is
      bit-stable (golden fixtures, widths 5-8, live here).  Every larger
      support runs faster on one of the plans below.
    * ``spectral`` — larger supports on registers of up to
      :data:`DENSE_CHS_MAX_BITS` bits: the lowest probability levels scored
      by hypercube transforms, the rest by the tiled sweep, split by a
      closed-form cost rule (:func:`spectral_split`).
    * ``tiled`` — larger supports on every wider register: CHS first (one
      symmetric sweep), then a weight-gather score sweep over the upper
      triangle.

    ``REPRO_HAMMER_KERNEL`` (or the programmatic override) wins outright;
    otherwise the fixed rules above decide.  A pure function: the plan that
    actually runs is counted by :func:`hammer_pass`.
    """
    override = tuning.kernel_override()
    if override is not None:
        return override
    if num_outcomes <= DENSE_SUPPORT_MAX:
        return "dense"
    if num_bits <= DENSE_CHS_MAX_BITS:
        return "spectral"
    return "tiled"


def chs_histogram(packed, weights: np.ndarray, limit: int, plan: str | None = None) -> np.ndarray:
    """Per-distance pair mass ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} w(y)``.

    The step-1 kernel of HAMMER and the body of ``average_chs``, and the one
    place a plan picks its CHS path.  ``plan`` defaults to
    :func:`choose_plan`'s.  Always returns a vector of length
    ``num_bits + 1`` with zeros beyond ``limit``.  Every plan takes the dense
    Walsh–Hadamard transform wherever it beats the pairwise sweep; otherwise
    ``dense`` runs the historical blocked ordered sweep and the other plans
    the symmetric triangular sweep, half the popcounts.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    if plan is None:
        plan = choose_plan(num_outcomes, num_bits)
    elif plan not in tuning.KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {plan!r}; expected one of {tuning.KERNEL_PLANS}"
        )
    limit = min(limit, num_bits)
    if limit < 0:
        return np.zeros(num_bits + 1, dtype=float)
    # The dense-WHT eligibility rule predates the symmetric kernels and is
    # kept verbatim: whenever it fires the result is bit-identical to PR 1-4.
    if num_bits <= DENSE_CHS_MAX_BITS and (
        (3 * num_bits + 1) * (1 << num_bits) < num_outcomes * num_outcomes
    ):
        return _dense_chs(packed, weights, limit)
    if plan == "dense":
        return _blocked_chs(packed, weights, limit)
    return _symmetric_chs(packed, weights, limit)


def _ordered_scores(
    packed,
    probabilities: np.ndarray,
    weights: np.ndarray,
    cutoff: int,
    use_filter: bool,
) -> np.ndarray:
    """The historical ordered score pass of the ``dense`` plan, bit-for-bit.

    Re-popcounts every ordered pair in row blocks of
    :data:`PAIRWISE_BLOCK_ENTRIES` to accumulate the scores, so small
    supports — every golden fixture — reproduce exactly;
    ``REPRO_HAMMER_KERNEL=dense`` forces it at any size.
    """
    num_outcomes = packed.num_outcomes
    block_size = _block_rows(num_outcomes)
    scores = np.zeros(num_outcomes, dtype=float)
    for start in range(0, num_outcomes, block_size):
        stop = min(start + block_size, num_outcomes)
        distances = packed.block_distances(start, stop)
        weight_of_pair = weights[distances]
        within_cutoff = distances < cutoff
        if use_filter:
            allowed = probabilities[start:stop, None] > probabilities[None, :]
        else:
            allowed = np.ones_like(within_cutoff, dtype=bool)
            rows = np.arange(start, stop)
            allowed[np.arange(rows.size), rows] = False
        contribution = np.where(
            within_cutoff & allowed, weight_of_pair * probabilities[None, :], 0.0
        )
        scores[start:stop] = contribution.sum(axis=1)
    return scores


def hammer_pass(
    packed,
    probabilities: np.ndarray,
    cutoff: int,
    weight_fn: Callable[[np.ndarray], np.ndarray],
    use_filter: bool,
    plan: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Steps 1-3 of HAMMER (CHS, weights, neighbourhood scores) in one call.

    ``weight_fn`` maps the raw CHS histogram to the padded per-distance
    weight vector (length ``num_bits + 1``, zero at and beyond ``cutoff``).
    Returns ``(chs, weights, scores, plan_used)``.  The pass runs inside one
    ``kernel.hammer`` span recording the support, width and plan used, plus
    the level count and split of the ``spectral`` plan; the plan used is
    also counted as ``kernel.plan.<plan>``.
    """
    with trace_span(
        "kernel.hammer", support=packed.num_outcomes, width=packed.num_bits
    ) as span:
        chs, weights, scores, plan = _run_pass(
            packed, probabilities, cutoff, weight_fn, use_filter, plan, span
        )
        span.set(plan=plan)
        counter_add(f"kernel.plan.{plan}")
    return chs, weights, scores, plan


def _run_pass(
    packed,
    probabilities: np.ndarray,
    cutoff: int,
    weight_fn: Callable[[np.ndarray], np.ndarray],
    use_filter: bool,
    plan: str | None,
    span,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The body of :func:`hammer_pass`: resolve the plan, then run it.

    Every plan takes the CHS from :func:`chs_histogram` (where an unknown
    plan fails), then scores with the weights in hand: ``dense`` in the
    ordered pass, ``tiled`` in one symmetric sweep, ``spectral`` by level
    transforms with only its high levels swept pairwise.
    """
    if plan is None:
        plan = choose_plan(packed.num_outcomes, packed.num_bits)
    if plan == "spectral" and packed.num_bits > DENSE_CHS_MAX_BITS:
        plan = "tiled"
    limit = min(cutoff, packed.num_bits + 1) - 1
    chs = chs_histogram(packed, probabilities, limit, plan)
    weights = weight_fn(chs)
    if plan == "dense":
        scores = _ordered_scores(packed, probabilities, weights, cutoff, use_filter)
    elif plan == "spectral":
        scores = _spectral_scores(packed, probabilities, weights, cutoff, use_filter, span)
    else:
        scores = _symmetric_scores(packed, probabilities, weights, cutoff, use_filter)
    return chs, weights, scores, plan
