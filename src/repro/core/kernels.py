"""Shape-adaptive pairwise Hamming kernels behind HAMMER and the CHS spectrum.

Every ``O(N^2)`` hot path of the reproduction — HAMMER's step-1 CHS
accumulation, its step-3 neighbourhood scores, and ``average_chs`` — runs
through this module.  A shape-based dispatcher picks the cheapest plan for
each ``(support size, register width)``:

``dense``
    Small supports (``N <= 1024``).  The full pairwise structure fits in one
    block, evaluated with the historical (PR 1-4) arithmetic: dense
    Walsh–Hadamard CHS where the hypercube is cheap, blocked ordered-pair
    popcounts otherwise, and a full ordered score pass.  This plan is kept
    **bit-identical** to previous releases — the golden regression fixtures
    (and every published row table at laptop scale) reproduce exactly.
    Forced with ``REPRO_HAMMER_KERNEL=dense`` it runs the same arithmetic at
    any support size, the differential reference of the property tests.

``tiled``
    Large supports on registers wider than ``DENSE_CHS_MAX_BITS``, up to ~10
    uint64 words (``spectral`` reuses its score sweep for its high levels).
    The CHS spectrum comes first — the dense Walsh–Hadamard transform in
    ``O(n * 2^n)`` where the hypercube is cheap, otherwise one symmetric
    triangular sweep — and with the per-distance weights then known, the
    score pass walks only the upper triangle of the pair matrix in
    cache-blocked tiles: each unordered pair's distance is popcounted
    **once** and its gathered weight serves both score directions, halving
    both the popcount and the gather work of the historical ordered pass.

``streaming``
    Large supports on very wide registers (>= ~640 bits), where per-pair
    popcount work dominates every accumulation.  One fused triangular
    traversal accumulates the CHS histogram *and* a per-row filtered
    distance-mass matrix ``M[x, d] = sum(P(y) : d(x,y)=d, P(y)<P(x))`` in
    bounded-memory tile chunks; the scores then follow as a single ``M @ W``
    product.  The packed matrix is traversed exactly once (PR 4 walked it
    once for the CHS spectrum and again for the scores).

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
the fixed shape rules of :func:`choose_plan` decide.

The popcount primitive is runtime-dispatched at import: ``np.bitwise_count``
where the running NumPy provides it (>= 2.0), a byte-table lookup fallback
otherwise.  All tile/block sizes come from :mod:`repro.core.tuning`
(cache-derived at import, env-overridable, deterministic per machine).
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
    "has_fast_popcount",
    "choose_plan",
    "chs_histogram",
    "hammer_pass",
    "spectral_split",
    "walsh_hadamard_inplace",
    "DENSE_CHS_MAX_BITS",
    "DENSE_SUPPORT_MAX",
    "SPECTRAL_TRANSFORM_COST",
]

# ---------------------------------------------------------------------------
# Popcount dispatch
# ---------------------------------------------------------------------------
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcount table for the NumPy < 2 fallback.
_POPCOUNT_LUT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def has_fast_popcount() -> bool:
    """True when the running NumPy provides a native ``bitwise_count``."""
    return _HAVE_BITWISE_COUNT


def _popcount_lut_u64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array via the byte-LUT fallback.

    Used as :func:`popcount_u64` on NumPy < 2 (no ``np.bitwise_count``);
    kept importable on every NumPy so the differential test can hold the
    two implementations against each other.
    """
    contiguous = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = contiguous.view(np.uint8).reshape(contiguous.shape + (8,))
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.uint8)


if _HAVE_BITWISE_COUNT:

    def popcount_u64(values: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (native ``np.bitwise_count``)."""
        return np.bitwise_count(values)

else:  # pragma: no cover - exercised only on NumPy < 2
    popcount_u64 = _popcount_lut_u64


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------
#: Widest register for which the dense Walsh–Hadamard paths — the CHS
#: transform and the ``spectral`` plan — are considered (2**20 float64 work
#: vectors = 8 MiB each).
DENSE_CHS_MAX_BITS = 20

#: Largest support handled by the ``dense`` plan (the bit-identical historical
#: arithmetic).  Laptop-scale sweeps — including every golden fixture — stay
#: below this; bigger supports dispatch to the spectral/tiled/streaming kernels.
DENSE_SUPPORT_MAX = 1024


def _tile_distances(words_a: np.ndarray, words_b: np.ndarray) -> np.ndarray:
    """Pairwise distances between two row blocks, in the narrowest dtype.

    Single-word registers (width <= 64) stay in uint8 straight out of the
    popcount; wider registers accumulate per-word counts in uint16.  Both are
    valid fancy indices into the weight vector, so no int64 widening ever
    happens inside a tile.
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
    such rows; every butterfly pairs entries inside one row, so a whole
    stack transforms with the same few NumPy calls as a single vector.
    """
    half = 1
    size = array.shape[-1]
    while half < size:
        paired = array.reshape(-1, 2 * half)
        left = paired[:, :half].copy()
        right = paired[:, half:]
        paired[:, :half] += right
        np.subtract(left, right, out=right)
        half *= 2
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


def _dense_chs_cost(num_bits: int) -> int | None:
    """Work estimate of the dense WHT path (``None`` when the width is too wide)."""
    if num_bits > DENSE_CHS_MAX_BITS:
        return None
    return (3 * num_bits + 1) * (1 << num_bits)


def _blocked_chs(packed, weights: np.ndarray, limit: int) -> np.ndarray:
    """Historical ordered-pair blocked CHS (bit-identical to PR 1-4).

    ``packed.block_distances`` is the single home of the int64 ordered-pair
    arithmetic the bit-stable plans depend on — it is deliberately not
    duplicated here.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    chs = np.zeros(num_bits + 1, dtype=float)
    block_size = tuning.pairwise_block_size(num_outcomes)
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
# Symmetric triangular sweeps (the tiled / streaming fast paths)
# ---------------------------------------------------------------------------
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
    unordered pair's distance and gathered weight are computed once and serve
    both score directions.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    weights = weights.astype(float, copy=True)
    if cutoff < weights.size:
        weights[cutoff:] = 0.0
    scores = np.zeros(num_outcomes, dtype=float)
    tile_rows, tile_cols = tuning.tile_shape(num_outcomes)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        p_i = probabilities[i0:i1]
        # Diagonal square: every ordered pair inside [i0, i1) in one shot.
        gathered = weights.take(_tile_distances(words[i0:i1], words[i0:i1]))
        if use_filter:
            np.multiply(gathered, p_i[:, None] > p_i[None, :], out=gathered)
        else:
            np.fill_diagonal(gathered, 0.0)
        scores[i0:i1] += gathered @ p_i
        # Strictly-right tiles: one distance/gather per unordered pair,
        # accumulated into both directions.
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            p_j = probabilities[j0:j1]
            gathered = weights.take(_tile_distances(words[i0:i1], words[j0:j1]))
            if use_filter:
                scores[i0:i1] += (gathered * (p_i[:, None] > p_j[None, :])) @ p_j
                scores[j0:j1] += p_i @ (gathered * (p_i[:, None] < p_j[None, :]))
            else:
                scores[i0:i1] += gathered @ p_j
                scores[j0:j1] += p_i @ gathered
    return scores


def _bincount_rows(
    flat_bins: np.ndarray, flat_weights: np.ndarray, num_rows: int, num_bins: int
) -> np.ndarray:
    """Weighted per-row histogram via one flat ``bincount``."""
    return np.bincount(
        flat_bins.ravel(), weights=flat_weights.ravel(), minlength=num_rows * num_bins
    ).reshape(num_rows, num_bins)


def _symmetric_chs_mass(
    packed,
    pair_weights: np.ndarray,
    limit: int,
    probabilities: np.ndarray | None = None,
    use_filter: bool = True,
):
    """Fused triangular traversal: CHS histogram + optional per-row mass matrix.

    Returns ``(chs, mass)`` where ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit}
    pair_weights[y]`` (ordered pairs, self pairs included — Algorithm-1
    semantics) and, when ``probabilities`` is given, ``mass[x, d]`` is the
    filtered neighbourhood mass ``Σ { P(y) : d(x,y)=d, P(y) < P(x) }``
    (``use_filter=True``) or the unfiltered off-diagonal mass otherwise.
    Each unordered pair is popcounted exactly once.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    num_bits = packed.num_bits
    num_bins = limit + 2  # [0, limit] real bins + one overflow sentinel
    chs = np.zeros(num_bins, dtype=float)
    want_mass = probabilities is not None
    mass = np.zeros((num_outcomes, num_bins), dtype=float) if want_mass else None
    tile_rows, tile_cols = tuning.tile_shape(num_outcomes)
    sentinel = np.int64(limit + 1)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        rows = i1 - i0
        w_i = pair_weights[i0:i1]
        # Diagonal square (covers both ordered directions within the block).
        bins = np.minimum(_tile_distances(words[i0:i1], words[i0:i1]), sentinel)
        chs += np.bincount(
            bins.ravel(),
            weights=np.broadcast_to(w_i[None, :], bins.shape).ravel(),
            minlength=num_bins,
        )[:num_bins]
        if want_mass:
            p_i = probabilities[i0:i1]
            if use_filter:
                tile_mass = np.where(p_i[:, None] > p_i[None, :], p_i[None, :], 0.0)
            else:
                tile_mass = np.broadcast_to(p_i[None, :], bins.shape).copy()
                np.fill_diagonal(tile_mass, 0.0)
            flat = bins + (num_bins * np.arange(rows, dtype=np.int64))[:, None]
            mass[i0:i1] += _bincount_rows(flat, tile_mass, rows, num_bins)
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            cols = j1 - j0
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
            if want_mass:
                p_i = probabilities[i0:i1]
                p_j = probabilities[j0:j1]
                if use_filter:
                    mass_ij = np.where(p_i[:, None] > p_j[None, :], p_j[None, :], 0.0)
                    mass_ji = np.where(p_i[:, None] < p_j[None, :], p_i[:, None], 0.0)
                else:
                    mass_ij = np.broadcast_to(p_j[None, :], bins.shape)
                    mass_ji = np.broadcast_to(p_i[:, None], bins.shape)
                flat = bins + (num_bins * np.arange(rows, dtype=np.int64))[:, None]
                mass[i0:i1] += _bincount_rows(flat, mass_ij, rows, num_bins)
                flat = bins + (num_bins * np.arange(cols, dtype=np.int64))[None, :]
                mass[j0:j1] += _bincount_rows(flat, mass_ji, cols, num_bins)
    chs_full = np.zeros(num_bits + 1, dtype=float)
    stop = min(limit, num_bits) + 1
    chs_full[:stop] = chs[:stop]
    return chs_full, mass


# ---------------------------------------------------------------------------
# Spectral scores: Walsh–Hadamard convolutions per probability level
# ---------------------------------------------------------------------------
#: Cost of one of the ``n * 2**n`` butterfly entries of a hypercube
#: transform, with its share of the scatter, running sum, multiply and
#: gather around it, in units of one unordered pair of the tiled score
#: sweep.  On the fig8 histograms (widths 12-14, 2.5k-12.9k outcomes; 2-vCPU
#: x86-64, NumPy 2.4) total kernel time was lowest at 0.5 and within 10% of
#: it anywhere in 0.125-1.0, so one fixed constant serves.
SPECTRAL_TRANSFORM_COST = 0.5

#: Largest stack of level transforms held at once (one row at ``n = 20``).
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
#: Word count beyond which the fused single-traversal (streaming) plan beats
#: the two-sweep tiled plan: one traversal halves the per-pair XOR/popcount
#: work, which only dominates the tile accumulations once a register spans
#: this many uint64 words (measured crossover ~10 words / ~640 bits).
STREAMING_MIN_WORDS = 10


def choose_plan(num_outcomes: int, num_bits: int) -> str:
    """Pick the cheapest kernel plan for a ``(support size, width)`` shape.

    * ``dense`` — supports up to :data:`DENSE_SUPPORT_MAX`: the full pair
      matrix fits in one block and the historical arithmetic is both fastest
      and bit-stable (golden fixtures live here).
    * ``spectral`` — larger supports on registers of up to
      :data:`DENSE_CHS_MAX_BITS` bits: the lowest probability levels scored
      by hypercube transforms, the rest by the tiled sweep, split by a
      closed-form cost rule (:func:`spectral_split`).
    * ``tiled`` — large supports at wider registers up to
      :data:`STREAMING_MIN_WORDS` words: CHS first (dense Walsh–Hadamard
      where the hypercube is cheap, one symmetric sweep otherwise), then a
      weight-gather score sweep over the upper triangle.
    * ``streaming`` — large supports on very wide registers, where popcounts
      dominate: one fused triangular traversal for CHS + filtered mass.

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
    return "streaming" if (num_bits + 63) // 64 >= STREAMING_MIN_WORDS else "tiled"


def chs_histogram(packed, weights: np.ndarray, limit: int, plan: str | None = None) -> np.ndarray:
    """Per-distance pair mass ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} w(y)``.

    The step-1 kernel of HAMMER and the body of ``average_chs``.  Always
    returns a vector of length ``num_bits + 1`` with zeros beyond ``limit``.
    Plans: the dense Walsh–Hadamard transform wherever it beats the pairwise
    sweep (unchanged, bit-identical arithmetic), the historical blocked
    ordered sweep at small supports, and the symmetric triangular sweep —
    half the popcounts — at large ones.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    limit = min(limit, num_bits)
    if plan is not None and plan not in tuning.KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {plan!r}; expected one of {tuning.KERNEL_PLANS}"
        )
    if limit < 0:
        return np.zeros(num_bits + 1, dtype=float)
    if plan is None:
        plan = tuning.kernel_override()
    # The dense-WHT eligibility rule predates the symmetric kernels and is
    # kept verbatim: whenever it fires the result is bit-identical to PR 1-4.
    dense_cost = _dense_chs_cost(num_bits)
    dense_eligible = dense_cost is not None and dense_cost < num_outcomes * num_outcomes
    if plan is None:
        if dense_eligible:
            return _dense_chs(packed, weights, limit)
        if num_outcomes <= DENSE_SUPPORT_MAX:
            return _blocked_chs(packed, weights, limit)
    elif plan == "dense":
        if dense_eligible:
            return _dense_chs(packed, weights, limit)
        return _blocked_chs(packed, weights, limit)
    elif plan in ("tiled", "spectral") and dense_eligible:
        return _dense_chs(packed, weights, limit)
    chs, _ = _symmetric_chs_mass(packed, weights, limit)
    return chs


def _legacy_pass(
    packed,
    probabilities: np.ndarray,
    cutoff: int,
    weight_fn: Callable[[np.ndarray], np.ndarray],
    use_filter: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PR 4 two-pass HAMMER arithmetic, preserved bit-for-bit.

    Pass 1 computes the CHS spectrum (dense WHT or blocked ordered pairs);
    pass 2 re-popcounts every ordered pair to accumulate the scores.  The
    ``dense`` plan routes here so small supports — every golden fixture —
    reproduce exactly; ``REPRO_HAMMER_KERNEL=dense`` forces it at any size.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    block_size = tuning.pairwise_block_size(num_outcomes)

    limit = min(cutoff, num_bits + 1) - 1
    dense_cost = _dense_chs_cost(num_bits)
    if limit < 0:
        chs = np.zeros(num_bits + 1, dtype=float)
    elif dense_cost is not None and dense_cost < num_outcomes * num_outcomes:
        chs = _dense_chs(packed, probabilities, min(limit, num_bits))
    else:
        chs = _blocked_chs(packed, probabilities, min(limit, num_bits))

    weights = weight_fn(chs)

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
    return chs, weights, scores


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
    """The body of :func:`hammer_pass`: resolve the plan, then run it."""
    if plan is None:
        plan = choose_plan(packed.num_outcomes, packed.num_bits)
    elif plan not in tuning.KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {plan!r}; expected one of {tuning.KERNEL_PLANS}"
        )
    num_bits = packed.num_bits
    limit = min(cutoff, num_bits + 1) - 1

    if plan == "dense":
        chs, weights, scores = _legacy_pass(
            packed, probabilities, cutoff, weight_fn, use_filter
        )
        return chs, weights, scores, plan

    if plan == "spectral" and num_bits > DENSE_CHS_MAX_BITS:
        plan = "tiled"

    if plan in ("tiled", "spectral"):
        # CHS first (dense WHT where eligible, else one symmetric sweep);
        # scores in a second symmetric sweep with the weights in hand.  The
        # spectral plan shares the CHS and sweeps only its high levels.
        dense_cost = _dense_chs_cost(num_bits)
        if limit < 0:
            chs = np.zeros(num_bits + 1, dtype=float)
        elif dense_cost is not None and dense_cost < packed.num_outcomes**2:
            chs = _dense_chs(packed, probabilities, min(limit, num_bits))
        else:
            chs, _ = _symmetric_chs_mass(packed, probabilities, min(limit, num_bits))
        weights = weight_fn(chs)
        if plan == "spectral":
            scores = _spectral_scores(packed, probabilities, weights, cutoff, use_filter, span)
        else:
            scores = _symmetric_scores(packed, probabilities, weights, cutoff, use_filter)
        return chs, weights, scores, plan

    # streaming: one fused traversal for CHS + filtered mass, then M @ W.
    if limit < 0:
        chs = np.zeros(num_bits + 1, dtype=float)
        weights = weight_fn(chs)
        scores = np.zeros(packed.num_outcomes, dtype=float)
        return chs, weights, scores, plan
    chs, mass = _symmetric_chs_mass(
        packed,
        probabilities,
        min(limit, num_bits),
        probabilities=probabilities,
        use_filter=use_filter,
    )
    weights = weight_fn(chs)
    stop = min(limit, num_bits) + 1
    scores = mass[:, :stop] @ weights[:stop]
    return chs, weights, scores, plan
