"""Bitstring utilities and the packed-outcome backend of the reproduction.

Outcomes of a quantum circuit measurement are represented at the API surface
as Python strings over the alphabet ``{"0", "1"}``.  Internally every hot
path operates on :class:`PackedOutcomes` — a set of outcomes packed into
``uint64`` words (64 bits per word, MSB first, last word right-aligned)
alongside a cached probability vector.  Packing happens once per histogram;
all Hamming arithmetic (pairwise distances, CHS accumulation, spectra) is
then popcount + ``bincount`` work on the packed words with no string
round-trips.

The scalar helpers (validation, int conversions, neighbour enumeration)
remain string-based; the bulk helpers (:func:`pack_bitstrings`,
:func:`pairwise_hamming_matrix`, :func:`hamming_distance_to_reference`) are
thin wrappers over the packed representation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.kernels import chs_histogram, popcount_u64 as _popcount
from repro.exceptions import BitstringError

__all__ = [
    "validate_bitstring",
    "bitstring_to_int",
    "int_to_bitstring",
    "hamming_distance",
    "hamming_weight",
    "flip_bits",
    "neighbors_at_distance",
    "all_bitstrings",
    "random_bitstring",
    "PackedOutcomes",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "xor_distance_histogram",
    "pack_bitstrings",
    "pairwise_hamming_matrix",
    "hamming_distance_to_reference",
]

_VALID_CHARS = frozenset("01")


def validate_bitstring(bitstring: str, num_bits: int | None = None) -> str:
    """Validate that ``bitstring`` only contains '0'/'1' characters.

    Parameters
    ----------
    bitstring:
        Candidate outcome string.
    num_bits:
        If given, also require ``len(bitstring) == num_bits``.

    Returns
    -------
    str
        The validated bitstring (unchanged), to allow call chaining.

    Raises
    ------
    BitstringError
        If the string is empty, contains characters outside ``{0, 1}`` or has
        the wrong width.
    """
    if not isinstance(bitstring, str):
        raise BitstringError(f"bitstring must be a str, got {type(bitstring).__name__}")
    if not bitstring:
        raise BitstringError("bitstring must not be empty")
    if not set(bitstring) <= _VALID_CHARS:
        raise BitstringError(f"bitstring {bitstring!r} contains characters outside '0'/'1'")
    if num_bits is not None and len(bitstring) != num_bits:
        raise BitstringError(
            f"bitstring {bitstring!r} has width {len(bitstring)}, expected {num_bits}"
        )
    return bitstring


def bitstring_to_int(bitstring: str) -> int:
    """Convert a bitstring (most-significant bit first) to an integer."""
    validate_bitstring(bitstring)
    return int(bitstring, 2)


def int_to_bitstring(value: int, num_bits: int) -> str:
    """Convert an integer to a fixed-width bitstring (MSB first).

    Raises
    ------
    BitstringError
        If ``value`` is negative or does not fit in ``num_bits`` bits.
    """
    if num_bits <= 0:
        raise BitstringError(f"num_bits must be positive, got {num_bits}")
    if value < 0:
        raise BitstringError(f"value must be non-negative, got {value}")
    if value >= (1 << num_bits):
        raise BitstringError(f"value {value} does not fit in {num_bits} bits")
    return format(value, f"0{num_bits}b")


def hamming_weight(bitstring: str) -> int:
    """Return the number of '1' characters in ``bitstring``."""
    validate_bitstring(bitstring)
    return bitstring.count("1")


def hamming_distance(a: str, b: str) -> int:
    """Return the Hamming distance between two equal-width bitstrings."""
    validate_bitstring(a)
    validate_bitstring(b, num_bits=len(a))
    return sum(ca != cb for ca, cb in zip(a, b))


def flip_bits(bitstring: str, positions: Iterable[int]) -> str:
    """Return a copy of ``bitstring`` with the given bit positions flipped.

    Positions index from the left (position 0 is the most-significant bit,
    matching string indexing).
    """
    validate_bitstring(bitstring)
    chars = list(bitstring)
    width = len(chars)
    for pos in positions:
        if not 0 <= pos < width:
            raise BitstringError(f"bit position {pos} out of range for width {width}")
        chars[pos] = "1" if chars[pos] == "0" else "0"
    return "".join(chars)


def neighbors_at_distance(bitstring: str, distance: int) -> Iterator[str]:
    """Yield every bitstring at exactly ``distance`` Hamming distance.

    The number of neighbours is ``C(n, distance)``; callers should keep the
    distance small for wide strings.
    """
    validate_bitstring(bitstring)
    n = len(bitstring)
    if distance < 0 or distance > n:
        raise BitstringError(f"distance {distance} out of range [0, {n}]")
    from itertools import combinations

    for positions in combinations(range(n), distance):
        yield flip_bits(bitstring, positions)


def all_bitstrings(num_bits: int) -> list[str]:
    """Return every bitstring of the given width, in ascending integer order."""
    if num_bits <= 0:
        raise BitstringError(f"num_bits must be positive, got {num_bits}")
    if num_bits > 24:
        raise BitstringError(
            f"refusing to enumerate 2**{num_bits} bitstrings; use sampling instead"
        )
    return [int_to_bitstring(value, num_bits) for value in range(1 << num_bits)]


def random_bitstring(num_bits: int, rng: np.random.Generator | None = None) -> str:
    """Return a uniformly random bitstring of the given width."""
    if num_bits <= 0:
        raise BitstringError(f"num_bits must be positive, got {num_bits}")
    generator = rng if rng is not None else np.random.default_rng()
    bits = generator.integers(0, 2, size=num_bits)
    return "".join("1" if bit else "0" for bit in bits)


def _checked_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """``bits`` as a C-contiguous uint8 array, once every value is known to be 0 or 1.

    The check runs on the caller's dtype, before the cast: cast first and 256
    wraps to 0, -255 to 1 and 1.7 truncates to 1, each passing for a bit.
    uint8 needs one ``> 1`` pass and bool none; any other dtype must compare
    equal to 0 or 1 (so NaN, strings and fractions are rejected).
    """
    bits = np.asarray(bits)
    if bits.dtype != np.bool_:
        invalid = bits > 1 if bits.dtype == np.uint8 else (bits != 0) & (bits != 1)
        if np.any(invalid):
            raise BitstringError("bit matrix contains values outside {0, 1}")
    return np.ascontiguousarray(bits, dtype=np.uint8)


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(N, width)`` 0/1 matrix into ``(N, ceil(width/64))`` uint64 words.

    Bit layout matches :func:`pack_bitstrings`: word ``w`` holds bit columns
    ``[64w, 64w + 64)`` MSB-first; the final word is right-aligned in its low
    bits when ``width`` is not a multiple of 64.  The final word's columns
    need only ``ceil(columns / 8)`` bytes: when they are not a whole number
    of bytes, the rows are copied once into a zeroed uint8 block with the
    missing bits in front of those columns.  One ``np.packbits`` over the
    flat rows then yields each row's bytes, which land right-aligned in the
    row's ``8 * words`` bytes, read as big-endian uint64 and converted to
    native order.
    """
    bits = _checked_bit_matrix(bits)
    if bits.ndim != 2:
        raise BitstringError(f"expected a 2-D bit matrix, got ndim={bits.ndim}")
    n_rows, width = bits.shape
    if width == 0:
        raise BitstringError("bit matrix must have at least one column")
    num_words = (width + 63) // 64
    lead = 64 * (num_words - 1)  # columns of the full words before the last
    tail_bytes = (width - lead + 7) // 8
    pad = lead + 8 * tail_bytes - width
    if pad:
        padded = np.zeros((n_rows, width + pad), dtype=np.uint8)
        _copy_rows(padded[:, :lead], bits[:, :lead])
        _copy_rows(padded[:, lead + pad :], bits[:, lead:])
        bits = padded
    row_bytes = np.packbits(bits).reshape(n_rows, lead // 8 + tail_bytes)
    if tail_bytes < 8:
        placed = np.zeros((n_rows, 8 * num_words), dtype=np.uint8)
        _copy_rows(placed[:, : lead // 8], row_bytes[:, : lead // 8])
        _copy_rows(placed[:, 8 * num_words - tail_bytes :], row_bytes[:, lead // 8 :])
        row_bytes = placed
    return row_bytes.view(">u8").astype(np.uint64)


def _copy_rows(target: np.ndarray, source: np.ndarray) -> None:
    """``target[...] = source`` for ``(N, k)`` uint8 blocks with contiguous rows.

    Each row is copied as one ``k``-byte void element: NumPy's strided copy
    moves short uint8 rows byte by byte, about twice as slow.
    """
    if source.shape[1]:
        row = np.dtype(f"V{source.shape[1]}")
        target.view(row)[:, 0] = source.view(row)[:, 0]


def unpack_bit_matrix(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_matrix`: uint64 words back to a 0/1 matrix."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise BitstringError(f"expected a 2-D word array, got ndim={words.ndim}")
    n_rows = words.shape[0]
    if words.shape[1] != (num_bits + 63) // 64:
        raise BitstringError(
            f"word count {words.shape[1]} does not match width {num_bits}"
        )
    bits = np.empty((n_rows, num_bits), dtype=np.uint8)
    for word_index in range(words.shape[1]):
        lo = word_index * 64
        hi = min(lo + 64, num_bits)
        word_bytes = words[:, word_index].astype(">u8").view(np.uint8).reshape(n_rows, 8)
        unpacked = np.unpackbits(word_bytes, axis=1)
        bits[:, lo:hi] = unpacked[:, 64 - (hi - lo) :]
    return bits


def _bit_matrix_from_strings(bitstrings: Sequence[str], width: int) -> np.ndarray:
    """Decode equal-width bitstrings into a ``(N, width)`` uint8 0/1 matrix."""
    try:
        joined = "".join(bitstrings).encode("ascii")
    except (TypeError, UnicodeEncodeError) as error:
        raise BitstringError(f"bitstrings must be ASCII '0'/'1' strings: {error}") from error
    if len(joined) != len(bitstrings) * width:
        raise BitstringError("all bitstrings must share the same width")
    codes = np.frombuffer(joined, dtype=np.uint8).reshape(len(bitstrings), width)
    bits = codes - np.uint8(ord("0"))
    if not np.all(bits <= 1):
        raise BitstringError("bitstrings contain characters outside '0'/'1'")
    return bits


def _strings_from_bit_matrix(bits: np.ndarray) -> list[str]:
    """Render a ``(N, width)`` 0/1 matrix into bitstrings with one decode."""
    n_rows, width = bits.shape
    text = (bits + np.uint8(ord("0"))).tobytes().decode("ascii")
    return [text[row * width : (row + 1) * width] for row in range(n_rows)]


class PackedOutcomes:
    """A histogram support packed into uint64 words, plus its probabilities.

    This is the canonical internal representation of a measurement histogram:
    ``words[i]`` holds outcome ``i`` packed MSB-first into 64-bit words (see
    :func:`pack_bit_matrix` for the exact layout) and ``probabilities[i]`` its
    normalised probability (``None`` when the support carries no weights,
    e.g. a correct-answer set).  String and bit-matrix renderings are cached
    so each conversion happens at most once per object; derived objects
    (:meth:`with_probabilities`, :meth:`subset`) share the packed words and
    caches instead of re-packing.
    """

    __slots__ = ("words", "num_bits", "probabilities", "_strings", "_bits")

    def __init__(
        self,
        words: np.ndarray,
        num_bits: int,
        probabilities: np.ndarray | None = None,
        _strings: list[str] | None = None,
        _bits: np.ndarray | None = None,
    ) -> None:
        if num_bits <= 0:
            raise BitstringError(f"num_bits must be positive, got {num_bits}")
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != (num_bits + 63) // 64:
            raise BitstringError(
                f"packed words of shape {words.shape} do not match width {num_bits}"
            )
        self.words = words
        self.num_bits = num_bits
        if probabilities is not None:
            probabilities = np.asarray(probabilities, dtype=float)
            if probabilities.shape != (words.shape[0],):
                raise BitstringError("probability vector length does not match outcome count")
        self.probabilities = probabilities
        self._strings = _strings
        self._bits = _bits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(
        cls,
        bitstrings: Sequence[str],
        probabilities: np.ndarray | None = None,
        num_bits: int | None = None,
        validate: bool = True,
    ) -> "PackedOutcomes":
        """Pack a sequence of equal-width bitstrings (vectorised, one decode)."""
        bitstrings = list(bitstrings)
        if not bitstrings:
            raise BitstringError("cannot pack an empty sequence of bitstrings")
        width = num_bits if num_bits is not None else len(bitstrings[0])
        if validate:
            for bitstring in bitstrings:
                validate_bitstring(bitstring, num_bits=width)
        bits = _bit_matrix_from_strings(bitstrings, width)
        return cls(
            pack_bit_matrix(bits), width, probabilities, _strings=bitstrings, _bits=bits
        )

    @classmethod
    def from_bit_matrix(
        cls, bits: np.ndarray, probabilities: np.ndarray | None = None
    ) -> "PackedOutcomes":
        """Pack the rows of a ``(N, width)`` 0/1 matrix, one outcome per row."""
        bits = _checked_bit_matrix(bits)
        if bits.ndim != 2 or bits.shape[1] == 0:
            raise BitstringError(f"expected a non-empty 2-D bit matrix, got shape {bits.shape}")
        return cls(pack_bit_matrix(bits), bits.shape[1], probabilities, _bits=bits)

    @classmethod
    def aggregate_bit_matrix(
        cls, bits: np.ndarray, weights: np.ndarray | None = None
    ) -> tuple["PackedOutcomes", np.ndarray]:
        """Deduplicate the rows of a ``(shots, width)`` sample matrix.

        Returns the unique outcomes (sorted ascending by value, which makes
        histogram construction deterministic regardless of shot order) and the
        per-outcome aggregated weight — shot counts when ``weights`` is
        omitted, weighted sums otherwise.  This is the histogram-building
        kernel behind :meth:`Distribution.from_bit_matrix` (and the weighted
        merges ``mapped`` / ``marginal`` / ``merged_with`` reduce to).  Only
        the unique support is ever rendered to strings, never the rows.
        Shot counts on registers of at most 64 bits are counted on the
        packed ``uint64`` key column; wider registers and weighted sums sort
        whole packed rows (see :meth:`_aggregate_words`).
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] == 0 or bits.shape[1] == 0:
            raise BitstringError(
                f"expected a non-empty (shots, width) matrix, got shape {bits.shape}"
            )
        return cls._aggregate_words(pack_bit_matrix(bits), bits.shape[1], weights)

    @classmethod
    def _aggregate_words(
        cls, words: np.ndarray, num_bits: int, weights: np.ndarray | None = None
    ) -> tuple["PackedOutcomes", np.ndarray]:
        """Deduplicate already-packed rows, summing ``weights`` per unique row.

        Shot counts on a register of at most 64 bits (``weights`` omitted,
        one word per row) are counted on the single ``uint64`` key column,
        which NumPy sorts as plain unsigned integers: the same ascending
        support and the same counts as the row path, without its sort of
        structured records compared word by word.  Wider registers and
        weighted sums take that row path.
        """
        if weights is None and words.shape[1] == 1:
            keys, counts = np.unique(words.reshape(-1), return_counts=True)
            return cls(keys.reshape(-1, 1), num_bits), counts.astype(float)
        unique_words, inverse = np.unique(words, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        if weights is None:
            totals = np.bincount(inverse, minlength=unique_words.shape[0]).astype(float)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (words.shape[0],):
                raise BitstringError("weight vector length does not match row count")
            totals = np.bincount(inverse, weights=weights, minlength=unique_words.shape[0])
        return cls(unique_words, num_bits), totals

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_outcomes(self) -> int:
        """Number of outcomes (rows)."""
        return int(self.words.shape[0])

    def bit_matrix(self) -> np.ndarray:
        """The ``(N, num_bits)`` 0/1 matrix view (cached)."""
        if self._bits is None:
            self._bits = unpack_bit_matrix(self.words, self.num_bits)
        return self._bits

    def to_strings(self) -> list[str]:
        """The outcome bitstrings, row order preserved (cached)."""
        if self._strings is None:
            self._strings = _strings_from_bit_matrix(self.bit_matrix())
        return self._strings

    def with_probabilities(self, probabilities: np.ndarray) -> "PackedOutcomes":
        """A view over the same support with a different probability vector."""
        return PackedOutcomes(
            self.words,
            self.num_bits,
            probabilities,
            _strings=self._strings,
            _bits=self._bits,
        )

    def subset(self, indices: np.ndarray) -> "PackedOutcomes":
        """Restrict to the rows in ``indices`` (order given by ``indices``)."""
        indices = np.asarray(indices, dtype=np.intp)
        strings = self._strings
        return PackedOutcomes(
            self.words[indices],
            self.num_bits,
            self.probabilities[indices] if self.probabilities is not None else None,
            _strings=[strings[i] for i in indices] if strings is not None else None,
            _bits=self._bits[indices] if self._bits is not None else None,
        )

    # ------------------------------------------------------------------
    # Hamming arithmetic (popcount kernels)
    # ------------------------------------------------------------------
    def block_distances(
        self, start: int, stop: int, other: "PackedOutcomes | None" = None
    ) -> np.ndarray:
        """Distances between rows ``[start, stop)`` and every row of ``other``.

        ``other`` defaults to ``self``; this is the blocked kernel behind the
        O(N^2) pairwise structure (bounded memory: one block at a time).
        """
        target = self if other is None else other
        if target.num_bits != self.num_bits:
            raise BitstringError("cannot compare packed outcomes of different widths")
        block = self.words[start:stop]
        distances = np.zeros((block.shape[0], target.words.shape[0]), dtype=np.int64)
        for word_index in range(self.words.shape[1]):
            xor = np.bitwise_xor.outer(block[:, word_index], target.words[:, word_index])
            distances += _popcount(xor).astype(np.int64)
        return distances

    def distances_to_reference(self, reference: "str | np.ndarray") -> np.ndarray:
        """Hamming distance of every row to a single reference outcome."""
        if isinstance(reference, str):
            validate_bitstring(reference, num_bits=self.num_bits)
            reference_words = pack_bit_matrix(
                _bit_matrix_from_strings([reference], self.num_bits)
            )[0]
        else:
            reference_words = np.asarray(reference, dtype=np.uint64)
            if reference_words.shape != (self.words.shape[1],):
                raise BitstringError("reference width does not match bitstring width")
        distances = np.zeros(self.words.shape[0], dtype=np.int64)
        for word_index in range(self.words.shape[1]):
            xor = np.bitwise_xor(self.words[:, word_index], reference_words[word_index])
            distances += _popcount(xor).astype(np.int64)
        return distances

    def min_distances_to(self, other: "PackedOutcomes") -> np.ndarray:
        """Shortest distance of each row to any row of ``other``.

        Evaluated one reference row at a time so memory stays ``O(N)`` even
        for large correct-answer sets.
        """
        if other.num_bits != self.num_bits:
            raise BitstringError("cannot compare packed outcomes of different widths")
        best = np.full(self.words.shape[0], self.num_bits, dtype=np.int64)
        for row in range(other.words.shape[0]):
            np.minimum(best, self.distances_to_reference(other.words[row]), out=best)
        return best


def xor_distance_histogram(
    packed: "PackedOutcomes", weights: np.ndarray, limit: int
) -> np.ndarray:
    """Per-distance pair mass ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} w(y)``.

    Thin wrapper over :func:`repro.core.kernels.chs_histogram`, which picks
    the cheapest plan per input shape (dense Walsh–Hadamard, blocked ordered
    pairs, or the symmetric triangular sweep).  Always returns a vector of
    length ``num_bits + 1`` with zeros beyond ``limit``.
    """
    return chs_histogram(packed, weights, limit)


def pack_bitstrings(bitstrings: Sequence[str]) -> np.ndarray:
    """Pack bitstrings into a 2-D uint64 array for fast Hamming arithmetic.

    Each row corresponds to one bitstring; columns hold 64-bit words (MSB of
    the string in the most-significant position of the first word's used
    bits).  All strings must share the same width.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(bitstrings), ceil(width / 64))`` and dtype
        ``uint64``.
    """
    return PackedOutcomes.from_strings(bitstrings).words


def pairwise_hamming_matrix(bitstrings: Sequence[str]) -> np.ndarray:
    """Return the full ``N x N`` matrix of pairwise Hamming distances.

    Implemented with packed uint64 words and popcounts, so the cost is
    ``O(N^2 * ceil(width/64))`` word operations rather than ``O(N^2 * width)``
    character comparisons.
    """
    packed = PackedOutcomes.from_strings(bitstrings)
    return packed.block_distances(0, packed.num_outcomes)


def hamming_distance_to_reference(bitstrings: Sequence[str], reference: str) -> np.ndarray:
    """Return Hamming distances from every bitstring to a single reference."""
    validate_bitstring(reference)
    packed = PackedOutcomes.from_strings(list(bitstrings))
    if len(reference) != packed.num_bits:
        raise BitstringError("reference width does not match bitstring width")
    return packed.distances_to_reference(reference)
