"""Outcome distributions (measurement histograms) for NISQ programs.

A :class:`Distribution` is the central data structure of this package: it is
an immutable-ish mapping from measurement bitstrings to probabilities (or raw
counts).  Both the noisy device output consumed by HAMMER and the corrected
distribution it produces are :class:`Distribution` objects.

Design notes
------------
* All outcomes in one distribution share the same bit width
  (:attr:`Distribution.num_bits`).
* The class normalises lazily: constructors accept counts or probabilities and
  :meth:`Distribution.probabilities` always returns a normalised view.
* Each distribution keeps one *stored form*, chosen by its constructor:

  - the mapping constructor (``Distribution({...})``, :meth:`from_counts`,
    :meth:`from_samples`, …) keeps its ``str -> weight`` dict and packs the
    support into words on first use of :meth:`packed`;
  - :meth:`from_packed`, :meth:`from_bit_matrix`,
    :meth:`from_statevector_probabilities` and everything built on them (the
    samplers, the reduction tree, the stabilizer tableau, :meth:`mapped`,
    HAMMER's output) keep the uint64 words of a
    :class:`~repro.core.bitstring.PackedOutcomes` plus the raw weight array
    (:meth:`weight_vector`).  Bitstrings are rendered only by the first call
    that needs them (:meth:`outcomes`, :meth:`items`, :meth:`counts`,
    iteration, the rankings) and cached; :meth:`probability`, ``in``,
    ``len``, :meth:`support_mask`, :meth:`entropy` and :meth:`to_dense`
    answer from the words and weights.

  Both forms give the same answers bit for bit.  :attr:`total_weight` is the
  builtin ``sum`` of the weights as Python floats in row order (the mapping
  constructor with ``validate=True`` adds them one by one instead);
  :meth:`probability` divides a raw weight by it, while
  :meth:`probability_vector` divides the weights by their NumPy sum.
* The packed view and the probability vector are cached for the lifetime of
  the object (distributions are never mutated in place) and *shared* with
  derived distributions where the support carries over (:meth:`normalized`,
  :meth:`top_k`, :meth:`resampled`, :meth:`from_packed`), so a multi-stage
  pipeline packs each support once.  Every Hamming hot path (HAMMER, spectra,
  CHS, EHD, histogram metrics, cut costs) consumes the packed view directly.
* Pickles carry the stored form only, never the rendered strings or the
  packed caches; the probability vector travels only when a derived
  distribution shares one its own weights would not reproduce.  Pickles
  written before the packed-first layout still load, as the mapping form.
* Comparison metrics that only need two histograms (total variation distance,
  Hellinger distance, fidelity of the correct outcome) live in
  :mod:`repro.metrics.fidelity`; this module keeps only structural behaviour.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.core.bitstring import (
    PackedOutcomes,
    int_to_bitstring,
    validate_bitstring,
)
from repro.exceptions import BitstringError, DistributionError

__all__ = ["Distribution"]


class Distribution:
    """A probability distribution over measurement bitstrings.

    Parameters
    ----------
    data:
        Mapping from bitstring to non-negative weight.  Weights may be raw
        shot counts or probabilities; they are normalised on demand.
    num_bits:
        Optional explicit bit width.  If omitted it is inferred from the
        first outcome.
    validate:
        If True (default) every key is checked to be a well-formed bitstring
        of consistent width and every value to be a finite non-negative
        number.

    Examples
    --------
    >>> dist = Distribution({"00": 30, "11": 60, "01": 10})
    >>> dist.probability("11")
    0.6
    >>> dist.most_probable()
    '11'
    """

    # Mapping form: ``_weights`` set, ``_raw`` None.  Packed form: ``_packed``,
    # ``_raw`` and ``_pvec`` set, ``_weights`` None until strings are asked for.
    __slots__ = ("_weights", "_num_bits", "_total", "_packed", "_pvec", "_raw")

    def __init__(
        self,
        data: Mapping[str, float],
        num_bits: int | None = None,
        validate: bool = True,
    ) -> None:
        if not data:
            raise DistributionError("distribution must contain at least one outcome")
        items = dict(data)
        inferred_bits = num_bits if num_bits is not None else len(next(iter(items)))
        if validate:
            total = 0.0
            for outcome, weight in items.items():
                try:
                    validate_bitstring(outcome, num_bits=inferred_bits)
                except BitstringError as error:
                    raise DistributionError(str(error)) from error
                if not math.isfinite(weight) or weight < 0:
                    raise DistributionError(
                        f"weight for outcome {outcome!r} must be finite and >= 0, got {weight}"
                    )
                total += float(weight)
        else:
            total = float(sum(items.values()))
        if total <= 0:
            raise DistributionError("distribution weights must sum to a positive value")
        self._weights: dict[str, float] | None = {k: float(v) for k, v in items.items()}
        self._num_bits = inferred_bits
        self._total = total
        self._packed: PackedOutcomes | None = None
        self._pvec: np.ndarray | None = None
        self._raw: np.ndarray | None = None

    @classmethod
    def _on_words(
        cls, packed: PackedOutcomes, raw: np.ndarray, pvec: np.ndarray | None = None
    ) -> "Distribution":
        """A packed-form distribution over ``packed``'s rows, which must be unique.

        ``raw`` holds the float64 weights in row order.  ``pvec`` defaults to
        ``raw`` over its NumPy sum; derived distributions pass the vector they
        share instead.
        """
        distribution = cls.__new__(cls)
        distribution._weights = None
        distribution._num_bits = packed.num_bits
        distribution._raw = raw
        distribution._total = float(sum(raw.tolist()))
        distribution._pvec = raw / float(raw.sum()) if pvec is None else pvec
        distribution._packed = packed.with_probabilities(distribution._pvec)
        return distribution

    def __getstate__(self) -> dict:
        state = {"num_bits": self._num_bits, "total": self._total}
        if self._raw is None:
            state["weights"] = self._weights
        else:
            state["words"] = self._packed.words
            state["raw"] = self._raw
        # A derived distribution may share a probability vector that its own
        # weights would not reproduce; only then does the vector travel.
        weights = self.weight_vector()
        if self._pvec is not None and not np.array_equal(self._pvec, weights / weights.sum()):
            state["pvec"] = self._pvec
        return state

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # Slot state ``(None, {slot: value})`` pickled before the
            # packed-first layout: always the mapping form.
            slots = state[1]
            self._weights = slots["_weights"]
            self._num_bits = slots["_num_bits"]
            self._total = slots["_total"]
            self._packed = slots.get("_packed")
            self._pvec = slots.get("_pvec")
            self._raw = None
            return
        self._num_bits = state["num_bits"]
        self._total = state["total"]
        self._pvec = state.get("pvec")
        self._weights = state.get("weights")
        self._raw = state.get("raw")
        self._packed = None
        if self._raw is not None:
            self._packed = PackedOutcomes(state["words"], self._num_bits, self.probability_vector())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[str, float], num_bits: int | None = None) -> "Distribution":
        """Build a distribution from raw shot counts."""
        return cls(counts, num_bits=num_bits)

    @classmethod
    def from_probabilities(
        cls, probabilities: Mapping[str, float], num_bits: int | None = None
    ) -> "Distribution":
        """Build a distribution from probabilities (need not sum exactly to 1)."""
        return cls(probabilities, num_bits=num_bits)

    @classmethod
    def from_samples(cls, samples: Iterable[str], num_bits: int | None = None) -> "Distribution":
        """Build a distribution by counting an iterable of sampled bitstrings."""
        counts: dict[str, float] = {}
        for sample in samples:
            counts[sample] = counts.get(sample, 0.0) + 1.0
        if not counts:
            raise DistributionError("cannot build a distribution from zero samples")
        return cls(counts, num_bits=num_bits)

    @classmethod
    def from_statevector_probabilities(
        cls, probabilities: np.ndarray, num_bits: int, cutoff: float = 1e-12
    ) -> "Distribution":
        """Build a distribution from a dense ``2**num_bits`` probability vector.

        Entries below ``cutoff`` are dropped to keep the support sparse.  The
        support is in ascending index order, and each index is its outcome's
        one-word packed key, so no bitstring is rendered.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.ndim != 1 or probabilities.shape[0] != (1 << num_bits):
            raise DistributionError(
                f"expected a vector of length 2**{num_bits}, got shape {probabilities.shape}"
            )
        if np.any(probabilities < -1e-9):
            raise DistributionError("probability vector contains negative entries")
        support = np.flatnonzero(probabilities > cutoff)
        if support.size == 0:
            raise DistributionError("probability vector has no support above the cutoff")
        packed = PackedOutcomes(support.astype(np.uint64).reshape(-1, 1), num_bits)
        return cls.from_packed(packed, weights=probabilities[support])

    @classmethod
    def from_bit_matrix(cls, bits: np.ndarray, num_bits: int | None = None) -> "Distribution":
        """Build a distribution from a ``(shots, n)`` 0/1 sample matrix.

        The shot matrix is deduplicated with array operations — no per-shot
        strings are ever created.  Rows are packed to uint64 words; up to 64
        bits, shots are counted with ``np.unique(..., return_counts=True)`` on
        the single key column, and wider registers count unique packed rows
        with a bincount (see :meth:`PackedOutcomes.aggregate_bit_matrix`).
        The result is a packed-form distribution over the unique rows.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] == 0:
            raise DistributionError(
                f"expected a non-empty (shots, n) bit matrix, got shape {bits.shape}"
            )
        if num_bits is not None and bits.shape[1] != num_bits:
            raise DistributionError(
                f"bit matrix width {bits.shape[1]} does not match num_bits={num_bits}"
            )
        try:
            packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
        except BitstringError as error:
            raise DistributionError(str(error)) from error
        return cls.from_packed(packed, weights=counts)

    @classmethod
    def from_packed(
        cls, packed: PackedOutcomes, weights: np.ndarray | None = None
    ) -> "Distribution":
        """Build a packed-form distribution directly from a packed support.

        ``weights`` defaults to the packed probability vector and is copied.
        The packed view (words, bit matrix, strings — whatever is already
        materialised) is shared with the new distribution rather than rebuilt.
        Rows must be unique: duplicates are rejected on the words.
        """
        if weights is None:
            if packed.probabilities is None:
                raise DistributionError("packed outcomes carry no probabilities")
            weights = packed.probabilities
        weights = np.array(weights, dtype=float)
        if weights.shape != (packed.num_outcomes,):
            raise DistributionError("weight vector length does not match packed support")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise DistributionError("weights must be finite and >= 0")
        if float(weights.sum()) <= 0:
            raise DistributionError("distribution weights must sum to a positive value")
        if _has_duplicate_rows(packed.words):
            raise DistributionError(
                "packed outcomes contain duplicate rows; aggregate them first "
                "(e.g. via PackedOutcomes.aggregate_bit_matrix)"
            )
        return cls._on_words(packed, weights)

    @classmethod
    def uniform(cls, num_bits: int) -> "Distribution":
        """Return the uniform distribution over all ``2**num_bits`` outcomes."""
        if num_bits > 20:
            raise DistributionError("uniform distribution limited to 20 bits (dense support)")
        probability = 1.0 / (1 << num_bits)
        data = {int_to_bitstring(i, num_bits): probability for i in range(1 << num_bits)}
        return cls(data, num_bits=num_bits, validate=False)

    @classmethod
    def point_mass(cls, outcome: str) -> "Distribution":
        """Return the distribution concentrated on a single outcome."""
        return cls({outcome: 1.0})

    # ------------------------------------------------------------------
    # Mapping-like behaviour
    # ------------------------------------------------------------------
    def _mapping(self) -> dict[str, float]:
        """The ``outcome -> raw weight`` dict, rendered from the words on first use."""
        if self._weights is None:
            self._weights = dict(zip(self._packed.to_strings(), self._raw.tolist()))
        return self._weights

    def _row_of(self, outcome: object) -> int | None:
        """Row of ``outcome`` in the packed support (``None`` if absent).

        Anything that is not a bitstring of this width is absent.
        """
        if not isinstance(outcome, str) or len(outcome) != self._num_bits or outcome.strip("01"):
            return None
        key = np.array(
            [int(outcome[i : i + 64], 2) for i in range(0, self._num_bits, 64)], dtype=np.uint64
        )
        hits = np.flatnonzero((self.packed().words == key).all(axis=1))
        return int(hits[0]) if hits.size else None

    @property
    def num_bits(self) -> int:
        """Bit width shared by all outcomes."""
        return self._num_bits

    @property
    def num_outcomes(self) -> int:
        """Number of distinct outcomes with non-zero weight."""
        return len(self._weights) if self._raw is None else len(self._raw)

    @property
    def total_weight(self) -> float:
        """Sum of the raw weights (shot count if built from counts)."""
        return self._total

    def outcomes(self) -> list[str]:
        """Return the outcomes in insertion order."""
        return list(self._mapping())

    def weight_vector(self) -> np.ndarray:
        """Raw (unnormalised) weights aligned with :meth:`outcomes` order.

        A packed-form distribution returns its stored array (do not mutate
        it); ``weight_vector() / total_weight`` equals :meth:`items`'
        probabilities bit for bit.
        """
        if self._raw is not None:
            return self._raw
        return np.fromiter(self._weights.values(), dtype=float, count=len(self._weights))

    def probability_vector(self) -> np.ndarray:
        """Normalised probability vector aligned with :meth:`outcomes` order.

        Built once and cached; every array consumer (sampling, expectations,
        the packed Hamming kernels) reads this instead of rebuilding
        ``np.array([probability(o) for o in outcomes])``.
        """
        if self._pvec is None:
            weights = self.weight_vector()
            self._pvec = weights / weights.sum()
        return self._pvec

    def packed(self) -> PackedOutcomes:
        """The packed array view of this histogram (built lazily, cached).

        Returns a :class:`~repro.core.bitstring.PackedOutcomes` whose row
        order matches :meth:`outcomes` and whose probability vector equals
        :meth:`probability_vector`.
        """
        if self._packed is None:
            self._packed = PackedOutcomes.from_strings(
                list(self._weights),
                probabilities=self.probability_vector(),
                num_bits=self._num_bits,
                validate=False,
            )
        return self._packed

    def has_packed_view(self) -> bool:
        """True when the packed view is already materialised (no rebuild needed).

        Diagnostic hook for pipeline tracing and tests asserting the
        pack-once behaviour; does not trigger a build.
        """
        return self._packed is not None

    def support_mask(self, outcomes: Iterable[str]) -> np.ndarray:
        """Boolean mask over the support (:meth:`outcomes` order) of the rows in ``outcomes``.

        Each entry is looked up on the packed words; entries that are not
        bitstrings of this width match nothing.
        """
        mask = np.zeros(self.num_outcomes, dtype=bool)
        for outcome in outcomes:
            row = self._row_of(outcome)
            if row is not None:
                mask[row] = True
        return mask

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate over ``(outcome, probability)`` pairs."""
        for outcome, weight in self._mapping().items():
            yield outcome, weight / self._total

    def counts(self) -> dict[str, float]:
        """Return the raw (unnormalised) weights."""
        return dict(self._mapping())

    def probabilities(self) -> dict[str, float]:
        """Return a normalised ``outcome -> probability`` dictionary."""
        return {outcome: weight / self._total for outcome, weight in self._mapping().items()}

    def probability(self, outcome: str, default: float = 0.0) -> float:
        """Return the probability of ``outcome`` (``default`` if absent)."""
        if self._weights is not None:
            weight = self._weights.get(outcome)
            return default if weight is None else weight / self._total
        row = self._row_of(outcome)
        return default if row is None else float(self._raw[row]) / self._total

    def __contains__(self, outcome: str) -> bool:
        if self._weights is not None:
            return outcome in self._weights
        return self._row_of(outcome) is not None

    def __len__(self) -> int:
        return self.num_outcomes

    def __iter__(self) -> Iterator[str]:
        return iter(self._mapping())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if self._num_bits != other._num_bits:
            return False
        mine = self.probabilities()
        theirs = other.probabilities()
        if mine.keys() != theirs.keys():
            return False
        return all(math.isclose(mine[k], theirs[k], rel_tol=1e-9, abs_tol=1e-12) for k in mine)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = dict(sorted(self.probabilities().items(), key=lambda kv: -kv[1])[:4])
        return f"Distribution(num_bits={self._num_bits}, outcomes={len(self)}, top={head})"

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Distribution":
        """Return a copy whose weights are exact probabilities summing to 1."""
        # Same support, same order, same normalised probabilities: the packed
        # view and probability vector carry over unchanged.
        if self._raw is not None:
            return Distribution._on_words(self._packed, self._raw / self._total, self._pvec)
        result = Distribution(self.probabilities(), num_bits=self._num_bits, validate=False)
        result._pvec = self._pvec
        result._packed = self._packed
        return result

    def top_k(self, k: int) -> "Distribution":
        """Return a distribution restricted to the ``k`` most probable outcomes.

        Probability ties are broken lexicographically on the outcome (the same
        ``(-p, outcome)`` ordering as :meth:`ranked_outcomes`), so truncation
        is deterministic across equivalent inputs regardless of insertion
        order.  When the packed view is already built it is sliced, not
        re-packed.
        """
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        weights = self._mapping()
        outcomes = list(weights)
        order = sorted(
            range(len(outcomes)), key=lambda i: (-weights[outcomes[i]], outcomes[i])
        )[:k]
        if self._packed is None:
            data = {outcomes[i]: weights[outcomes[i]] for i in order}
            return Distribution(data, num_bits=self._num_bits, validate=False)
        kept = self._packed.subset(np.asarray(order, dtype=np.intp))
        pvec = kept.probabilities / kept.probabilities.sum()
        return Distribution._on_words(kept, self.weight_vector()[order], pvec)

    def filtered(self, min_probability: float) -> "Distribution":
        """Drop outcomes below ``min_probability`` (keeps at least the argmax)."""
        weights = self._mapping()
        kept = {o: w for o, w in weights.items() if w / self._total >= min_probability}
        if not kept:
            best = self.most_probable()
            kept = {best: weights[best]}
        return Distribution(kept, num_bits=self._num_bits, validate=False)

    def merged_with(self, other: "Distribution", weight: float = 0.5) -> "Distribution":
        """Return the convex mixture ``weight*self + (1-weight)*other``.

        The union support is resolved on the packed words (unique rows of the
        concatenated supports) and the mixture is one weighted ``bincount``.
        """
        if not 0.0 <= weight <= 1.0:
            raise DistributionError(f"mixture weight must be in [0, 1], got {weight}")
        if other.num_bits != self._num_bits:
            raise DistributionError("cannot mix distributions of different bit widths")
        words = np.concatenate([self.packed().words, other.packed().words], axis=0)
        scaled = np.concatenate(
            [weight * self.probability_vector(), (1 - weight) * other.probability_vector()]
        )
        merged, totals = PackedOutcomes._aggregate_words(words, self._num_bits, scaled)
        return Distribution.from_packed(merged, weights=totals)

    def mapped(self, permutation: list[int]) -> "Distribution":
        """Reorder the bits of every outcome according to ``permutation``.

        ``permutation[i]`` gives the source position of output bit ``i``.
        Used to undo qubit-routing permutations introduced by the transpiler.
        Implemented as a column permutation of the packed bit matrix, so the
        sampler's cached packing survives the un-routing step; permuting
        columns keeps unique rows unique.
        """
        if sorted(permutation) != list(range(self._num_bits)):
            raise DistributionError("permutation must be a rearrangement of all bit positions")
        bits = self.packed().bit_matrix()[:, permutation]
        return Distribution._on_words(
            PackedOutcomes.from_bit_matrix(bits), self.weight_vector()
        )

    def marginal(self, bit_positions: list[int]) -> "Distribution":
        """Return the marginal distribution over the given bit positions.

        Projects the packed bit matrix onto the kept columns and merges
        duplicate projections with one weighted ``bincount``.
        """
        if not bit_positions:
            raise DistributionError("marginal requires at least one bit position")
        for position in bit_positions:
            if not 0 <= position < self._num_bits:
                raise DistributionError(
                    f"bit position {position} out of range for width {self._num_bits}"
                )
        bits = self.packed().bit_matrix()[:, bit_positions]
        projected, totals = PackedOutcomes.aggregate_bit_matrix(bits, self.weight_vector())
        return Distribution.from_packed(projected, weights=totals)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def most_probable(self) -> str:
        """Return the single most probable outcome (ties broken lexicographically)."""
        weights = self._mapping()
        best_weight = max(weights.values())
        candidates = [o for o, w in weights.items() if w == best_weight]
        return min(candidates)

    def ranked_outcomes(self) -> list[tuple[str, float]]:
        """Return ``(outcome, probability)`` pairs sorted by decreasing probability."""
        return sorted(self.items(), key=lambda kv: (-kv[1], kv[0]))

    def entropy(self) -> float:
        """Shannon entropy of the distribution, in bits."""
        probabilities = (w / self._total for w in self.weight_vector().tolist())
        return float(-sum(p * math.log2(p) for p in probabilities if p > 0))

    def expectation(self, cost_function) -> float:
        """Expected value of ``cost_function(outcome)`` under the distribution."""
        costs = np.fromiter(
            (cost_function(outcome) for outcome in self._mapping()),
            dtype=float,
            count=self.num_outcomes,
        )
        return float(costs @ self.probability_vector())

    def hamming_distances_to(self, reference: str) -> np.ndarray:
        """Hamming distance of every outcome (in insertion order) to ``reference``."""
        validate_bitstring(reference, num_bits=self._num_bits)
        return self.packed().distances_to_reference(reference)

    def sample(self, num_samples: int, rng: np.random.Generator | None = None) -> list[str]:
        """Draw ``num_samples`` outcomes i.i.d. from the distribution."""
        if num_samples <= 0:
            raise DistributionError(f"num_samples must be positive, got {num_samples}")
        generator = rng if rng is not None else np.random.default_rng()
        outcomes = self.outcomes()
        indices = generator.choice(
            len(outcomes), size=num_samples, p=self.probability_vector()
        )
        return [outcomes[i] for i in indices]

    def resampled(self, num_shots: int, rng: np.random.Generator | None = None) -> "Distribution":
        """Return a finite-shot (multinomial) resampling of this distribution."""
        if num_shots <= 0:
            raise DistributionError(f"num_shots must be positive, got {num_shots}")
        generator = rng if rng is not None else np.random.default_rng()
        counts = generator.multinomial(num_shots, self.probability_vector())
        kept = np.nonzero(counts)[0]
        if self._packed is not None:
            survivors = self._packed if kept.size == counts.size else self._packed.subset(kept)
            pvec = counts[kept] / counts[kept].sum()
            return Distribution._on_words(survivors, counts[kept].astype(float), pvec)
        outcomes = self.outcomes()
        data = {outcomes[i]: float(counts[i]) for i in kept}
        return Distribution(data, num_bits=self._num_bits, validate=False)

    def to_dense(self) -> np.ndarray:
        """Return the dense probability vector of length ``2**num_bits``."""
        if self._num_bits > 24:
            raise DistributionError("dense conversion limited to 24 bits")
        dense = np.zeros(1 << self._num_bits, dtype=float)
        dense[self.packed().words[:, 0].astype(np.intp)] = self.weight_vector() / self._total
        return dense


def _has_duplicate_rows(words: np.ndarray) -> bool:
    """True when two rows of a packed word array are equal.

    One-word keys in strictly ascending order (every aggregated histogram)
    pass in one comparison; anything else is sorted first.
    """
    if words.shape[1] == 1:
        keys = words[:, 0]
        if np.all(keys[1:] > keys[:-1]):
            return False
        keys = np.sort(keys)
        return bool(np.any(keys[1:] == keys[:-1]))
    return np.unique(words, axis=0).shape[0] != words.shape[0]
