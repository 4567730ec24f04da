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
* The string-keyed mapping is the *compatibility surface*; the canonical
  internal form is the packed array view returned by :meth:`packed`: a
  :class:`~repro.core.bitstring.PackedOutcomes` holding the support as uint64
  words plus the normalised probability vector (:meth:`probability_vector`).
  Both are built lazily, cached for the lifetime of the object (distributions
  are never mutated in place) and *shared* with derived distributions where
  the support carries over (:meth:`normalized`, :meth:`top_k`,
  :meth:`resampled`, :meth:`from_packed`), so a multi-stage pipeline packs
  each support once.  Every Hamming hot path (HAMMER, spectra, CHS, EHD,
  histogram metrics, cut costs) consumes the packed view directly.
* Sampling backends should prefer :meth:`from_bit_matrix`, which deduplicates
  a ``(shots, n)`` bit matrix with array ops and renders only the unique
  support to strings.
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

    __slots__ = ("_weights", "_num_bits", "_total", "_packed", "_pvec")

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
        self._weights: dict[str, float] = {k: float(v) for k, v in items.items()}
        self._num_bits = inferred_bits
        self._total = total
        self._packed: PackedOutcomes | None = None
        self._pvec: np.ndarray | None = None

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

        Entries below ``cutoff`` are dropped to keep the support sparse.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.ndim != 1 or probabilities.shape[0] != (1 << num_bits):
            raise DistributionError(
                f"expected a vector of length 2**{num_bits}, got shape {probabilities.shape}"
            )
        if np.any(probabilities < -1e-9):
            raise DistributionError("probability vector contains negative entries")
        data = {
            int_to_bitstring(index, num_bits): float(p)
            for index, p in enumerate(probabilities)
            if p > cutoff
        }
        if not data:
            raise DistributionError("probability vector has no support above the cutoff")
        return cls(data, num_bits=num_bits, validate=False)

    @classmethod
    def from_bit_matrix(cls, bits: np.ndarray, num_bits: int | None = None) -> "Distribution":
        """Build a distribution from a ``(shots, n)`` 0/1 sample matrix.

        The shot matrix is deduplicated with array operations — no per-shot
        strings are ever created; only the unique support is rendered once.
        Rows are packed to uint64 words; up to 64 bits, shots are counted
        with ``np.unique(..., return_counts=True)`` on the single key column,
        and wider registers count unique packed rows with a bincount (see
        :meth:`PackedOutcomes.aggregate_bit_matrix`).  The resulting distribution
        arrives with its packed view pre-cached, so downstream Hamming kernels
        never re-pack.
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
        """Build a distribution directly from a packed support.

        ``weights`` defaults to the packed probability vector.  The packed
        view (words, bit matrix, strings — whatever is already materialised)
        is shared with the new distribution rather than rebuilt.
        """
        if weights is None:
            if packed.probabilities is None:
                raise DistributionError("packed outcomes carry no probabilities")
            weights = packed.probabilities
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (packed.num_outcomes,):
            raise DistributionError("weight vector length does not match packed support")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise DistributionError("weights must be finite and >= 0")
        total = float(weights.sum())
        if total <= 0:
            raise DistributionError("distribution weights must sum to a positive value")
        data = dict(zip(packed.to_strings(), weights.tolist()))
        if len(data) != packed.num_outcomes:
            raise DistributionError(
                "packed outcomes contain duplicate rows; aggregate them first "
                "(e.g. via PackedOutcomes.aggregate_bit_matrix)"
            )
        distribution = cls(data, num_bits=packed.num_bits, validate=False)
        pvec = weights / total
        distribution._pvec = pvec
        distribution._packed = packed.with_probabilities(pvec)
        return distribution

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
    @property
    def num_bits(self) -> int:
        """Bit width shared by all outcomes."""
        return self._num_bits

    @property
    def num_outcomes(self) -> int:
        """Number of distinct outcomes with non-zero weight."""
        return len(self._weights)

    @property
    def total_weight(self) -> float:
        """Sum of the raw weights (shot count if built from counts)."""
        return self._total

    def outcomes(self) -> list[str]:
        """Return the outcomes in insertion order."""
        return list(self._weights)

    def probability_vector(self) -> np.ndarray:
        """Normalised probability vector aligned with :meth:`outcomes` order.

        Built once and cached; every array consumer (sampling, expectations,
        the packed Hamming kernels) reads this instead of rebuilding
        ``np.array([probability(o) for o in outcomes])``.
        """
        if self._pvec is None:
            weights = np.fromiter(
                self._weights.values(), dtype=float, count=len(self._weights)
            )
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

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate over ``(outcome, probability)`` pairs."""
        for outcome, weight in self._weights.items():
            yield outcome, weight / self._total

    def counts(self) -> dict[str, float]:
        """Return the raw (unnormalised) weights."""
        return dict(self._weights)

    def probabilities(self) -> dict[str, float]:
        """Return a normalised ``outcome -> probability`` dictionary."""
        return {outcome: weight / self._total for outcome, weight in self._weights.items()}

    def probability(self, outcome: str, default: float = 0.0) -> float:
        """Return the probability of ``outcome`` (``default`` if absent)."""
        weight = self._weights.get(outcome)
        if weight is None:
            return default
        return weight / self._total

    def __contains__(self, outcome: str) -> bool:
        return outcome in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[str]:
        return iter(self._weights)

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
        result = Distribution(self.probabilities(), num_bits=self._num_bits, validate=False)
        # Same support, same order, same normalised probabilities: the packed
        # view and probability vector carry over unchanged.
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
        outcomes = list(self._weights)
        order = sorted(
            range(len(outcomes)), key=lambda i: (-self._weights[outcomes[i]], outcomes[i])
        )[:k]
        data = {outcomes[i]: self._weights[outcomes[i]] for i in order}
        result = Distribution(data, num_bits=self._num_bits, validate=False)
        if self._packed is not None:
            kept = self._packed.subset(np.asarray(order, dtype=np.intp))
            result._pvec = kept.probabilities / kept.probabilities.sum()
            result._packed = kept.with_probabilities(result._pvec)
        return result

    def filtered(self, min_probability: float) -> "Distribution":
        """Drop outcomes below ``min_probability`` (keeps at least the argmax)."""
        kept = {o: w for o, w in self._weights.items() if w / self._total >= min_probability}
        if not kept:
            best = self.most_probable()
            kept = {best: self._weights[best]}
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
        sampler's cached packing survives the un-routing step.
        """
        if sorted(permutation) != list(range(self._num_bits)):
            raise DistributionError("permutation must be a rearrangement of all bit positions")
        bits = self.packed().bit_matrix()[:, permutation]
        weights = np.fromiter(self._weights.values(), dtype=float, count=len(self._weights))
        return Distribution.from_packed(
            PackedOutcomes.from_bit_matrix(bits), weights=weights
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
        weights = np.fromiter(self._weights.values(), dtype=float, count=len(self._weights))
        projected, totals = PackedOutcomes.aggregate_bit_matrix(bits, weights)
        return Distribution.from_packed(projected, weights=totals)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def most_probable(self) -> str:
        """Return the single most probable outcome (ties broken lexicographically)."""
        best_weight = max(self._weights.values())
        candidates = [o for o, w in self._weights.items() if w == best_weight]
        return min(candidates)

    def ranked_outcomes(self) -> list[tuple[str, float]]:
        """Return ``(outcome, probability)`` pairs sorted by decreasing probability."""
        return sorted(self.items(), key=lambda kv: (-kv[1], kv[0]))

    def entropy(self) -> float:
        """Shannon entropy of the distribution, in bits."""
        return float(-sum(p * math.log2(p) for _, p in self.items() if p > 0))

    def expectation(self, cost_function) -> float:
        """Expected value of ``cost_function(outcome)`` under the distribution."""
        costs = np.fromiter(
            (cost_function(outcome) for outcome in self._weights),
            dtype=float,
            count=len(self._weights),
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
        outcomes = self.outcomes()
        counts = generator.multinomial(num_shots, self.probability_vector())
        data = {o: float(c) for o, c in zip(outcomes, counts) if c > 0}
        result = Distribution(data, num_bits=self._num_bits, validate=False)
        if self._packed is not None and len(data) < len(outcomes):
            kept = np.nonzero(counts)[0]
            survivors = self._packed.subset(kept)
            result._pvec = counts[kept] / counts[kept].sum()
            result._packed = survivors.with_probabilities(result._pvec)
        elif self._packed is not None:
            result._pvec = counts / counts.sum()
            result._packed = self._packed.with_probabilities(result._pvec)
        return result

    def to_dense(self) -> np.ndarray:
        """Return the dense probability vector of length ``2**num_bits``."""
        if self._num_bits > 24:
            raise DistributionError("dense conversion limited to 24 bits")
        dense = np.zeros(1 << self._num_bits, dtype=float)
        for outcome, probability in self.items():
            dense[int(outcome, 2)] = probability
        return dense
