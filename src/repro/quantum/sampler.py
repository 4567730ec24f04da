"""Noisy execution of circuits: turning a circuit + noise model into a histogram.

One noise model produces every noisy histogram: the analytic bit-flip +
scramble model.  The ideal output distribution is computed once; each shot
then draws an ideal sample and passes it through (a) independent per-qubit
bit-flip channels whose strengths accumulate the circuit's gate, idle and
crosstalk errors and (b) readout assignment errors.  A small "scramble"
probability replaces the shot with a uniformly random outcome, modelling
trials whose errors propagated so widely that the output carries no
information.  Every study, dataset emulator and benchmark draws from it; it
produces exactly the Hamming-clustered + uniform-background histograms the
paper characterises.

The sampler consumes the noise model through per-qubit *arrays*
(``accumulated_bitflip_probabilities``, ``readout_flip_probabilities``), so a
:class:`~repro.quantum.noise.NoiseModel` carrying a per-qubit/per-edge
:class:`~repro.calibration.snapshot.CalibrationSnapshot` is sampled with no
extra RNG draws and no code change here — heterogeneity only changes the
probabilities inside the arrays, and a uniform model remains bit-identical
to historical releases.

Every entry point returns a :class:`~repro.core.distribution.Distribution`
over bitstrings (qubit 0 = most-significant bit), or a shard's packed
``(words, counts)``.  Internally the draw works on a ``(shots, n)`` bit
matrix end to end and hands it to :meth:`Distribution.from_bit_matrix` or
the packed aggregation, which deduplicate shots with array ops and deliver
the histogram with its packed Hamming view pre-cached — no per-shot strings
are ever materialised.

The bit-flip draw (:meth:`_BitflipPlan.draw`) takes exactly these values
from the generator, in this order: ``choice(shots)`` over the ideal support,
``shots·n`` uniforms for the gate flips, ``shots`` uniforms for the scramble
test, ``integers(0, 2, (k, n), uint8)`` for the k scrambled shots (only when
k > 0) and ``shots·n`` uniforms for readout.  That order and those counts are
the histogram contract: change a draw, a count or the order and every pinned
digest, golden row and benchmark reference moves.  The call sizes are not
part of it: ``Generator.random`` fills its output sequentially
(``random((a, n))`` then ``random((b, n))`` returns the rows of one
``random((a + b, n))``), so each uniform phase is drawn in row blocks of one
float64 buffer of :data:`DRAW_BLOCK_ENTRIES` entries.  ``choice`` and
``integers`` stay single calls.  The draw works in place on one contiguous
``(shots, n)`` uint8 matrix; the readout step is
:func:`_apply_readout_errors_to_bits`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bitstring import PackedOutcomes, pack_bit_matrix
from repro.core.distribution import Distribution
from repro.exceptions import CircuitError, MergeError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import simulate_statevector

__all__ = [
    "sample_bitflip_distribution",
    "sample_bitflip_batch",
    "sample_bitflip_chunk",
    "merge_counted_chunks",
    "NoisySampler",
]


#: Float64 entries of the one uniform buffer a draw fills block by block
#: (1 MiB), so that a draw's float scratch does not grow with its shot
#: count.  The block size never changes a drawn value, only how many
#: ``random`` calls take them.
DRAW_BLOCK_ENTRIES = 1 << 17


def _row_blocks(
    target: np.ndarray, buffer: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive row blocks of ``target``, each with a view of ``buffer`` shaped like it.

    A block has as many rows as ``buffer`` holds, the last one the rest.  A
    caller that fills each view with ``generator.random`` draws, block after
    block, the values one ``generator.random(target.shape)`` would return.
    """
    rows = max(1, buffer.size // math.prod(target.shape[1:]))
    for start in range(0, len(target), rows):
        block = target[start : start + rows]
        yield block, buffer[: block.size].reshape(block.shape)


def _apply_readout_errors_to_bits(
    bits: np.ndarray,
    p10: np.ndarray,
    p01: np.ndarray,
    rng: np.random.Generator,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-qubit readout assignment errors to a (shots, n) bit matrix, in place.

    ``bits`` is a uint8 0/1 matrix.  One ``rng.random(bits.shape)`` uniform
    per bit (written into ``uniforms`` when given) decides its flip: a 0 in
    column q flips when its uniform is below ``p10[q]``, a 1 when it is below
    ``p01[q]``.  The flip mask is chosen with bool ops, ``lo ^ ((lo ^ hi) &
    bits)`` for ``lo = u < p10`` and ``hi = u < p01``, so no per-bit float
    threshold matrix is built.  Returns ``bits``.
    """
    uniforms = rng.random(bits.shape, out=uniforms)
    as_bool = bits.view(np.bool_)
    lo = np.less(uniforms, p10)
    hi = np.less(uniforms, p01)
    hi ^= lo
    hi &= as_bool
    lo ^= hi
    as_bool ^= lo
    return bits


@dataclass(frozen=True)
class _BitflipPlan:
    """Shared, job-independent state of the analytic bit-flip sampler.

    Everything here depends only on ``(circuit, noise model, ideal
    distribution)`` — the per-qubit flip/readout arrays accumulated from the
    circuit's gate structure, the scramble probability and the ideal support
    views.  Building the plan once and drawing many jobs (or shot chunks)
    against it is what the engine's batched sampling amortises; the draw
    itself consumes each job's RNG in exactly the order the historical
    single-job path did, so per-job bit matrices are bit-identical whether
    drawn alone, in a batch, or chunk by chunk.
    """

    num_qubits: int
    source_bits: np.ndarray
    probability_vector: np.ndarray
    num_outcomes: int
    flip_probabilities: np.ndarray
    scramble_probability: float
    p10: np.ndarray
    p01: np.ndarray

    @classmethod
    def build(
        cls, circuit: QuantumCircuit, noise_model: NoiseModel, ideal: Distribution
    ) -> "_BitflipPlan":
        num_qubits = circuit.num_qubits
        p10, p01 = noise_model.readout_flip_probabilities(num_qubits)
        return cls(
            num_qubits=num_qubits,
            source_bits=ideal.packed().bit_matrix(),
            probability_vector=ideal.probability_vector(),
            num_outcomes=ideal.num_outcomes,
            flip_probabilities=noise_model.accumulated_bitflip_probabilities(circuit),
            scramble_probability=noise_model.scramble_probability(circuit),
            p10=p10,
            p01=p01,
        )

    def draw(self, shots: int, generator: np.random.Generator) -> np.ndarray:
        """One ``(shots, n)`` noisy 0/1 uint8 bit matrix, drawn in place.

        The values taken from the generator, their counts and their order
        are the histogram contract (every pinned digest, golden row and
        benchmark reference depends on them): ``choice(shots)`` over the
        ideal support, ``shots·n`` uniforms for the gate flips, ``shots``
        for the scramble test, ``integers(0, 2, (k, n), uint8)`` for the k
        scrambled shots (only when k > 0), and ``shots·n`` for readout.

        The work happens on one C-contiguous matrix: the chosen ideal rows
        are gathered into it, the gate-flip mask is XORed straight into its
        bits, scrambled rows are overwritten, and the readout flips are
        applied by :func:`_apply_readout_errors_to_bits`.  Each uniform
        phase is drawn in row blocks into one float64 buffer of at most
        :data:`DRAW_BLOCK_ENTRIES` entries; ``choice`` and ``integers`` are
        single calls.
        """
        chosen = generator.choice(self.num_outcomes, size=shots, p=self.probability_vector)
        bits = self.source_bits.take(chosen, axis=0)
        del chosen
        rows = max(1, DRAW_BLOCK_ENTRIES // self.num_qubits)
        buffer = np.empty(min(shots, rows) * self.num_qubits)
        for block, uniforms in _row_blocks(bits.view(np.bool_), buffer):
            block ^= np.less(generator.random(out=uniforms), self.flip_probabilities)
        if self.scramble_probability > 0:
            scrambled = np.empty(shots, dtype=np.bool_)
            for block, uniforms in _row_blocks(scrambled, buffer):
                np.less(generator.random(out=uniforms), self.scramble_probability, out=block)
            if scrambled.any():
                bits[scrambled] = generator.integers(
                    0, 2, size=(int(scrambled.sum()), self.num_qubits), dtype=np.uint8
                )
        for block, uniforms in _row_blocks(bits, buffer):
            _apply_readout_errors_to_bits(block, self.p10, self.p01, generator, uniforms)
        return bits


def sample_bitflip_distribution(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int,
    rng: np.random.Generator | None = None,
    ideal: Distribution | None = None,
) -> Distribution:
    """Fast analytic bit-flip + scramble sampling (see module docstring).

    Parameters
    ----------
    ideal:
        Pre-computed ideal distribution of the circuit; pass it when sampling
        the same circuit many times (e.g. parameter sweeps) to avoid repeated
        statevector simulations.
    """
    if shots <= 0:
        raise CircuitError(f"shots must be positive, got {shots}")
    generator = rng if rng is not None else np.random.default_rng()
    if ideal is None:
        ideal = simulate_statevector(circuit).measurement_distribution()
    plan = _BitflipPlan.build(circuit, noise_model, ideal)
    bits = plan.draw(shots, generator)
    return Distribution.from_bit_matrix(bits, num_bits=circuit.num_qubits)


def sample_bitflip_batch(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    requests: Sequence[tuple[int, np.random.Generator]],
    ideal: Distribution | None = None,
) -> list[Distribution]:
    """Sample several jobs of the same ``(circuit, noise model)`` as one batch.

    ``requests`` is a sequence of ``(shots, generator)`` pairs, one per job.
    The circuit-dependent noise arrays and the ideal support views are
    computed once for the whole batch; each job then draws with its own
    generator in the historical order, is packed to uint64 words and
    aggregated immediately — so peak memory is one job's uint8 shot matrix
    and its packing (plus the draw's fixed-size uniform block), not the
    group's, and every returned histogram is bit-identical to a lone
    :func:`sample_bitflip_distribution` call with the same generator state
    (packing and shot deduplication are row-wise, so doing them per job or
    over a concatenation is the same arithmetic).  Up to 64 qubits the shots
    are counted on the packed uint64 key column; wider registers count
    unique packed rows (see :meth:`PackedOutcomes._aggregate_words`).
    """
    if not requests:
        return []
    for shots, _ in requests:
        if shots <= 0:
            raise CircuitError(f"shots must be positive, got {shots}")
    if ideal is None:
        ideal = simulate_statevector(circuit).measurement_distribution()
    plan = _BitflipPlan.build(circuit, noise_model, ideal)
    results: list[Distribution] = []
    for shots, generator in requests:
        words = pack_bit_matrix(plan.draw(shots, generator))
        packed, counts = PackedOutcomes._aggregate_words(words, plan.num_qubits)
        results.append(Distribution.from_packed(packed, weights=counts))
    return results


def sample_bitflip_chunk(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int,
    rng: np.random.Generator,
    ideal: Distribution | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One shard of a large job: aggregated ``(words, counts)``, not a Distribution.

    Million-shot jobs are split into fixed-size chunks, each drawn from its
    own :class:`numpy.random.SeedSequence`-derived generator; a chunk returns
    its deduplicated packed support and per-outcome shot counts — a compact,
    picklable partial histogram that the engine's
    :class:`~repro.engine.reduction.ReductionTree` reduces deterministically.
    The shots are counted the way :meth:`PackedOutcomes.aggregate_bit_matrix`
    counts them: on the packed uint64 key column up to 64 qubits, by unique
    packed rows beyond.
    """
    if shots <= 0:
        raise CircuitError(f"shots must be positive, got {shots}")
    if ideal is None:
        ideal = simulate_statevector(circuit).measurement_distribution()
    plan = _BitflipPlan.build(circuit, noise_model, ideal)
    bits = plan.draw(shots, rng)
    packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
    return packed.words, counts


def merge_counted_chunks(
    segments: Sequence[tuple[np.ndarray, np.ndarray]], num_bits: int
) -> Distribution:
    """Reduce sharded ``(words, counts)`` partial histograms into one Distribution.

    The reduction is deterministic *regardless of chunk completion order*:
    callers pass segments in ascending chunk index, the merged support is
    re-sorted by outcome value, and counts are integer-valued floats whose
    addition is exact — so ``--jobs 1/2/4`` produce bit-identical rows.

    The engine merges through its streaming
    :class:`~repro.engine.reduction.ReductionTree` instead; this flat
    vstack-and-re-sort reduction is the tests' reference, the one the tree
    must be bit-identical to.
    """
    if not segments:
        raise MergeError("cannot merge zero sampled chunks")
    words = np.vstack([segment_words for segment_words, _ in segments])
    counts = np.concatenate([segment_counts for _, segment_counts in segments])
    packed, totals = PackedOutcomes._aggregate_words(words, num_bits, weights=counts)
    return Distribution.from_packed(packed, weights=totals)


class NoisySampler:
    """Convenience object bundling a noise model, shot count and RNG seed.

    Experiments construct one sampler per simulated device and reuse it for
    every circuit, which keeps the RNG stream reproducible: successive
    :meth:`run` calls draw from one ``np.random.default_rng(seed)``::

        sampler = NoisySampler(device.noise_model, shots=8192, seed=7)
        noisy = sampler.run(circuit)
    """

    def __init__(self, noise_model: NoiseModel, shots: int = 8192, seed: int | None = None) -> None:
        if shots <= 0:
            raise CircuitError(f"shots must be positive, got {shots}")
        self.noise_model = noise_model
        self.shots = shots
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: QuantumCircuit, ideal: Distribution | None = None) -> Distribution:
        """Sample a noisy histogram for one circuit (see :func:`sample_bitflip_distribution`)."""
        return sample_bitflip_distribution(
            circuit, self.noise_model, self.shots, rng=self._rng, ideal=ideal
        )
