"""Noisy execution of circuits: turning a circuit + noise model into a histogram.

Two sampling strategies are provided behind one entry point,
:func:`sample_noisy_distribution`:

``"trajectory"``
    Monte-Carlo Pauli-trajectory simulation.  For each trajectory a set of
    stochastic Pauli errors is sampled from the noise model and *inserted into
    the circuit*, so errors propagate through subsequent entangling gates
    exactly as they would physically.  Shots are divided over the
    trajectories.  Accurate but costs one statevector simulation per
    trajectory; use it for small circuits and validation.

``"bitflip"``
    Fast analytic model.  The ideal output distribution is computed once; each
    shot then draws an ideal sample and passes it through (a) independent
    per-qubit bit-flip channels whose strengths accumulate the circuit's gate,
    idle and crosstalk errors and (b) readout assignment errors.  A small
    "scramble" probability replaces the shot with a uniformly random outcome,
    modelling trials whose errors propagated so widely that the output carries
    no information.  This is the model behind the large benchmark sweeps and
    the dataset emulators; it produces exactly the Hamming-clustered +
    uniform-background histograms the paper characterises.

Both paths consume the noise model through per-qubit *arrays*
(``accumulated_bitflip_probabilities``, ``readout_flip_probabilities``), so a
:class:`~repro.quantum.noise.NoiseModel` carrying a per-qubit/per-edge
:class:`~repro.calibration.snapshot.CalibrationSnapshot` is sampled with no
extra RNG draws and no code change here — heterogeneity only changes the
probabilities inside the arrays, and a uniform model remains bit-identical
to historical releases.

Both return a :class:`~repro.core.distribution.Distribution` over bitstrings
(qubit 0 = most-significant bit).  Internally each path works on ``(shots, n)``
bit matrices end to end and hands the final matrix to
:meth:`Distribution.from_bit_matrix`, which deduplicates shots with array ops
and delivers the histogram with its packed Hamming view pre-cached — no
per-shot strings are ever materialised.

The bit-flip draw (:meth:`_BitflipPlan.draw`) makes exactly these generator
calls, in this order: ``choice(shots)`` over the ideal support,
``random((shots, n))`` for the gate flips, ``random(shots)`` for the scramble
test, ``integers(0, 2, (k, n), uint8)`` for the k scrambled shots (only when
k > 0) and ``random((shots, n))`` for readout.  That sequence is the
histogram contract: change a call, a size or the order and every pinned
digest, golden row and benchmark reference moves.  The draw works in place
on one contiguous ``(shots, n)`` uint8 matrix, and both ``(shots, n)``
uniform draws fill one float64 buffer; the readout step is shared with the
trajectory path (:func:`_apply_readout_errors_to_bits`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bitstring import PackedOutcomes, pack_bit_matrix
from repro.core.distribution import Distribution
from repro.exceptions import CircuitError, MergeError, NoiseModelError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import Statevector, simulate_statevector

__all__ = [
    "sample_noisy_distribution",
    "sample_trajectory_distribution",
    "sample_bitflip_distribution",
    "sample_bitflip_batch",
    "sample_bitflip_chunk",
    "merge_counted_chunks",
    "apply_readout_errors",
    "NoisySampler",
]

_DEFAULT_MAX_TRAJECTORIES = 64


def _bitstrings_from_matrix(bits: np.ndarray) -> list[str]:
    """Convert a (shots, n) 0/1 integer matrix into bitstring samples."""
    from repro.core.bitstring import _strings_from_bit_matrix

    return _strings_from_bit_matrix(np.ascontiguousarray(bits, dtype=np.uint8))


def _samples_to_bit_matrix(samples: list[str]) -> np.ndarray:
    """Convert bitstring samples into a (shots, n) uint8 matrix."""
    from repro.core.bitstring import _bit_matrix_from_strings

    return _bit_matrix_from_strings(samples, len(samples[0]))


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


def apply_readout_errors(
    samples: list[str], noise_model: NoiseModel, rng: np.random.Generator
) -> list[str]:
    """Apply per-qubit readout assignment errors to a list of sampled bitstrings.

    String-list convenience wrapper around the bit-matrix kernel; internal
    sampling paths stay on bit matrices and never call this.
    """
    if not samples:
        return samples
    bits = _samples_to_bit_matrix(samples)
    p10, p01 = noise_model.readout_flip_probabilities(bits.shape[1])
    return _bitstrings_from_matrix(_apply_readout_errors_to_bits(bits, p10, p01, rng))


def sample_trajectory_distribution(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int,
    rng: np.random.Generator | None = None,
    max_trajectories: int = _DEFAULT_MAX_TRAJECTORIES,
) -> Distribution:
    """Monte-Carlo Pauli trajectory sampling (see module docstring)."""
    if shots <= 0:
        raise CircuitError(f"shots must be positive, got {shots}")
    if max_trajectories <= 0:
        raise NoiseModelError(f"max_trajectories must be positive, got {max_trajectories}")
    generator = rng if rng is not None else np.random.default_rng()
    num_trajectories = min(shots, max_trajectories)
    shots_per_trajectory = [shots // num_trajectories] * num_trajectories
    for index in range(shots % num_trajectories):
        shots_per_trajectory[index] += 1

    shot_blocks: list[np.ndarray] = []
    for trajectory_shots in shots_per_trajectory:
        errors = noise_model.sample_error_instructions(circuit, generator)
        errors_by_position: dict[int, list] = {}
        for position, error_instruction in errors:
            errors_by_position.setdefault(position, []).append(error_instruction)
        state = Statevector(circuit.num_qubits)
        for position, instruction in enumerate(circuit.instructions):
            state.apply_instruction(instruction)
            for error_instruction in errors_by_position.get(position, []):
                state.apply_instruction(error_instruction)
        if not circuit.instructions and -1 in errors_by_position:  # pragma: no cover - defensive
            for error_instruction in errors_by_position[-1]:
                state.apply_instruction(error_instruction)
        sampled = state.sample(trajectory_shots, rng=generator)
        # Expand the per-trajectory histogram to one row per shot without
        # materialising per-shot strings: repeat the packed support's rows.
        counts = np.fromiter(
            sampled.counts().values(), dtype=float, count=sampled.num_outcomes
        ).astype(np.int64)
        shot_blocks.append(np.repeat(sampled.packed().bit_matrix(), counts, axis=0))
    bits = np.vstack(shot_blocks)
    p10, p01 = noise_model.readout_flip_probabilities(circuit.num_qubits)
    _apply_readout_errors_to_bits(bits, p10, p01, generator)
    return Distribution.from_bit_matrix(bits, num_bits=circuit.num_qubits)


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

        The generator calls, their sizes and their order are the histogram
        contract (every pinned digest, golden row and benchmark reference
        depends on them): ``choice(shots)`` over the ideal support,
        ``random((shots, n))`` for the gate flips, ``random(shots)`` for the
        scramble test, ``integers(0, 2, (k, n), uint8)`` for the k scrambled
        shots (only when k > 0), and ``random((shots, n))`` for readout.

        The work happens on one C-contiguous matrix: the chosen ideal rows
        are gathered into it, the gate-flip mask is XORed straight into its
        bits, scrambled rows are overwritten, and the readout flips are
        applied by :func:`_apply_readout_errors_to_bits`.  Both ``(shots,
        n)`` uniform draws fill the same float64 buffer.
        """
        chosen = generator.choice(self.num_outcomes, size=shots, p=self.probability_vector)
        bits = self.source_bits.take(chosen, axis=0)
        uniforms = generator.random(bits.shape)
        as_bool = bits.view(np.bool_)
        as_bool ^= np.less(uniforms, self.flip_probabilities)
        if self.scramble_probability > 0:
            scrambled = generator.random(shots) < self.scramble_probability
            if scrambled.any():
                bits[scrambled] = generator.integers(
                    0, 2, size=(int(scrambled.sum()), self.num_qubits), dtype=np.uint8
                )
        return _apply_readout_errors_to_bits(bits, self.p10, self.p01, generator, uniforms)


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
    aggregated immediately — so peak memory is one job's shot matrix, not
    the group's, and every returned histogram is bit-identical to a lone
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
    picklable partial histogram that :func:`merge_counted_chunks` reduces
    deterministically.  The shots are counted the way
    :meth:`PackedOutcomes.aggregate_bit_matrix` counts them: on the packed
    uint64 key column up to 64 qubits, by unique packed rows beyond.
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

    This flat reduction is the reference the engine's streaming
    :class:`~repro.engine.reduction.ReductionTree` is bit-identical to; the
    engine itself now merges through the tree, and this helper remains for
    callers that already hold every segment.
    """
    if not segments:
        raise MergeError("cannot merge zero sampled chunks")
    words = np.vstack([segment_words for segment_words, _ in segments])
    counts = np.concatenate([segment_counts for _, segment_counts in segments])
    packed, totals = PackedOutcomes._aggregate_words(words, num_bits, weights=counts)
    return Distribution.from_packed(packed, weights=totals)


def sample_noisy_distribution(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int = 8192,
    rng: np.random.Generator | None = None,
    method: str = "bitflip",
    **kwargs,
) -> Distribution:
    """Sample a noisy measurement histogram for ``circuit``.

    Parameters
    ----------
    method:
        ``"bitflip"`` (default, fast analytic model) or ``"trajectory"``
        (Monte-Carlo Pauli trajectories).
    """
    if method == "bitflip":
        return sample_bitflip_distribution(circuit, noise_model, shots, rng=rng, **kwargs)
    if method == "trajectory":
        return sample_trajectory_distribution(circuit, noise_model, shots, rng=rng, **kwargs)
    raise NoiseModelError(f"unknown sampling method {method!r}; use 'bitflip' or 'trajectory'")


class NoisySampler:
    """Convenience object bundling a noise model, shot count and RNG seed.

    Experiments construct one sampler per simulated device and reuse it for
    every circuit, which keeps the RNG stream reproducible::

        sampler = NoisySampler(noise_model=device.noise_model(), shots=8192, seed=7)
        noisy = sampler.run(circuit)
    """

    def __init__(
        self,
        noise_model: NoiseModel,
        shots: int = 8192,
        seed: int | None = None,
        method: str = "bitflip",
    ) -> None:
        if shots <= 0:
            raise CircuitError(f"shots must be positive, got {shots}")
        self.noise_model = noise_model
        self.shots = shots
        self.method = method
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: QuantumCircuit, ideal: Distribution | None = None) -> Distribution:
        """Sample a noisy histogram for one circuit."""
        kwargs = {}
        if self.method == "bitflip" and ideal is not None:
            kwargs["ideal"] = ideal
        return sample_noisy_distribution(
            circuit,
            self.noise_model,
            shots=self.shots,
            rng=self._rng,
            method=self.method,
            **kwargs,
        )

    def run_ideal(self, circuit: QuantumCircuit) -> Distribution:
        """Return the noise-free distribution of the circuit (no shot noise)."""
        return simulate_statevector(circuit).measurement_distribution()
