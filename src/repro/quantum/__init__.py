"""Quantum-circuit simulation substrate (stand-in for the paper's hardware).

This subpackage provides everything needed to go from an abstract circuit to
a noisy measurement histogram: a gate library, the :class:`QuantumCircuit`
IR, a dense statevector simulator, configurable noise models, the bit-flip
sampler, a small transpiler (basis decomposition + SWAP routing) and
simulated device profiles for the machines the paper evaluates on.
"""

from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.coupling import (
    CouplingMap,
    full_coupling,
    grid_coupling,
    heavy_hex_like_coupling,
    linear_coupling,
    ring_coupling,
    sycamore_like_coupling,
)
from repro.quantum.device import (
    DeviceProfile,
    available_devices,
    get_device,
    google_sycamore,
    ibm_manhattan,
    ibm_paris,
    ibm_toronto,
)
from repro.quantum.entanglement import (
    entanglement_entropy,
    reduced_density_matrix,
    von_neumann_entropy,
)
from repro.quantum.gates import GATE_REGISTRY, GateDefinition, gate_definition, gate_matrix
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError
from repro.quantum.sampler import (
    NoisySampler,
    merge_counted_chunks,
    sample_bitflip_batch,
    sample_bitflip_chunk,
    sample_bitflip_distribution,
)
from repro.quantum.statevector import Statevector, ideal_distribution, simulate_statevector
from repro.quantum.transpiler import TranspiledCircuit, decompose_to_basis, route_circuit, transpile

__all__ = [
    "Instruction",
    "QuantumCircuit",
    "CouplingMap",
    "full_coupling",
    "grid_coupling",
    "heavy_hex_like_coupling",
    "linear_coupling",
    "ring_coupling",
    "sycamore_like_coupling",
    "DeviceProfile",
    "available_devices",
    "get_device",
    "google_sycamore",
    "ibm_manhattan",
    "ibm_paris",
    "ibm_toronto",
    "entanglement_entropy",
    "reduced_density_matrix",
    "von_neumann_entropy",
    "GATE_REGISTRY",
    "GateDefinition",
    "gate_definition",
    "gate_matrix",
    "NoiseModel",
    "PauliNoise",
    "ReadoutError",
    "NoisySampler",
    "merge_counted_chunks",
    "sample_bitflip_batch",
    "sample_bitflip_chunk",
    "sample_bitflip_distribution",
    "Statevector",
    "ideal_distribution",
    "simulate_statevector",
    "TranspiledCircuit",
    "decompose_to_basis",
    "route_circuit",
    "transpile",
]
