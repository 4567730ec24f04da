"""Default ideal backends, and what a fig8-shaped sweep no longer builds.

A job that names no backend resolves to ``"auto"``: the stabilizer tableau
for Clifford circuits such as BV, the dense statevector otherwise.
"""

from __future__ import annotations

from repro.circuits.bv import bernstein_vazirani
from repro.circuits.qaoa import default_qaoa_parameters, qaoa_circuit
from repro.core import bitstring
from repro.engine import CircuitJob, ExecutionEngine
from repro.experiments import BvStudyConfig, run_bv_study
from repro.maxcut.graphs import regular_graph_problem
from repro.obs import Observation
from repro.quantum.device import ibm_paris


def _job(circuit, **fields):
    device = ibm_paris()
    return CircuitJob(
        job_id="job",
        circuit=circuit,
        shots=256,
        noise_model=device.noise_model,
        coupling_map=device.coupling_map,
        basis_gates=device.basis_gates,
        **fields,
    )


class TestDefaults:
    def test_bitflip_bv_job_runs_on_the_stabilizer(self):
        job = _job(bernstein_vazirani("10110"))
        assert job.backend == "auto"
        with Observation() as observation:
            result = ExecutionEngine().run_single(job, seed=3)
        counters = observation.registry.snapshot()["counters"]
        assert result.backend == "stabilizer"
        assert counters["ideal.backend.stabilizer"] == counters["engine.ideals_computed"] == 1
        assert "ideal.backend.statevector" not in counters
        assert "engine.resolve_backend" in observation.recorder.span_names()

    def test_non_clifford_bitflip_job_falls_back_to_the_statevector(self):
        problem = regular_graph_problem(4, 3, seed=1)
        circuit = qaoa_circuit(problem, default_qaoa_parameters(1))
        result = ExecutionEngine().run_single(_job(circuit), seed=3)
        assert result.backend == "statevector"

    def test_explicit_backend_is_kept(self):
        job = _job(bernstein_vazirani("1011"), backend="statevector")
        assert job.backend == "statevector"
        assert ExecutionEngine().run_single(job, seed=3).backend == "statevector"

    def test_both_backends_give_the_same_histograms(self):
        circuit = bernstein_vazirani("110101")
        jobs = [_job(circuit), _job(circuit, backend="statevector")]
        tableau, dense = (ExecutionEngine().run_single(job, seed=5) for job in jobs)
        assert (tableau.backend, dense.backend) == ("stabilizer", "statevector")
        assert list(tableau.noisy.counts().items()) == list(dense.noisy.counts().items())
        assert list(tableau.ideal.probabilities().items()) == list(dense.ideal.probabilities().items())


FIG8_SHAPED = BvStudyConfig(qubit_range=(5, 6), keys_per_size=1, shots=2048, seed=8)


def test_fig8_sweep_renders_no_bitstrings(monkeypatch):
    """Sampling, un-routing, HAMMER, PST and IST all stay on the packed words."""
    rendered = []
    render = bitstring._strings_from_bit_matrix

    def counting(bits):
        rendered.append(bits.shape[0])
        return render(bits)

    monkeypatch.setattr(bitstring, "_strings_from_bit_matrix", counting)
    run_bv_study(FIG8_SHAPED)
    assert rendered == []


class _ResultKeepingEngine(ExecutionEngine):
    def run(self, jobs, seed=0):
        self.results = super().run(jobs, seed=seed)
        return self.results


def test_fig8_sweep_runs_every_job_on_the_tableau():
    engine = _ResultKeepingEngine()
    report = run_bv_study(FIG8_SHAPED, engine=engine)
    assert [result.backend for result in engine.results] == ["stabilizer"] * 6
    assert report.meta["engine"]["counters"]["engine.jobs"] == 6
