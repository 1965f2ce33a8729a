"""The streamed Lindblad kernel: its reductions against those of the
full-stack kernel it replaced (tests/oracles.py) across chunk boundaries,
the production paths that must never build a (steps + 1, d, d) sample
stack, the memory that evolving an observable holds, and the on-demand
samples behind undeclared probes and interior samples."""

import io
import tracemalloc

import numpy as np
import pytest

from oqsl import audit, cli, dynamics
from oqsl.bounds import commutator_probe, correlation_probe
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    RateTable,
    TimeGrid,
    _batch_expect,
    _batch_stddev,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    lindblad_chunks,
    lindblad_trajectories,
)
from oqsl.linalg import DensityState, op_norm

import oracles

CHUNK = 4  # samples per chunk in the boundary tests
RAMP = RateTable([0.0, 0.2, 0.5], [0.1, 0.9, 0.4])


def _case(dim, seed, rate=None):
    """A random generator with two jumps (at random constant rates, or at
    ``rate``), observable, second observable and pure state."""
    rng = np.random.default_rng([seed, dim])
    H = oracles.random_hermitian(rng, dim)
    jumps = []
    for _ in range(2):
        L = oracles.random_matrix(rng, dim)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0)) if rate is None else rate))
    gen = LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps), hbar=1.3)
    O, B = (oracles.random_hermitian(rng, dim) for _ in range(2))
    return gen, O / op_norm(O), B, DensityState.pure(oracles.random_ket(rng, dim))


ROUTES = {
    # (dimension, rate of every jump or None for random constants)
    "exact": (3, None),
    "rk4": (EXACT_MAX_DIM + 1, None),
    "ramp": (3, RAMP),
}


@pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_streamed_reductions_equal_full_stack_reductions(route, batch, steps, monkeypatch):
    dim, rate = ROUTES[route]
    cases = [_case(dim, seed, rate) for seed in range(batch)]
    gens = [c[0] for c in cases]
    O0s = np.stack([c[1] for c in cases])
    rhos = [c[3] for c in cases]
    probes = [(correlation_probe(O, rho), commutator_probe(B, rho)) for _, O, B, rho in cases]
    grid = TimeGrid(0.0, 0.1, steps)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", CHUNK * 16 * batch * dim * dim)
    starts = [start for start, _, _ in lindblad_chunks(gens, O0s, grid, heisenberg=True)]
    # steps + 1 samples; a one-sample remainder joins the chunk before it
    assert starts == {CHUNK - 1: [0], CHUNK: [0], CHUNK + 1: [0, CHUNK], 2 * CHUNK + 1: [0, CHUNK, 2 * CHUNK]}[steps]

    Os, speeds = oracles.propagate_lindblad(gens, O0s, grid, heisenberg=True)
    trajs = lindblad_trajectories(gens, O0s, rhos, grid, probes)
    if batch == 1:
        trajs.append(evolve_lindblad_heisenberg(O0s[0], gens[0], rhos[0], grid, probes=probes[0]))
    for b, traj in enumerate(trajs):
        b %= batch
        rho = rhos[b].matrix
        assert np.array_equal(traj.expect, _batch_expect(Os[b], rho))
        assert np.array_equal(traj.stddev, _batch_stddev(Os[b], rho, 1e-9))
        assert np.array_equal(traj.gen_speed_hs, speeds[b, :, 0])
        assert np.array_equal(traj.gen_speed_op, speeds[b, :, 1])
        assert np.array_equal(traj.at(0), Os[b, 0]) and np.array_equal(traj.at(-1), Os[b, -1])
        for M in probes[b]:
            assert np.array_equal(traj.trace_with(M), np.einsum("tab,ba->t", Os[b], M))

    rho0s = np.stack([rho.matrix for rho in rhos])
    states, _ = oracles.propagate_lindblad(gens, rho0s, grid, heisenberg=False)
    chunks = [samples for _, samples, _ in lindblad_chunks(gens, rho0s, grid, heisenberg=False)]
    assert np.array_equal(np.concatenate(chunks, axis=1), states)
    if batch == 1:
        joined = np.array([s.matrix for s in evolve_lindblad_schrodinger(rhos[0], gens[0], grid)])
        assert np.array_equal(joined, states[0])


@pytest.mark.parametrize("steps", [CHUNK, 2 * CHUNK + 1])
def test_audit_block_equals_full_stack_reductions(steps, monkeypatch):
    trials = [audit._sample_trial(3, 2, i) for i in range(3)]
    grid = TimeGrid(0.0, audit.LINDBLAD_T, steps)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", CHUNK * 16 * len(trials) * 4)
    audit._integrate_lindblad_block(trials, grid)
    gens = [LindbladGenerator(H=t.H, jumps=t.jumps) for t in trials]
    Os, _ = oracles.propagate_lindblad(gens, np.stack([t.O for t in trials]), grid, heisenberg=True)
    states, _ = oracles.propagate_lindblad(gens, np.stack([t.rho.matrix for t in trials]), grid, heisenberg=False)
    for t, O_samples, rho_samples in zip(trials, Os, states):
        assert np.array_equal(t.lind_traj.expect, _batch_expect(O_samples, t.rho.matrix))
        assert np.array_equal(t.lind_rho_expect, np.einsum("ab,tba->t", t.O, rho_samples).real)
        assert np.array_equal(t.lind_traj.at(-1), O_samples[-1])


PURE_LINDBLAD = """\
[system]
dim = 4
kind = lindblad

[hamiltonian]
pauli = 0.5 XX + 0.5 YY + 0.25 ZI

[state]
ket = [0.6, 0.0, 0.8, 0.0]

[jump]
pauli = 1.0 IZ
rate = 0.3

[jump]
pauli = 0.5 XI + 0.5 YX
rate = 0.2

[observable A]
pauli = 1.0 IX

[observable B]
pauli = 1.0 ZI
"""


def test_production_paths_build_no_sample_stack(tmp_path, monkeypatch):
    def fail(self):
        raise AssertionError("a Lindblad sample stack was built")

    monkeypatch.setattr(dynamics.LindbladTrajectory, "_build_samples", fail)
    path = tmp_path / "pure.sys"
    path.write_text(PURE_LINDBLAD)
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--system", str(path), "--observable", "A", "--observable-b", "B", "--tmax", "1", "--bounds", "ALL"]
    assert cli.main(argv, out=out, err=err) == 0, err.getvalue()
    ids = [line.split(",")[0] for line in out.getvalue().splitlines()[1:]]
    assert ids == ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP", "CORR_OPEN", "COMM_OPEN"]
    assert cli.main(["scenario", "dephasing"], out=io.StringIO(), err=err) == 0, err.getvalue()
    assert audit.run_audit(4, 2).passed


def test_observable_evolution_holds_no_sample_stack():
    # d = 32 takes the RK4 route; the stack of 1001 samples alone is 16.4 MB
    gen, O, _, rho = _case(32, seed=9)
    grid = TimeGrid(0.0, 1.0, 1000)
    tracemalloc.start()
    try:
        evolve_lindblad_heisenberg(O, gen, rho, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_on_demand_samples_serve_undeclared_probes_and_interior_samples():
    gen, O, B, rho = _case(3, seed=10)
    grid = TimeGrid(0.0, 0.7, 60)
    declared = correlation_probe(O, rho)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=(declared,))
    series = traj.trace_with(declared)
    assert traj._samples is None
    M = commutator_probe(B, rho)  # not declared
    assert np.array_equal(traj.trace_with(M), np.einsum("tab,ba->t", traj.O_samples, M))
    assert np.array_equal(series, np.einsum("tab,ba->t", traj.O_samples, declared))
    ref, _ = oracles.propagate_lindblad([gen], O[None], grid, heisenberg=True)
    assert np.array_equal(traj.O_samples, ref[0])
    for k in (0, 1, 17, -2, -1):
        assert np.array_equal(traj.at(k), ref[0, k])
    sub = traj.prefix(17)
    assert np.array_equal(sub.trace_with(declared), series[:18])
    assert np.array_equal(sub.at(-1), ref[0, 17]) and np.array_equal(sub.O_samples, ref[0, :18])
    with pytest.raises(IndexError):
        traj.at(grid.steps + 1)
