"""The streamed Lindblad and Kraus kernels: their reductions against those
of the full-stack kernels they replaced (tests/oracles.py) across chunk
boundaries, the production paths that must never build a (steps + 1, d, d)
sample stack, the memory that evolving an observable holds, and the errors
that an undeclared probe and an interior sample raise."""

import io
import tracemalloc

import numpy as np
import pytest

from oqsl import audit, cli, dynamics
from oqsl.bounds import commutator_probe, correlation_probe
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    DephasingKraus,
    LindbladGenerator,
    RateTable,
    TabulatedKraus,
    TimeGrid,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    kraus_trajectories,
    lindblad_chunks,
    lindblad_trajectories,
)
from oqsl.linalg import DEFAULT_TOL, DensityState, NumericError, ValidationError, mat_exp, op_norm

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
    norms, calls = dynamics._norms, []
    monkeypatch.setattr(dynamics, "_norms", lambda X: calls.append(X.shape[1]) or norms(X))
    trajs = lindblad_trajectories(gens, O0s, rhos, grid, probes)
    # both routes take the speeds once per chunk
    assert calls == np.diff(starts + [steps + 1]).tolist()
    if batch == 1:
        trajs.append(evolve_lindblad_heisenberg(O0s[0], gens[0], rhos[0], grid, probes=probes[0]))
    for b, traj in enumerate(trajs):
        b %= batch
        rho = rhos[b].matrix
        assert np.array_equal(traj.expect, oracles.stack_expect(Os[b], rho))
        assert np.array_equal(traj.stddev, oracles.stack_stddev(Os[b], rho, 1e-9))
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


@pytest.mark.parametrize("dim, batch", [(2, 100), (3, 50), (EXACT_MAX_DIM, 1)])
@pytest.mark.parametrize("heisenberg", [True, False])
def test_exact_step_matches_einsum_step(dim, batch, heisenberg):
    # the BLAS product against the einsum mat-vec that it replaced, on
    # batches shaped like the audit's qubit and qutrit blocks and at d = 16
    cases = [_case(dim, seed) for seed in range(batch)]
    gens = [c[0] for c in cases]
    assert all(dynamics._takes_exact_route(gen) for gen in gens)
    y0s = np.stack([c[1] if heisenberg else c[3].matrix for c in cases])
    grid = TimeGrid(0.0, 2.0, 300)
    samples = np.concatenate([s for _, s, _ in lindblad_chunks(gens, y0s, grid, heisenberg)], axis=1)
    ref = oracles.einsum_exact_samples(gens, y0s, grid, heisenberg)
    scale = np.abs(ref).max(axis=(-2, -1))
    assert (np.abs(samples - ref).max(axis=(-2, -1)) <= 1e-12 * scale).all()


def _kraus_family(name, grid, seed=5):
    """The closed-form dephasing family, or a qutrit family
    K_i(t) = exp(-i t H) K_i(0) tabulated on the grid, whose K(0) is not
    the identity."""
    if name == "dephasing":
        return DephasingKraus(1.3)
    rng = np.random.default_rng(seed)
    H = oracles.random_hermitian(rng, 3)
    Q, _ = np.linalg.qr(oracles.random_matrix(rng, 6))
    K0 = Q[:, :3].reshape(2, 3, 3)  # sum_i K_i^dag K_i = 1 from orthonormal columns
    return TabulatedKraus(grid.times(), [oracles.expm_hermitian_oracle(H, -1j * t) @ K0 for t in grid.times()])


@pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("name", ["dephasing", "tabulated"])
def test_streamed_kraus_equals_whole_grid_kernel(name, steps, monkeypatch):
    grid = TimeGrid(0.0, 0.6, steps)
    family = _kraus_family(name, grid)
    rng = np.random.default_rng([steps, family.dim])
    O = oracles.random_hermitian(rng, family.dim)
    W = oracles.random_matrix(rng, family.dim)
    rho = DensityState.from_matrix(W @ W.conj().T / np.trace(W @ W.conj().T).real)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", CHUNK * 16 * family.dim**2 * (4 * family.n_ops + 1))
    starts = [start for start, _, _ in dynamics._kraus_chunks([family], O[None], grid, DEFAULT_TOL)]
    assert starts == {CHUNK - 1: [0], CHUNK: [0], CHUNK + 1: [0, CHUNK], 2 * CHUNK + 1: [0, CHUNK, 2 * CHUNK]}[steps]

    ours, ref = evolve_kraus_heisenberg(O, family, rho, grid), oracles.kraus_full_stack(O, family, rho, grid)
    for series in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
        assert np.array_equal(getattr(ours, series), getattr(ref, series))
    for k in (0, -1):
        assert np.array_equal(ours.at(k), ref.at(k))
    if name == "tabulated":
        assert np.abs(ours.at(0) - O).max() > 0.1  # O(t0) is evolved


@pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("name", ["dephasing", "tabulated"])
def test_batched_kraus_equals_per_family_kernel(name, steps, monkeypatch):
    grid = TimeGrid(0.0, 0.6, steps)
    if name == "dephasing":
        families = [DephasingKraus(gamma) for gamma in (0.4, 1.3, 2.2)]
    else:
        families = [_kraus_family(name, grid, seed) for seed in (5, 6, 7)]
    d, n_ops = families[0].dim, families[0].n_ops
    rng = np.random.default_rng([steps, d])
    O0s = np.stack([oracles.random_hermitian(rng, d) for _ in families])
    rhos = [DensityState.pure(oracles.random_ket(rng, d)) for _ in families]
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", CHUNK * 16 * len(families) * d * d * (4 * n_ops + 1))
    chunks = list(dynamics._kraus_chunks(families, O0s, grid, DEFAULT_TOL))
    starts = {CHUNK - 1: [0], CHUNK: [0], CHUNK + 1: [0, CHUNK], 2 * CHUNK + 1: [0, CHUNK, 2 * CHUNK]}[steps]
    assert [c[0] for c in chunks] == starts
    samples, speeds = (np.concatenate([c[i] for c in chunks], axis=1) for i in (1, 2))
    trajs = kraus_trajectories(families, O0s, rhos, grid, [()] * len(families))
    for family, O, rho, Os, Ss, traj in zip(families, O0s, rhos, samples, speeds, trajs):
        # the reference cuts its chunks elsewhere: by its operators alone
        ref = list(oracles.kraus_chunks_per_family(family, O, grid))
        assert np.array_equal(Os, np.concatenate([c[1][0] for c in ref]))
        assert np.array_equal(Ss, np.concatenate([c[2][0] for c in ref]))
        whole = oracles.kraus_full_stack(O, family, rho, grid)
        for series in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
            assert np.array_equal(getattr(traj, series), getattr(whole, series))


def test_kraus_working_set_stays_within_two_chunks():
    # the chunks are sized by the kernel's whole working set: the window of
    # K, K^dag O, dK/dt, K^dag O dK/dt and O(t), not K alone
    steps = 20_000
    gen = DephasingKraus(0.8)
    O, rho = oracles.random_hermitian(np.random.default_rng(2), 2), DensityState.pure([1.0, 1.0])
    tracemalloc.start()
    try:
        evolve_kraus_heisenberg(O, gen, rho, TimeGrid(0.0, 1.0, steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scalar series: <O(t)>, the variance, the two speeds and the times
    scalars = 5 * 8 * (steps + 1)
    assert peak <= 2 * dynamics.CHUNK_BYTES + scalars, f"peak traced memory {peak / 1e6:.2f} MB"


def test_kraus_memory_grows_only_by_the_scalar_series():
    # per sample, the reducer keeps <O(t)>, the variance and two speeds
    # (32 bytes) and the grid its time (8); with its K, K^dag O, dK/dt and
    # O(t) stacks, the whole-grid kernel grew by 728 bytes a sample
    gen = DephasingKraus(0.8)
    O, rho = oracles.random_hermitian(np.random.default_rng(1), 2), DensityState.pure([1.0, 1.0])

    def peak(steps):
        tracemalloc.start()
        try:
            evolve_kraus_heisenberg(O, gen, rho, TimeGrid(0.0, 1.0, steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)
    assert (peak(80_000) - peak(20_000)) / 60_000 < 48


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
        assert np.array_equal(t.lindblad.traj.expect, oracles.stack_expect(O_samples, t.rho.matrix))
        assert np.array_equal(t.lind_rho_expect, np.einsum("ab,tba->t", t.O, rho_samples).real)
        assert np.array_equal(t.lindblad.traj.at(-1), O_samples[-1])


@pytest.mark.parametrize(
    "dim,rate",
    [(2, None), (3, None), (2, RAMP), (EXACT_MAX_DIM + 1, None)],
    ids=["exact-closed-form", "exact-eigvalsh", "rk4-closed-form", "rk4-eigvalsh"],
)
def test_speeds_match_the_gram_norms_they_replaced(dim, rate, monkeypatch):
    # the speeds read L^dag[O(t)] as Hermitian; the full-stack kernel with
    # the Gram-per-trial norms it used is the reference
    cases = [_case(dim, seed, rate) for seed in range(3)]
    gens, O0s = [c[0] for c in cases], np.stack([c[1] for c in cases])
    grid = TimeGrid(0.0, 0.5, 40)
    trajs = lindblad_trajectories(gens, O0s, [c[3] for c in cases], grid, [()] * 3)
    monkeypatch.setattr(oracles, "_norms", oracles.gram_norms)
    _, ref = oracles.propagate_lindblad(gens, O0s, grid, heisenberg=True)
    for traj, speeds in zip(trajs, ref):
        assert np.array_equal(traj.gen_speed_hs, speeds[:, 0])
        assert (np.abs(traj.gen_speed_op - speeds[:, 1]) <= 1e-14 * speeds[:, 1]).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("heisenberg", [True, False])
def test_exact_route_blow_up_raises_without_warnings(heisenberg, monkeypatch):
    # a propagator ten times too large overflows to inf, then NaN, inside
    # the one chunk, which is checked before its speeds are taken
    gen, O, _, rho = _case(3, seed=11)
    monkeypatch.setattr(dynamics, "mat_exp", lambda A: 10.0 * mat_exp(A))
    grid = TimeGrid(0.0, 1.0, 400)
    with pytest.raises(NumericError, match="unstable"):
        if heisenberg:
            evolve_lindblad_heisenberg(O, gen, rho, grid)
        else:
            evolve_lindblad_schrodinger(rho, gen, grid)


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
    # every bound reads the one streamed evolution: its declared probes and
    # ends, with no second run of the kernel
    runs = []

    def counted(*args, **kwargs):
        runs.append(kwargs.get("heisenberg", args[-1]))
        return kernel(*args, **kwargs)

    kernel = dynamics.lindblad_chunks
    monkeypatch.setattr(dynamics, "lindblad_chunks", counted)
    path = tmp_path / "pure.sys"
    path.write_text(PURE_LINDBLAD)
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--system", str(path), "--observable", "A", "--observable-b", "B", "--tmax", "1", "--bounds", "ALL"]
    assert cli.main(argv, out=out, err=err) == 0, err.getvalue()
    ids = [line.split(",")[0] for line in out.getvalue().splitlines()[1:]]
    assert ids == ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP", "CORR_OPEN", "COMM_OPEN"]
    assert runs == [True]
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


def test_undeclared_probes_and_interior_samples_raise():
    gen, O, B, rho = _case(3, seed=10)
    grid = TimeGrid(0.0, 0.7, 60)
    declared = correlation_probe(O, rho)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=(declared,))
    ref, _ = oracles.propagate_lindblad([gen], O[None], grid, heisenberg=True)
    series = traj.trace_with(declared)
    assert np.array_equal(series, np.einsum("tab,ba->t", ref[0], declared))
    with pytest.raises(ValidationError, match="declared as a probe"):
        traj.trace_with(commutator_probe(B, rho))
    for k in (0, -1):
        assert np.array_equal(traj.at(k), ref[0, k])
    for k in (1, 17, -2):
        with pytest.raises(ValidationError, match="only at the two ends"):
            traj.at(k)
    with pytest.raises(IndexError):
        traj.at(grid.steps + 1)
    # a shorter prefix keeps O(0) and the probe series, but not O(t_17)
    sub = traj.prefix(17)
    assert np.array_equal(sub.trace_with(declared), series[:18])
    assert np.array_equal(sub.at(0), ref[0, 0])
    with pytest.raises(ValidationError, match="only at the two ends"):
        sub.at(-1)
    assert np.array_equal(traj.prefix(grid.steps).at(-1), ref[0, -1])
