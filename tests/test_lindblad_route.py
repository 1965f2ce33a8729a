"""The Lindblad kernel against the batched RK4 route it replaced for constant
rates (tests/oracles.py), its Taylor cells against the exact propagator's
samples, the per-step stepper, the cells of
tau beta <= 1/2 and the cells capped at a chunk that they replaced, their
generator calls against the chunk size and the batch size, which set
neither, its fused generator against the matrix form it replaced, its Liouvillian
matrices against the matrix-form generators, its speeds against the
generator at every sample, the audit's batched block against per-trial
evolutions, and the final state, the kernel's last sample on floor(T beta) + 1
steps, against the exponential of the Kronecker Liouvillian, the last sample
of the trajectory and the full-stack kernel."""

import io
import math
import re
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oqsl import audit, bounds, cli, dynamics
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    TimeGrid,
    _fused_form,
    dephasing_generator,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    lindblad_apply,
    lindblad_final_state,
    liouvillian,
)
from oqsl.linalg import DensityState, NumericError, op_norm, sigma_z
from oqsl.sysdl import parse_system

import oracles
from oracles import builtin_text, lindblad_adjoint

HBAR = 1.7
GRID = TimeGrid(0.6, 300)


def _random_case(dim, seed=0, n_jumps=2):
    """A random generator with n_jumps jumps, each at a random constant rate,
    a random observable and a random pure state."""
    rng = np.random.default_rng([seed, dim])
    H = oracles.random_hermitian(rng, dim)
    jumps = []
    for _ in range(n_jumps):
        L = oracles.random_matrix(rng, dim)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0))))
    gen = LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps), hbar=HBAR)
    O = oracles.random_hermitian(rng, dim)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    return gen, O / op_norm(O), rho


def _rk4_reference(gen, y0, grid, heisenberg):
    Ls = np.array([[L for L, _ in gen.jumps]])
    gammas = np.array([[g for _, g in gen.jumps]])
    return oracles.rk4_lindblad_route(gen.H[None], Ls, gammas, y0[None], grid.times(), gen.hbar, heisenberg)[0]


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_exact_route_matches_rk4_reference(dim, take_exact):
    # every grid forced onto the exact route; d = 8 and 16, above its limit, with the limit raised to them
    take_exact(dim)
    gen, O, rho = _random_case(dim)
    traj = evolve_lindblad_heisenberg(O, gen, rho, GRID, probes=tuple(oracles.matrix_units(dim)))
    assert np.abs(oracles.samples_from_probes(traj) - _rk4_reference(gen, O, GRID, True)).max() <= 1e-9
    states = evolve_lindblad_schrodinger(rho, gen, GRID)
    rho_t = np.array([s.matrix for s in states])
    assert np.abs(rho_t - _rk4_reference(gen, rho.matrix, GRID, False)).max() <= 1e-9


@pytest.mark.parametrize("dim", [3, 17])
def test_generator_speeds_match_matrix_form(dim, take_exact):
    # d = 3, forced onto the exact route, takes the speeds from the
    # Liouvillian, so its reference is the matrix-form adjoint; d = 17 takes
    # the Taylor stepper on the fused form, so its reference is the Kronecker
    # Liouvillian
    if dim <= EXACT_MAX_DIM:
        take_exact(dim)
    gen, O, rho = _random_case(dim, seed=1)
    grid = TimeGrid(0.5, 20)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
    Os = oracles.samples_from_probes(traj)
    if dim <= EXACT_MAX_DIM:
        rhs = np.array([lindblad_adjoint(gen, Ot) for Ot in Os])
    else:
        rhs = (Os.reshape(grid.steps + 1, dim * dim) @ oracles.kron_liouvillian(gen, True).T).reshape(-1, dim, dim)
    assert np.abs(traj.gen_speed_hs - np.linalg.norm(rhs, axis=(1, 2))).max() <= 1e-12
    for k in (0, 7, grid.steps):
        assert traj.gen_speed_op[k] == pytest.approx(oracles.jacobi_singular_values(rhs[k])[0], abs=1e-12)


def _check_cells(gen, O, grid):
    """The stepper's samples of O(t) within 1e-12 of the exact propagator's,
    and its speeds within 1e-13 of the norms of L^dag at its samples,
    relative to the largest of each."""
    chunks = list(dynamics.lindblad_chunks([gen], O[None], grid, heisenberg=True))
    Os, derivs = (np.concatenate([chunk[i][0] for chunk in chunks]) for i in (1, 2))
    speeds = oracles._norms(derivs)  # the norms that the reducer takes of L^dag[O(t)]
    exact = oracles.einsum_exact_samples([gen], O[None], grid, heisenberg=True)[0]
    assert np.abs(Os - exact).max() <= 1e-12 * np.abs(exact).max()
    rhs = oracles.lindblad_matrix_form([gen] * len(Os), Os)
    ref = np.stack([np.linalg.norm(rhs, axis=(1, 2)), np.linalg.svd(rhs, compute_uv=False)[:, 0]], axis=-1)
    assert np.abs(speeds - ref).max() <= 1e-13 * ref.max()


def test_stepper_route_above_crossover_matches_exact_samples():
    for dim in (EXACT_MAX_DIM + 1, 16, 17):
        gen, O, rho = _random_case(dim, seed=2)
        grid = TimeGrid(0.5, 40)
        traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
        exact = oracles.einsum_exact_samples([gen], O[None], grid, heisenberg=True)[0]
        assert np.abs(oracles.samples_from_probes(traj) - exact).max() <= 1e-12
        _check_cells(gen, O, TimeGrid(1.0, 1000))


def _dense_case(dim, hbar, seed):
    """A random generator with two jumps at random constant rates, its
    Hamiltonian of norm 1, the observable a (x) 1 on a factor 4 of dim, and
    a random pure state."""
    rng = np.random.default_rng(seed)
    H = oracles.random_hermitian(rng, dim)
    A = np.kron(oracles.random_hermitian(rng, 4), np.eye(dim // 4))
    jumps = []
    for _ in range(2):
        L = oracles.random_matrix(rng, dim)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0))))
    gen = LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps), hbar=hbar)
    return gen, A, DensityState.pure(oracles.random_ket(rng, dim))


@pytest.mark.parametrize("hbar", [1.0, 0.1, 0.01, 0.005])
def test_stepper_is_within_its_target_where_rk4_was_not(hbar):
    # on this d = 20 system RK4 was off in <A(t)> by 1.2e-9, 2.1e-4 and 7.2e-3
    # at hbar = 0.1, 0.01 and 0.005: the stepper is within 1e-9 through
    # evolve and through the bounds' <A(T)>, and its samples and speeds within
    # 1e-12 and 1e-13 relative
    gen, A, rho = _dense_case(20, hbar, seed=3)
    grid = TimeGrid(1.0, 1000)
    _check_cells(gen, A, grid)
    Os = oracles.einsum_exact_samples([gen], A[None], grid, heisenberg=True)[0]
    exact = np.einsum("tab,ba->t", Os, rho.matrix).real
    assert np.abs(evolve_lindblad_heisenberg(A, gen, rho, grid).expect - exact).max() <= 1e-9
    ctx = bounds.EvalContext(gen, grid, A, rho, evolve_lindblad_heisenberg, ids=("GENERATOR_HS",))
    (report,) = bounds.evaluate_all(ctx)
    assert abs(report.details["expectT"] - exact[-1]) <= 1e-9


def _count_calls(monkeypatch) -> list:
    """The shapes of the batches that the fused generator is applied to,
    one entry a call, from here on."""
    fused, calls = dynamics._fused_form, []

    def counted(gens, heisenberg):
        f = fused(gens, heisenberg)

        def g(y):
            calls.append(y.shape)
            return f(y)

        g.terms = f.terms
        return g

    monkeypatch.setattr(dynamics, "_fused_form", counted)
    return calls


def _bench_system():
    """The benchmark's d = 32 Lindblad system (bench/workloads.py, seed 7)
    and its .sys text."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))
    system = workloads["dense_system"](np.random.default_rng(7), "lindblad", 32, (4, 8))
    return system, workloads["sys_text"](system)


def _bench_case():
    system, _ = _bench_system()
    gen = LindbladGenerator(H=system["H"], jumps=tuple(system["jumps"]))
    return gen, system["A"], DensityState.pure(system["ket"])


@pytest.mark.parametrize("ids", ["ALL", "DELCAMPO"])
def test_beta_is_taken_once_a_run(monkeypatch, tmp_path, ids):
    # beta's 2 + J operator norms, one stack of (A, A', L_1, ..., L_J), are
    # taken once a generator and read by the trajectory's stepper, rho(T)'s
    # grid and rho(T)'s stepper, where each took its own: 3 stacks for
    # --bounds ALL and 2 for DELCAMPO
    _, text = _bench_system()
    path = tmp_path / "lindblad_32.sys"
    path.write_text(text, encoding="utf-8")
    stacks, norm = [], dynamics.op_norm

    def counted(M):
        stacks.append(np.shape(M))
        return norm(M)

    monkeypatch.setattr(dynamics, "op_norm", counted)
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--system", str(path), "--observable", "A", "--tmax", "1", "--bounds", ids]
    assert cli.main(argv, out, err) == 0, err.getvalue()
    assert stacks == [(4, 32, 32)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dim=st.integers(2, 8),
    n_jumps=st.integers(0, 3),
    batch=st.integers(1, 3),
    log_hbar=st.floats(math.log(1e-6), math.log(1e6)),
    heisenberg=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_beta_is_one_number_for_both_pictures_and_a_batch_takes_the_largest(
        monkeypatch, dim, n_jumps, batch, log_hbar, heisenberg, seed):
    # gen.beta, from the Heisenberg terms, is the beta of the Schrodinger
    # terms bit for bit, whose A and A' swap; the stepper's h beta is h times
    # the batch's largest beta, and a refusal names that generator's hbar
    rng = np.random.default_rng(seed)
    gens = [
        LindbladGenerator(
            H=oracles.random_hermitian(rng, dim),
            jumps=tuple((oracles.random_matrix(rng, dim), float(rng.uniform(0.0, 2.0))) for _ in range(n_jumps)),
            hbar=math.exp(log_hbar) * float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(batch)
    ]
    for gen in gens:
        A, Ad, _ = _fused_form([gen], heisenberg=False).terms
        norms = op_norm(np.stack([A[0], Ad[0], *(L for L, _ in gen.jumps)]))
        assert norms[0] + norms[1] + np.array([rate for _, rate in gen.jumps]) @ norms[2:] ** 2 == gen.beta
    seen = []

    def refuse(hb, cap):
        seen.append(hb)

    monkeypatch.setattr(dynamics, "EXACT_MAX_DIM", 1)
    monkeypatch.setattr(dynamics, "_taylor_order", refuse)
    grid = TimeGrid(1.0, 10)
    largest = max(gens, key=lambda gen: gen.beta)
    with pytest.raises(NumericError, match=f"at hbar = {re.escape(repr(largest.hbar))}$"):
        next(dynamics.lindblad_chunks(gens, np.zeros((batch, dim, dim)), grid, heisenberg))
    assert seen == [grid.h * largest.beta]


def test_cells_make_a_tenth_of_the_per_step_calls(monkeypatch):
    # the benchmark's d = 32 Lindblad system at 1000 steps: the per-step
    # stepper took (s, m) = (1, 4), four calls of the generator a step and one
    # for the last sample's speeds, 4,001 in all; the cells tile the grid,
    # (m, c) = (18, 474), each one series of m + 1 calls, and the last
    # sample's speeds take one more: 3 * 19 + 1 = 58 (76 at tau beta <= 1/2)
    gen, A, rho = _bench_case()
    grid = TimeGrid(1.0, 1000)
    hb = grid.h * gen.beta
    m, c = dynamics._taylor_order(hb, grid.steps)
    assert (m, c) == (18, 474)
    calls = _count_calls(monkeypatch)
    traj = evolve_lindblad_heisenberg(A, gen, rho, grid)
    assert set(calls) == {(1, 32, 32)} and len(calls) == math.ceil(grid.steps / c) * (m + 1) + 1 == 58
    monkeypatch.setattr(dynamics, "_fused_form", _fused_form)
    Os = oracles.per_step_stepper([gen], A[None], grid, heisenberg=True)[0][0]
    assert np.abs(traj.expect - np.einsum("tab,ba->t", Os, rho.matrix).real).max() <= 1e-13


def test_a_batch_makes_the_calls_of_one_trajectory(monkeypatch):
    # the cells tile the grid, not a chunk, so the batch size, which sets how
    # many samples a chunk holds (64 alone, 21 in a batch of 3), does not set
    # how many calls a trajectory makes: 58 either way, where cells capped at
    # a chunk made 177 alone and 433 in a batch of 3
    gen, A, rho = _bench_case()
    grid = TimeGrid(1.0, 1000)
    calls = _count_calls(monkeypatch)
    alone = evolve_lindblad_heisenberg(A, gen, rho, grid)
    assert len(calls) == 58
    calls.clear()
    batch = dynamics.trajectories([gen] * 3, np.stack([A] * 3), [rho] * 3, grid, [()] * 3)
    assert set(calls) == {(3, 32, 32)} and len(calls) == 58
    for traj in batch:
        for series in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
            ref = getattr(alone, series)
            assert np.abs(getattr(traj, series) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [EXACT_MAX_DIM + 1, 17])
def test_chunk_size_sets_neither_calls_nor_samples(dim, monkeypatch):
    # with chunks of 4 samples the cells are read in pieces of at most 4 rows
    # but keep their length, so the generator calls are those of the default
    # chunks and the samples agree within 1e-14
    gen, O, rho = _random_case(dim, seed=9)
    grid = TimeGrid(1.0, 1000)
    units = tuple(oracles.matrix_units(dim))
    calls = _count_calls(monkeypatch)
    runs = []
    for chunk_bytes in (dynamics.CHUNK_BYTES, 4 * 16 * dim * dim):
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", chunk_bytes)
        calls.clear()
        traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=units)
        runs.append((len(calls), oracles.samples_from_probes(traj), traj.gen_speed_hs))
    (calls_default, Os, speeds), (calls_small, Os_small, speeds_small) = runs
    assert calls_small == calls_default
    assert np.abs(Os_small - Os).max() <= 1e-14 * np.abs(Os).max()
    assert np.abs(speeds_small - speeds).max() <= 1e-14 * speeds.max()


def test_a_zero_generator_is_one_cell_of_the_whole_grid(monkeypatch):
    # h beta = 0 above the exact route: one cell of all the steps with m = 0,
    # whatever the chunks, one call for its speeds' term and one for the last
    # sample's speeds; O(t) = O, and the speeds are 0
    dim = EXACT_MAX_DIM + 2
    gen = LindbladGenerator(H=np.zeros((dim, dim)))
    O, rho = oracles.random_hermitian(np.random.default_rng(6), dim), DensityState.pure(np.ones(dim))
    grid = TimeGrid(1.0, 50)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 4 * 16 * dim * dim)
    calls = _count_calls(monkeypatch)
    probe = oracles.random_matrix(np.random.default_rng(7), dim)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=(probe,))
    assert len(calls) == 2
    assert (traj.expect == traj.expect[0]).all()
    series = traj.trace_with(probe)
    assert (series == series[0]).all()
    assert (traj.gen_speed_hs == 0).all() and (traj.gen_speed_op == 0).all()


@pytest.mark.parametrize("dim", [EXACT_MAX_DIM + 1, 17, 32])
def test_grid_cells_match_the_chunk_capped_cells_they_replaced(dim, monkeypatch):
    # with chunks of 16 samples the replaced route capped each cell at 16
    # steps; the cells of the whole grid agree with it within 1e-13
    gen, O, rho = _random_case(dim, seed=10)
    grid = TimeGrid(1.0, 300)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 16 * 16 * dim * dim)
    chunks = list(dynamics.lindblad_chunks([gen], O[None], grid, heisenberg=True))
    Os, derivs = (np.concatenate([chunk[i][0] for chunk in chunks]) for i in (1, 2))
    speeds = oracles._norms(derivs)
    ref_speeds = np.empty((1, grid.steps + 1, 2))
    ref = oracles.taylor_cells([gen], O[None], grid, True, ref_speeds, route="capped")[0]
    assert np.abs(Os - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(speeds - ref_speeds[0]).max() <= 1e-13 * ref_speeds.max()


@pytest.mark.parametrize("heisenberg", [True, False])
@pytest.mark.parametrize("dim, batch", [(2, 3), (3, 1), (EXACT_MAX_DIM + 1, 1), (17, 2), (32, 1)])
def test_derivative_terms_match_the_division_form_they_replaced(dim, batch, heisenberg, take_stepper):
    # the cells hold F_n = L U_n and read the speeds from them, where the
    # replaced form held U_(n+1) and divided by tau; with chunks of the
    # default size the cells of 300 steps cross them, and the two forms agree
    # within 1e-13 relative, samples and speeds alike (the cells forced at
    # d <= EXACT_MAX_DIM, where cells this short take the exact route)
    take_stepper()
    cases = [_random_case(dim, seed=12 + b) for b in range(batch)]
    gens, y0 = [c[0] for c in cases], np.stack([c[1] if heisenberg else c[2].matrix for c in cases])
    grid = TimeGrid(1.0, 300)
    chunks = list(dynamics.lindblad_chunks(gens, y0, grid, heisenberg))
    ys = np.concatenate([chunk[1] for chunk in chunks], axis=1)
    ref_speeds = np.empty((batch, grid.steps + 1, 2)) if heisenberg else None
    ref = oracles.taylor_cells(gens, y0, grid, heisenberg, ref_speeds, division=True)
    assert np.abs(ys - ref).max() <= 1e-13 * np.abs(ref).max()
    if heisenberg:
        speeds = oracles._norms(np.concatenate([chunk[2] for chunk in chunks], axis=1))
        assert np.abs(speeds - ref_speeds).max() <= 1e-13 * ref_speeds.max()


def test_one_series_a_cell_refuses_exactly_the_steps_the_half_theta_rule_did():
    # tau beta <= 1/2 under 32 calls a step took s = 1 or 2 series a step:
    # s = 3 series of tau beta > 1/3 need m >= 13 each, past the budget; so
    # it took exactly h beta <= 1, the steps that one series of tau beta <= 1
    # takes
    assert dynamics._taylor_order(1.0, 1000) == (18, 1)
    assert dynamics._taylor_order(np.nextafter(1.0, 2.0), 1000) is None
    sweep = np.concatenate([np.linspace(0.0, 20.0, 8001), np.geomspace(1e-300, 1e300, 601),
                            np.nextafter(1.0, [0.0, 2.0]), [16.0, math.inf, math.nan]])
    for hb in sweep:
        assert (dynamics._taylor_order(hb, 1000) is None) == (oracles.half_theta_order(hb, 32, 1000) is None), hb


@pytest.mark.parametrize("hb", [0.002, 0.2, 0.8])
@pytest.mark.parametrize("dim", [EXACT_MAX_DIM + 1, 17, 32])
def test_cells_match_the_half_theta_cells_they_replaced(dim, hb):
    # the replaced rule read these steps from cells of c = 250, 2 and 1 at
    # tau beta <= 1/2, the last two series a step; one series of tau beta <= 1
    # a cell agrees with it within 1e-13
    gen, O, _ = _random_case(dim, seed=11)
    beta = gen.beta
    grid = TimeGrid(300 * hb / beta, 300)
    chunks = list(dynamics.lindblad_chunks([gen], O[None], grid, heisenberg=True))
    Os, derivs = (np.concatenate([chunk[i][0] for chunk in chunks]) for i in (1, 2))
    speeds = oracles._norms(derivs)
    ref_speeds = np.empty((1, grid.steps + 1, 2))
    ref = oracles.taylor_cells([gen], O[None], grid, True, ref_speeds, route="half")[0]
    assert np.abs(Os - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(speeds - ref_speeds[0]).max() <= 1e-13 * ref_speeds.max()


def test_a_step_near_hbeta_1_is_one_series(monkeypatch):
    # the d = 20 system at hbar = 0.0025 has h beta = 0.8: one series of
    # m = 17 calls a step, 17,001 calls in all with the last sample's speeds,
    # where two series of m = 13 a step made 26,001
    gen, A, rho = _dense_case(20, 0.0025, seed=3)
    grid = TimeGrid(1.0, 1000)
    hb = grid.h * gen.beta
    assert dynamics._taylor_order(hb, grid.steps) == (17, 1)
    calls = _count_calls(monkeypatch)
    traj = evolve_lindblad_heisenberg(A, gen, rho, grid)
    assert len(calls) == 17_001
    Os = oracles.einsum_exact_samples([gen], A[None], grid, heisenberg=True)[0]
    exact = np.einsum("tab,ba->t", Os, rho.matrix).real
    assert np.abs(traj.expect - exact).max() <= 1e-13 * np.abs(exact).max()


@pytest.mark.parametrize("heisenberg", [True, False])
@pytest.mark.parametrize(
    "case",
    [
        # (dim, n_jumps), each a batch of three generators at random constant rates
        (4, 2),
        (5, 3),
        (3, 0),
    ],
    ids=["constant-batch", "varying-table", "no-jumps"],
)
def test_fused_form_matches_matrix_form_reference(case, heisenberg):
    dim, n_jumps = case
    gens = [_random_case(dim, seed=s, n_jumps=n_jumps)[0] for s in range(3)]
    rng = np.random.default_rng(dim)
    y = np.stack([oracles.random_matrix(rng, dim) for _ in gens])  # not Hermitian
    f = _fused_form(gens, heisenberg)
    assert np.abs(f(y) - oracles.lindblad_matrix_form(gens, y, heisenberg)).max() <= 1e-13


def test_stepper_speeds_are_the_generator_at_every_sample(take_stepper):
    # the stepper's speeds come from the derivative of each cell's series
    dim = EXACT_MAX_DIM + 1
    gen, O, rho = _random_case(dim, seed=4)
    grid = TimeGrid(1.0, 25)
    take_stepper()
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
    n = grid.steps + 1
    rhs = oracles.lindblad_matrix_form([gen] * n, oracles.samples_from_probes(traj))
    assert np.abs(traj.gen_speed_hs - np.linalg.norm(rhs, axis=(1, 2))).max() <= 1e-13
    assert np.abs(traj.gen_speed_op - np.linalg.svd(rhs, compute_uv=False)[:, 0]).max() <= 1e-13
    assert traj.gen_speed_op[-1] == pytest.approx(oracles.jacobi_singular_values(rhs[-1])[0], abs=1e-12)


def test_liouvillians_match_matrix_forms_and_are_adjoint():
    gen, _, _ = _random_case(3, seed=3)
    rng = np.random.default_rng(3)
    X = oracles.random_matrix(rng, 3)
    heis = liouvillian(gen, heisenberg=True)
    schr = liouvillian(gen, heisenberg=False)
    assert np.abs((heis @ X.reshape(-1)).reshape(3, 3) - lindblad_adjoint(gen, X)).max() <= 1e-13
    assert np.abs((schr @ X.reshape(-1)).reshape(3, 3) - lindblad_apply(gen, X)).max() <= 1e-13
    ref = oracles.lindblad_matrix_form([gen], X[None], heisenberg=False)[0]
    assert np.abs((schr @ X.reshape(-1)).reshape(3, 3) - ref).max() <= 1e-13
    for M, heisenberg in ((heis, True), (schr, False)):
        assert np.abs(M - oracles.kron_liouvillian(gen, heisenberg)).max() <= 1e-13
    # tr(A^dag L[B]) = tr(L^dag[A]^dag B): the Heisenberg matrix is the
    # conjugate transpose of the Schrodinger one
    assert np.abs(heis - schr.conj().T).max() <= 1e-13


def test_audit_block_matches_per_trial_evolution(block_declares_units):
    grid = TimeGrid(audit.LINDBLAD_T, 200)
    for dim in (2, 3):
        trials = [audit._sample_trial(5, dim, i) for i in range(4)]
        audit._integrate_lindblad_block(trials, grid)
        for t in trials:
            gen = LindbladGenerator(H=t.H, jumps=t.jumps)
            probes = t.lindblad.probes
            traj = evolve_lindblad_heisenberg(t.O, gen, t.rho, grid, probes=(*probes, *oracles.matrix_units(dim)))
            states = evolve_lindblad_schrodinger(t.rho, gen, grid)
            ours = t.lindblad.traj
            Os = oracles.propagate_lindblad([gen], t.O[None], grid, heisenberg=True)[0][0]
            ours_Os, traj_Os = oracles.samples_from_probes(ours), oracles.samples_from_probes(traj)
            for k in (0, -1):
                assert np.abs(ours_Os[k] - Os[k]).max() <= 1e-12
                assert np.abs(ours_Os[k] - traj_Os[k]).max() <= 1e-12
            assert np.abs(ours.expect - np.einsum("tab,ba->t", Os, t.rho.matrix).real).max() <= 1e-12
            for series in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
                assert np.abs(getattr(ours, series) - getattr(traj, series)).max() <= 1e-12
            for probe in probes:
                assert np.abs(ours.trace_with(probe) - traj.trace_with(probe)).max() <= 1e-12
            expect = np.einsum("ab,tba->t", t.O, np.array([s.matrix for s in states])).real
            assert np.abs(t.lind_rho_expect - expect).max() <= 1e-12


def test_audit_block_keeps_no_state_stack():
    # of the Schrodinger samples only tr(O rho(t)) is kept, and of the
    # observable samples only the trajectory's series
    grid = TimeGrid(audit.LINDBLAD_T, 50)
    for dim in (2, 3):
        trials = [audit._sample_trial(5, dim, i) for i in range(3)]
        audit._integrate_lindblad_block(trials, grid)
        for t in trials:
            held = [*vars(t).values(), *vars(t.lindblad.traj).values()]
            assert not [v for v in held if isinstance(v, np.ndarray) and v.shape == (grid.steps + 1, dim, dim)]
            assert t.lind_rho_expect.shape == (grid.steps + 1,)


# ---------------------------------------------------------------------------
# the final state rho(T): the kernel's last sample on the fewest steps of one series each


def _expm_reference(gen, rho, T):
    L = oracles.kron_liouvillian(gen, heisenberg=False)
    d = gen.dim
    return (oracles.scipy_expm(T * L) @ rho.matrix.reshape(-1)).reshape(d, d)


def _T_beta(gen, T):
    return T * gen.beta


def _kernel_grids(monkeypatch) -> list:
    """The step counts of the grids that lindblad_chunks is called on, one
    entry a call, from here on."""
    grids, chunks = [], dynamics.lindblad_chunks

    def counted(gens, y0, grid, heisenberg):
        grids.append(grid.steps)
        return chunks(gens, y0, grid, heisenberg)

    monkeypatch.setattr(dynamics, "lindblad_chunks", counted)
    return grids


@pytest.mark.parametrize("n_jumps", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 8, 16, 17])
def test_final_state_matches_expm_of_liouvillian(dim, n_jumps):
    # T beta is at most 4.3 here, so rho(T) is the kernel's last sample on at
    # most 5 steps: the exact propagator for d <= 4, one series a step above
    gen, _, rho = _random_case(dim, seed=5, n_jumps=n_jumps)
    grid = TimeGrid(2.5, 200)
    ref = _expm_reference(gen, rho, grid.T)
    rho_T = lindblad_final_state(rho, gen, grid)
    assert np.abs(rho_T.matrix - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [2, 3, 16, 17])
def test_final_state_matches_last_trajectory_sample(dim):
    # rho(T) on the fewest steps against the last of the grid's 1000 samples:
    # for d <= EXACT_MAX_DIM the exact propagator's against the cells' (of
    # 633 and 643 steps), above it the stepper's on both
    gen, _, rho = _random_case(dim, seed=6)
    grid = TimeGrid(1.0, 1000)
    rho_T = lindblad_final_state(rho, gen, grid)
    last = evolve_lindblad_schrodinger(rho, gen, grid)[-1]
    assert np.abs(rho_T.matrix - last.matrix).max() <= 1e-12
    assert rho_T.purity == pytest.approx(last.purity, abs=1e-12)


PLUS = DensityState.pure([1.0, 1.0])


@pytest.mark.parametrize(
    "gen, rho, grid",
    [
        # stiff: T beta is past the 10 steps, so rho(T) is the exact
        # propagator's last sample on the grid itself
        (LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 1e9),)), PLUS, TimeGrid(1.0, 10)),
        # d = EXACT_MAX_DIM + 1 on 10 steps: T beta = 1.6, so rho(T) is the
        # Taylor stepper's last sample on 2 steps
        (*_random_case(EXACT_MAX_DIM + 1, seed=7)[::2], TimeGrid(1.0, 10)),  # (gen, rho)
        # T ||L|| overflows, so the grid is the 10 steps themselves
        (dephasing_generator(1.0), PLUS, TimeGrid(1e308, 10)),
    ],
    ids=["stiff", "ramp", "huge-T"],
)
def test_final_state_falls_back_to_the_kernel(gen, rho, grid):
    rho_T = lindblad_final_state(rho, gen, grid).matrix
    if gen.dim > EXACT_MAX_DIM:
        ref = _expm_reference(gen, rho, grid.T)
        assert np.abs(rho_T - ref).max() <= 1e-13 * np.abs(ref).max()
    else:
        kernel = oracles.propagate_lindblad([gen], rho.matrix[None], grid, heisenberg=False)[0][0, -1]
        assert np.array_equal(rho_T, kernel)


@pytest.mark.parametrize("T, steps", [(1.0, 3), (300.0, 697)])
def test_a_long_horizon_final_state_takes_the_kernel(T, steps, monkeypatch):
    # on qutrit_decay.sys T beta is 2.3 at T = 1 and 696.7 at T = 300: rho(T)
    # is the exact route's last sample on 3 and 697 steps, never on the
    # 1000 steps of the grid
    spec = parse_system(builtin_text("qutrit_decay"))
    gen, rho, grid = spec.generator, spec.initial_state, TimeGrid(T, 1000)
    grids = _kernel_grids(monkeypatch)
    rho_T = lindblad_final_state(rho, gen, grid).matrix
    assert grids == [steps] == [math.floor(_T_beta(gen, T)) + 1]
    ref = _expm_reference(gen, rho, T)
    assert np.abs(rho_T - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [EXACT_MAX_DIM + 1, 17])
def test_final_state_above_the_exact_route_is_one_kernel_run_on_the_fewest_steps(dim, monkeypatch):
    # T beta = 3.3 and 3.5: one lindblad_chunks call on 4 steps, none on the
    # grid's 1000 (qutrit_decay.sys on the exact route: the test above)
    gen, _, rho = _random_case(dim, seed=5)
    grids = _kernel_grids(monkeypatch)
    lindblad_final_state(rho, gen, TimeGrid(2.5, 1000))
    assert grids == [4] == [math.floor(_T_beta(gen, 2.5)) + 1]


@pytest.mark.parametrize("dim", range(2, EXACT_MAX_DIM + 1))
def test_final_state_at_the_exact_route_takes_no_series(dim, monkeypatch):
    # rho(T)'s steps have h beta just under 1, so its cells would span one
    # step each, fewer than CELL_MIN_STEPS: within the exact route's limit the
    # exact propagator takes them, and no series
    def fail(*args, **kwargs):
        raise AssertionError("the Taylor stepper was taken")

    monkeypatch.setattr(dynamics, "_taylor_chunks", fail)
    gen, _, rho = _random_case(dim, seed=5)
    ref = _expm_reference(gen, rho, 2.5)
    rho_T = lindblad_final_state(rho, gen, TimeGrid(2.5, 1000)).matrix
    assert np.abs(rho_T - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_a_whole_T_beta_is_never_refused_by_rounding(side, monkeypatch):
    # on this d = 17 system T beta = 13 gives h beta = 1 + 2^-52 on
    # ceil(T beta) = 13 steps of T / 13, which the stepper refuses; the
    # least integer above T beta, 14 steps, is not refused, nor are 13 and
    # 14 steps at the horizons one ulp either side, where T beta is a few
    # ulps either side of 13
    gen, _, rho = _random_case(17, seed=4)
    T = 13.0 / _T_beta(gen, 1.0)
    for _ in range(64):  # to the horizon at which T beta is exactly 13
        if _T_beta(gen, T) == 13.0:
            break
        T = math.nextafter(T, math.inf if _T_beta(gen, T) < 13.0 else 0.0)
    assert _T_beta(gen, T) == 13.0 and _T_beta(gen, TimeGrid(T, 13).h) > 1.0  # the refusal that a plain ceil meets
    if side:
        T = math.nextafter(T, side * math.inf)
        assert 0 < side * (_T_beta(gen, T) - 13.0) <= 1e-14
    grids = _kernel_grids(monkeypatch)
    rho_T = lindblad_final_state(rho, gen, TimeGrid(T, 1000)).matrix
    assert grids == [13 if side < 0 else 14]
    ref = _expm_reference(gen, rho, T)
    assert np.abs(rho_T - ref).max() <= 1e-13 * np.abs(ref).max()


def test_the_fewest_steps_pass_the_kernels_own_step_check(monkeypatch):
    # at horizons up to 4 ulps either side of every whole T beta from 2 to
    # 100, the kernel's own h beta on the grid lindblad_final_state picks,
    # (T / n) beta rounded twice, never exceeds THETA
    gen, _, rho = _random_case(17, seed=4)
    beta, accepted = _T_beta(gen, 1.0), []

    def step_check(gens, y0, grid, heisenberg):
        hb = grid.h * max(g.beta for g in gens)
        accepted.append(dynamics._taylor_order(hb, grid.steps) is not None)
        yield 0, y0[:, None], None

    monkeypatch.setattr(dynamics, "lindblad_chunks", step_check)
    for k in range(2, 101):
        T = k / beta
        for _ in range(4):
            T = math.nextafter(T, 0.0)
        for _ in range(9):
            lindblad_final_state(rho, gen, TimeGrid(T, 1000))
            T = math.nextafter(T, math.inf)
    assert len(accepted) == 99 * 9 and all(accepted)


def test_final_state_over_the_budget_above_the_exact_route_is_refused():
    # T beta is past the 10 steps, so the grid is those steps, which the stepper's guard refuses
    gen = LindbladGenerator(H=np.zeros((17, 17)), jumps=((np.diag(np.arange(17.0)) / 16, 1e9),))
    rho = DensityState.pure(np.ones(17))
    with pytest.raises(NumericError, match=r"^the Taylor stepper needs h beta <= 1, and the step h = 0\.1 has h beta"):
        lindblad_final_state(rho, gen, TimeGrid(1.0, 10))


def test_final_state_memory_does_not_grow_with_steps():
    gen, _, rho = _random_case(2, seed=8)
    grid = TimeGrid(1.0, 10**6)  # a trajectory would hold 64 MB
    tracemalloc.start()
    try:
        lindblad_final_state(rho, gen, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
