"""The Lindblad kernel against the batched RK4 route it replaced for constant
rates (tests/oracles.py), its fused generator against the matrix form it
replaced, its Liouvillian matrices against the matrix-form generators, its
first-stage speeds against the generator at every sample, and the audit's
batched block against per-trial evolutions."""

import numpy as np
import pytest

from oqsl import audit
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    RateTable,
    TimeGrid,
    _fused_form,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    lindblad_apply,
    liouvillian,
)
from oqsl.linalg import DensityState, op_norm

import oracles
from oracles import lindblad_adjoint

HBAR = 1.7
GRID = TimeGrid(0.0, 0.6, 300)


def _random_case(dim, seed=0, n_jumps=2, rate=None):
    """A random generator with n_jumps jumps, each at a random constant rate
    or at ``rate``, a random observable and a random pure state."""
    rng = np.random.default_rng([seed, dim])
    H = oracles.random_hermitian(rng, dim)
    jumps = []
    for _ in range(n_jumps):
        L = oracles.random_matrix(rng, dim)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0)) if rate is None else rate))
    gen = LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps), hbar=HBAR)
    O = oracles.random_hermitian(rng, dim)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    return gen, O / op_norm(O), rho


def _rk4_reference(gen, y0, grid, heisenberg):
    Ls = np.array([[L for L, _ in gen.jumps]])
    gammas = np.array([[g for _, g in gen.jumps]])
    return oracles.rk4_lindblad_route(gen.H[None], Ls, gammas, y0[None], grid.times(), gen.hbar, heisenberg)[0]


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_exact_route_matches_rk4_reference(dim):
    assert dim <= EXACT_MAX_DIM
    gen, O, rho = _random_case(dim)
    traj = evolve_lindblad_heisenberg(O, gen, rho, GRID)
    assert np.abs(traj.O_samples - _rk4_reference(gen, O, GRID, True)).max() <= 1e-9
    states = evolve_lindblad_schrodinger(rho, gen, GRID)
    rho_t = np.array([s.matrix for s in states])
    assert np.abs(rho_t - _rk4_reference(gen, rho.matrix, GRID, False)).max() <= 1e-9


@pytest.mark.parametrize("dim", [3, EXACT_MAX_DIM + 1])
def test_generator_speeds_match_matrix_form(dim):
    # d = 3 takes the exact route, which takes the speeds from the Liouvillian,
    # so its reference is the matrix-form adjoint; d = EXACT_MAX_DIM + 1 takes
    # RK4 on the fused form, so its reference is the Kronecker Liouvillian
    gen, O, rho = _random_case(dim, seed=1)
    grid = TimeGrid(0.0, 0.5, 20)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    if dim <= EXACT_MAX_DIM:
        rhs = np.array([lindblad_adjoint(gen, Ot) for Ot in traj.O_samples])
    else:
        Os = traj.O_samples.reshape(grid.steps + 1, dim * dim)
        rhs = (Os @ oracles.kron_liouvillian(gen, True).T).reshape(-1, dim, dim)
    assert np.abs(traj.gen_speed_hs - np.linalg.norm(rhs, axis=(1, 2))).max() <= 1e-12
    for k in (0, 7, grid.steps):
        assert traj.gen_speed_op[k] == pytest.approx(oracles.jacobi_singular_values(rhs[k])[0], abs=1e-12)


def test_rk4_route_above_crossover_matches_reference():
    gen, O, rho = _random_case(EXACT_MAX_DIM + 1, seed=2)
    grid = TimeGrid(0.0, 0.5, 40)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    assert np.abs(traj.O_samples - _rk4_reference(gen, O, grid, True)).max() <= 1e-12


RAMP = RateTable([0.0, 0.3, 1.0], [0.1, 0.9, 0.4])


@pytest.mark.parametrize("heisenberg", [True, False])
@pytest.mark.parametrize(
    "case",
    [
        # (dim, n_jumps, rate of every jump or None for random constants, times)
        (4, 2, None, [0.0, 0.7]),
        (5, 3, RAMP, [0.0, 0.15, 0.3, 0.65, 1.0]),
        (3, 0, None, [0.0, 0.2]),
    ],
    ids=["constant-batch", "varying-table", "no-jumps"],
)
def test_fused_form_matches_matrix_form_reference(case, heisenberg):
    dim, n_jumps, rate, times = case
    gens = [_random_case(dim, seed=s, n_jumps=n_jumps, rate=rate)[0] for s in range(3)]
    rng = np.random.default_rng(dim)
    y = np.stack([oracles.random_matrix(rng, dim) for _ in gens])  # not Hermitian
    f = _fused_form(gens, heisenberg)
    for t in times:
        ref = oracles.lindblad_matrix_form(gens, y, t, heisenberg)
        assert np.abs(f(t, y) - ref).max() <= 1e-13


def test_rk4_speeds_are_the_generator_at_every_sample():
    # a ramp rate keeps the RK4 route, whose speeds come from the first stage
    dim = EXACT_MAX_DIM + 1
    gen, O, rho = _random_case(dim, seed=4, rate=RAMP)
    grid = TimeGrid(0.0, 1.0, 25)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    n = grid.steps + 1
    rhs = oracles.lindblad_matrix_form([gen] * n, traj.O_samples, grid.times())
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
    ref = oracles.lindblad_matrix_form([gen], X[None], 0.0, heisenberg=False)[0]
    assert np.abs((schr @ X.reshape(-1)).reshape(3, 3) - ref).max() <= 1e-13
    for M, heisenberg in ((heis, True), (schr, False)):
        assert np.abs(M - oracles.kron_liouvillian(gen, heisenberg)).max() <= 1e-13
    # tr(A^dag L[B]) = tr(L^dag[A]^dag B): the Heisenberg matrix is the
    # conjugate transpose of the Schrodinger one
    assert np.abs(heis - schr.conj().T).max() <= 1e-13


def test_audit_block_matches_per_trial_evolution():
    grid = TimeGrid(0.0, audit.LINDBLAD_T, 200)
    for dim in (2, 3):
        trials = [audit._sample_trial(5, dim, i) for i in range(4)]
        audit._integrate_lindblad_block(trials, grid)
        for t in trials:
            gen = LindbladGenerator(H=t.H, jumps=t.jumps)
            traj = evolve_lindblad_heisenberg(t.O, gen, t.rho, grid)
            states = evolve_lindblad_schrodinger(t.rho, gen, grid)
            assert np.abs(t.lind_O - traj.O_samples).max() <= 1e-12
            expect = np.einsum("ab,tba->t", t.O, np.array([s.matrix for s in states])).real
            assert np.abs(t.lind_rho_expect - expect).max() <= 1e-12


def test_audit_block_keeps_no_state_stack():
    # of the Schrodinger samples only tr(O rho(t)) is kept; the observable
    # samples are the one (steps + 1, d, d) stack a trial holds
    grid = TimeGrid(0.0, audit.LINDBLAD_T, 50)
    for dim in (2, 3):
        trials = [audit._sample_trial(5, dim, i) for i in range(3)]
        audit._integrate_lindblad_block(trials, grid)
        for t in trials:
            shape = (grid.steps + 1, dim, dim)
            stacks = [name for name, v in vars(t).items() if isinstance(v, np.ndarray) and v.shape == shape]
            assert stacks == ["lind_O"]
            assert t.lind_rho_expect.shape == (grid.steps + 1,)
