"""The Lindblad kernel against the batched RK4 route it replaced for constant
rates (tests/oracles.py), its Liouvillian matrices against the matrix-form
generators, and the audit's batched block against per-trial evolutions."""

import numpy as np
import pytest

from oqsl import audit
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    TimeGrid,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    lindblad_adjoint,
    lindblad_apply,
    liouvillian,
)
from oqsl.linalg import DensityState, op_norm

import oracles

HBAR = 1.7
GRID = TimeGrid(0.0, 0.6, 300)


def _random_case(dim, seed=0):
    rng = np.random.default_rng([seed, dim])
    H = oracles.random_hermitian(rng, dim)
    jumps = []
    for _ in range(2):
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
    # RK4, which uses the matrix form, so its reference is the Liouvillian
    gen, O, rho = _random_case(dim, seed=1)
    grid = TimeGrid(0.0, 0.5, 20)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    if dim <= EXACT_MAX_DIM:
        rhs = np.array([lindblad_adjoint(gen, Ot) for Ot in traj.O_samples])
    else:
        Os = traj.O_samples.reshape(grid.steps + 1, dim * dim)
        rhs = (Os @ liouvillian(gen, heisenberg=True).T).reshape(-1, dim, dim)
    assert np.abs(traj.gen_speed_hs - np.linalg.norm(rhs, axis=(1, 2))).max() <= 1e-12
    for k in (0, 7, grid.steps):
        assert traj.gen_speed_op[k] == pytest.approx(oracles.jacobi_singular_values(rhs[k])[0], abs=1e-12)


def test_rk4_route_above_crossover_matches_reference():
    gen, O, rho = _random_case(EXACT_MAX_DIM + 1, seed=2)
    grid = TimeGrid(0.0, 0.5, 40)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    assert np.abs(traj.O_samples - _rk4_reference(gen, O, grid, True)).max() <= 1e-12


def test_liouvillians_match_matrix_forms_and_are_adjoint():
    gen, _, _ = _random_case(3, seed=3)
    rng = np.random.default_rng(3)
    X = oracles.random_matrix(rng, 3)
    heis = liouvillian(gen, heisenberg=True)
    schr = liouvillian(gen, heisenberg=False)
    assert np.abs((heis @ X.reshape(-1)).reshape(3, 3) - lindblad_adjoint(gen, X)).max() <= 1e-13
    assert np.abs((schr @ X.reshape(-1)).reshape(3, 3) - lindblad_apply(gen, X)).max() <= 1e-13
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
            assert np.abs(t.lind_rho - np.array([s.matrix for s in states])).max() <= 1e-12
