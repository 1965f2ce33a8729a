"""The Lindblad kernel against the batched RK4 route it replaced for constant
rates (tests/oracles.py), its fused generator against the matrix form it
replaced, its Liouvillian matrices against the matrix-form generators, its
first-stage speeds against the generator at every sample, the audit's
batched block against per-trial evolutions, and the final state from the
action of exp(T L) against the exponential of the Kronecker Liouvillian, the
last sample of the trajectory it replaced and the full-stack kernel."""

import tracemalloc

import numpy as np
import pytest

from oqsl import audit, bounds, dynamics
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    RateTable,
    TimeGrid,
    _fused_form,
    dephasing_generator,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    lindblad_apply,
    lindblad_final_state,
    liouvillian,
)
from oqsl.linalg import DensityState, ValidationError, op_norm, sigma_z

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
    traj = evolve_lindblad_heisenberg(O, gen, rho, GRID, probes=tuple(oracles.matrix_units(dim)))
    assert np.abs(oracles.samples_from_probes(traj) - _rk4_reference(gen, O, GRID, True)).max() <= 1e-9
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
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
    Os = oracles.samples_from_probes(traj)
    if dim <= EXACT_MAX_DIM:
        rhs = np.array([lindblad_adjoint(gen, Ot) for Ot in Os])
    else:
        rhs = (Os.reshape(grid.steps + 1, dim * dim) @ oracles.kron_liouvillian(gen, True).T).reshape(-1, dim, dim)
    assert np.abs(traj.gen_speed_hs - np.linalg.norm(rhs, axis=(1, 2))).max() <= 1e-12
    for k in (0, 7, grid.steps):
        assert traj.gen_speed_op[k] == pytest.approx(oracles.jacobi_singular_values(rhs[k])[0], abs=1e-12)


def test_rk4_route_above_crossover_matches_reference():
    dim = EXACT_MAX_DIM + 1
    gen, O, rho = _random_case(dim, seed=2)
    grid = TimeGrid(0.0, 0.5, 40)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
    assert np.abs(oracles.samples_from_probes(traj) - _rk4_reference(gen, O, grid, True)).max() <= 1e-12


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
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid, probes=tuple(oracles.matrix_units(dim)))
    n = grid.steps + 1
    rhs = oracles.lindblad_matrix_form([gen] * n, oracles.samples_from_probes(traj), grid.times())
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
            probes = t.lindblad.probes
            traj = evolve_lindblad_heisenberg(t.O, gen, t.rho, grid, probes=probes)
            states = evolve_lindblad_schrodinger(t.rho, gen, grid)
            ours = t.lindblad.traj
            Os = oracles.propagate_lindblad([gen], t.O[None], grid, heisenberg=True)[0][0]
            for k in (0, -1):
                assert np.abs(ours.at(k) - Os[k]).max() <= 1e-12
                assert np.abs(ours.at(k) - traj.at(k)).max() <= 1e-12
            assert np.abs(ours.expect - np.einsum("tab,ba->t", Os, t.rho.matrix).real).max() <= 1e-12
            for series in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
                assert np.abs(getattr(ours, series) - getattr(traj, series)).max() <= 1e-12
            for probe in probes:
                assert np.abs(ours.trace_with(probe) - traj.trace_with(probe)).max() <= 1e-12
            expect = np.einsum("ab,tba->t", t.O, np.array([s.matrix for s in states])).real
            assert np.abs(t.lind_rho_expect - expect).max() <= 1e-12


def test_audit_block_keeps_no_state_stack():
    # of the Schrodinger samples only tr(O rho(t)) is kept, and of the
    # observable samples only the trajectory's series and its two ends
    grid = TimeGrid(0.0, audit.LINDBLAD_T, 50)
    for dim in (2, 3):
        trials = [audit._sample_trial(5, dim, i) for i in range(3)]
        audit._integrate_lindblad_block(trials, grid)
        for t in trials:
            held = [*vars(t).values(), *vars(t.lindblad.traj).values()]
            assert not [v for v in held if isinstance(v, np.ndarray) and v.shape == (grid.steps + 1, dim, dim)]
            with pytest.raises(ValidationError, match="only at the two ends"):
                t.lindblad.traj.at(1)
            assert t.lind_rho_expect.shape == (grid.steps + 1,)


# ---------------------------------------------------------------------------
# the final state rho(T) from the Taylor action of exp(T L)


def _expm_reference(gen, rho, T):
    L = oracles.kron_liouvillian(gen, heisenberg=False)
    d = gen.dim
    return (oracles.scipy_expm(T * L) @ rho.matrix.reshape(-1)).reshape(d, d)


def _no_kernel(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("lindblad_chunks called")

    monkeypatch.setattr(dynamics, "lindblad_chunks", fail)


@pytest.mark.parametrize("n_jumps", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 8, 16, 17])
def test_final_state_matches_expm_of_liouvillian(dim, n_jumps, monkeypatch):
    gen, _, rho = _random_case(dim, seed=5, n_jumps=n_jumps)
    grid = TimeGrid(0.0, 2.5, 100)
    _no_kernel(monkeypatch)  # the action route, with no fallback
    ref = _expm_reference(gen, rho, grid.duration)
    rho_T = lindblad_final_state(rho, gen, grid)
    assert np.abs(rho_T.matrix - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [2, 3, 16, EXACT_MAX_DIM + 1])
def test_final_state_matches_last_trajectory_sample(dim):
    # d <= EXACT_MAX_DIM: the exact propagator's last sample; above it, RK4's
    gen, _, rho = _random_case(dim, seed=6)
    grid = TimeGrid(0.0, 1.0, 1000)
    rho_T = lindblad_final_state(rho, gen, grid)
    last = evolve_lindblad_schrodinger(rho, gen, grid)[-1]
    assert np.abs(rho_T.matrix - last.matrix).max() <= 1e-12
    assert rho_T.purity == pytest.approx(last.purity, abs=1e-12)


PLUS = DensityState.pure([1.0, 1.0])


@pytest.mark.parametrize(
    "gen, rho, grid",
    [
        # stiff: the series would need more generator calls than RK4 on 10 steps
        (LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 1e9),)), PLUS, TimeGrid(0.0, 1.0, 10)),
        # rates varying in time
        (*_random_case(5, seed=7, rate=RAMP)[::2], TimeGrid(0.0, 1.0, 25)),  # (gen, rho)
        # T ||L|| overflows
        (dephasing_generator(1.0), PLUS, TimeGrid(0.0, 1e308, 10)),
    ],
    ids=["stiff", "ramp", "huge-T"],
)
def test_final_state_falls_back_to_the_kernel(gen, rho, grid):
    kernel = oracles.propagate_lindblad([gen], rho.matrix[None], grid, heisenberg=False)[0][0, -1]
    assert np.array_equal(lindblad_final_state(rho, gen, grid).matrix, kernel)


def test_final_state_memory_does_not_grow_with_steps():
    gen, _, rho = _random_case(2, seed=8)
    grid = TimeGrid(0.0, 1.0, 10**6)  # a trajectory would hold 64 MB
    tracemalloc.start()
    try:
        lindblad_final_state(rho, gen, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
