import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsl.bounds import EvalContext, evaluate_all
from oqsl.dynamics import (
    DephasingKraus,
    LindbladGenerator,
    RateTable,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    _hermitian_op_norms,
    _op_norms,
    dephasing_generator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    evolve_unitary_heisenberg,
    lindblad_apply,
)
from oqsl.linalg import (
    DensityState,
    NumericError,
    ValidationError,
    is_hermitian,
    sigma_x,
    sigma_y,
    sigma_z,
)

from oqsl.sysdl import parse_system

import oracles
from oracles import (
    FunctionKraus,
    builtin_text,
    commutator,
    identity,
    kraus_derivative,
    lindblad_adjoint,
    unitary_propagator,
)

PLUS = DensityState.pure([1.0, 1.0])


def _kraus_samples(family, O, times):
    """O(t) = sum_i K_i^dag(t) O K_i(t), one time at a time."""
    return np.array([sum(k.conj().T @ O @ k for k in family.operators(t)) for t in times])


def random_lindblad(rng, dim, n_jumps=2):
    jumps = tuple(
        (oracles.random_matrix(rng, dim, scale=0.5), float(rng.uniform(0, 1)))
        for _ in range(n_jumps)
    )
    return LindbladGenerator(H=oracles.random_hermitian(rng, dim, scale=0.7), jumps=jumps)


# ---------------------------------------------------------------------------
# grids and rates


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 1.0, 4)
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    # built once per grid, and read-only, since every caller shares it
    assert g.times() is g.times() and not g.times().flags.writeable


def test_rate_table_validation():
    with pytest.raises(ValidationError):
        RateTable(times=[0.0, 1.0], values=[0.5, -0.1])
    with pytest.raises(ValidationError):
        RateTable(times=[1.0, 0.0], values=[0.5, 0.5])
    table = RateTable(times=[0.0, 1.0], values=[0.0, 1.0])
    assert table.at(0.5) == pytest.approx(0.5)


def test_constant_rate_table_matches_constant_rate():
    table = RateTable(times=[0.0, 2.0], values=[0.5, 0.5])
    gen_c = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 0.5),))
    gen_t = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, table),))
    grid = TimeGrid(0.0, 1.0, 200)
    a = evolve_lindblad_heisenberg(sigma_x, gen_c, PLUS, grid)
    b = evolve_lindblad_heisenberg(sigma_x, gen_t, PLUS, grid)
    assert np.abs(a.expect - b.expect).max() <= 1e-12


def test_negative_constant_rate_rejected():
    with pytest.raises(ValidationError):
        LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, -0.5),))


@pytest.mark.parametrize(
    "rate, message",
    [(-0.5, "negative rate -0.5"), (np.nan, "non-finite rate nan"), (np.inf, "non-finite rate inf")],
)
def test_constant_rate_fault_is_named(rate, message):
    with pytest.raises(ValidationError, match=f"^{message} for jump operator 0$"):
        LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, rate),))


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_dephasing_generator_rejects_non_finite_strength(gamma):
    with pytest.raises(ValidationError, match=f"^non-finite rate {gamma!r} for dephasing$"):
        dephasing_generator(gamma)


def test_linear_rate_table_against_analytic_decay():
    # dephasing strength ramping as gamma(t) = t: x component decays as
    # exp(-integral_0^t s ds) = exp(-t^2 / 2)
    table = RateTable(times=[0.0, 2.0], values=[0.0, 1.0])
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, table),))
    grid = TimeGrid(0.0, 2.0, 2000)
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid)
    t = grid.times()
    assert np.abs(traj.expect - np.exp(-(t**2) / 2.0)).max() <= 1e-8


# ---------------------------------------------------------------------------
# unitary propagation


def test_propagator_diagonal_phase():
    U = unitary_propagator(sigma_z, np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.abs(U - expected).max() <= 1e-12


def test_propagator_at_zero():
    assert np.abs(unitary_propagator(sigma_x, 0.0) - identity(2)).max() <= 1e-15


def test_propagator_group_property(rng):
    for _ in range(5):
        H = oracles.random_hermitian(rng, 3)
        t1, t2 = rng.uniform(0.1, 1.5, size=2)
        U = unitary_propagator(H, t1) @ unitary_propagator(H, t2)
        assert np.abs(U - unitary_propagator(H, t1 + t2)).max() <= 1e-9


def test_propagator_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        unitary_propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_unitary_trajectory_pauli_rotation():
    grid = TimeGrid(0.0, np.pi / 2, 500)
    traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(traj.expect - np.cos(2.0 * grid.times())).max() <= 1e-9
    # stddev itself is only sqrt(eps)-accurate where the variance vanishes
    assert np.abs(traj.stddev**2 - np.sin(2.0 * grid.times()) ** 2).max() <= 1e-12


def test_unitary_trajectory_matches_propagator_route(rng):
    # same evolution through the Pade-exponential propagator
    H = oracles.random_hermitian(rng, 3)
    O = oracles.random_hermitian(rng, 3)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    grid = TimeGrid(0.0, 1.0, 10)
    traj = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, grid, probes=tuple(oracles.matrix_units(3)))
    Os = oracles.samples_from_probes(traj)
    for i, t in enumerate(grid.times()):
        U = unitary_propagator(H, float(t))
        assert np.abs(Os[i] - U.conj().T @ O @ U).max() <= 1e-11
    for k in (0, -1):
        assert np.abs(traj.at(k) - Os[k]).max() <= 1e-11


def test_conserved_observable_constant():
    grid = TimeGrid(0.0, 2.0, 100)
    traj = evolve_unitary_heisenberg(sigma_z, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(traj.expect - traj.expect[0]).max() == 0.0


def test_heisenberg_rate_matches_commutator(rng):
    H = oracles.random_hermitian(rng, 2)
    H = H / np.linalg.svd(H, compute_uv=False)[0]
    O = oracles.random_hermitian(rng, 2)
    O = O / np.linalg.svd(O, compute_uv=False)[0]
    rho = DensityState.pure(oracles.random_ket(rng, 2))
    grid = TimeGrid(0.0, 1.0, 2000)
    traj = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, grid, probes=(commutator(H, rho.matrix),))
    h = grid.h
    dexp = (traj.expect[2:] - traj.expect[:-2]) / (2 * h)
    # tr([O(t), H] rho) = tr(O(t) (H rho - rho H))
    rates = (traj.trace_with(commutator(H, rho.matrix))[1:-1] / 1j).real
    assert np.abs(dexp - rates).max() <= 1e-6


def test_unitary_spectrum_constant(rng):
    H = oracles.random_hermitian(rng, 4)
    O = oracles.random_hermitian(rng, 4)
    rho = DensityState.pure(oracles.random_ket(rng, 4))
    traj = evolve_unitary_heisenberg(
        O, UnitaryGenerator(H), rho, TimeGrid(0.0, 2.0, 50), probes=tuple(oracles.matrix_units(4))
    )
    Os = oracles.samples_from_probes(traj)
    ref = np.linalg.eigvalsh(Os[0])
    for Ot in Os[::10]:
        assert np.abs(np.linalg.eigvalsh(Ot) - ref).max() <= 1e-8
        assert abs(np.trace(Ot) - np.trace(Os[0])) <= 1e-8


# ---------------------------------------------------------------------------
# Lindblad adjoint and integration


def test_adjoint_dephasing_action():
    gen = dephasing_generator(1.0)
    assert np.abs(lindblad_adjoint(gen, sigma_x) + sigma_x).max() <= 1e-14


def test_adjoint_annihilates_identity(rng):
    gen = random_lindblad(rng, 3)
    assert np.abs(lindblad_adjoint(gen, identity(3))).max() <= 1e-12


def test_adjoint_speed_closed_form():
    # speed of the decaying observable: sqrt(2) * gamma * e^{-gamma t}
    gamma = 1.0
    gen = dephasing_generator(gamma)
    for t in (0.0, 0.5, 1.2):
        M = lindblad_adjoint(gen, np.exp(-gamma * t) * sigma_x)
        assert np.linalg.norm(M) == pytest.approx(
            np.sqrt(2.0) * gamma * np.exp(-gamma * t), abs=1e-12
        )


def test_lindblad_dephasing_closed_form():
    gen = dephasing_generator(1.0)
    grid = TimeGrid(0.0, np.pi / 2, 1000)
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid, probes=tuple(oracles.matrix_units(2)))
    Os = oracles.samples_from_probes(traj)
    times = grid.times()
    errs = [
        np.linalg.norm(Os[i] - np.exp(-times[i]) * sigma_x)
        for i in range(len(times))
    ]
    assert max(errs) <= 1e-8


def test_lindblad_zero_rates_reduce_to_unitary(rng):
    H = oracles.random_hermitian(rng, 2)
    rho = DensityState.pure(oracles.random_ket(rng, 2))
    grid = TimeGrid(0.0, np.pi / 2, 1000)
    for hbar in (1.0, 2.0):
        gen = LindbladGenerator(H=H, jumps=((sigma_z, 0.0),), hbar=hbar)
        closed = UnitaryGenerator(H, hbar=hbar)
        a = evolve_lindblad_heisenberg(sigma_x, gen, rho, grid, probes=tuple(oracles.matrix_units(2)))
        b = evolve_unitary_heisenberg(sigma_x, closed, rho, grid, probes=tuple(oracles.matrix_units(2)))
        assert np.abs(a.expect - b.expect).max() <= 1e-8
        Oa, Ob = oracles.samples_from_probes(a), oracles.samples_from_probes(b)
        assert max(np.abs(Oa - Ob).max(axis=(1, 2))) <= 1e-8
        # the bounds both kinds share, and each open twin against its closed one
        shared = ("GENERATOR_HS", "STATE_INDEP")
        open_ = EvalContext(
            gen, grid, sigma_x, rho, evolve_lindblad_heisenberg, B=sigma_z, ids=(*shared, "CORR_OPEN", "COMM_OPEN")
        )
        unitary = EvalContext(
            closed, grid, sigma_x, rho, evolve_unitary_heisenberg, B=sigma_z, ids=(*shared, "CORR_CLOSED", "COMM_CLOSED")
        )
        for ra, rb in zip(evaluate_all(open_), evaluate_all(unitary), strict=True):
            assert rb.T_qsl > 0.01
            assert ra.T_qsl == pytest.approx(rb.T_qsl, rel=1e-8), (hbar, ra.bound_id)


def test_rk4_fourth_order_convergence():
    # a time-varying rate keeps this on RK4: the ramp gamma(t) = t / 2, whose
    # x component decays as exp(-t^2 / 2)
    table = RateTable(times=[0.0, 2.0], values=[0.0, 1.0])
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, table),))
    errors = {}
    for steps in (100, 200):
        grid = TimeGrid(0.0, np.pi / 2, steps)
        traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid)
        errors[steps] = np.abs(traj.expect - np.exp(-(grid.times() ** 2) / 2.0)).max()
    ratio = errors[100] / errors[200]
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
def test_hbar_must_be_positive_and_finite(hbar):
    for build in (
        lambda: UnitaryGenerator(H=sigma_z, hbar=hbar),
        lambda: LindbladGenerator(H=sigma_z, jumps=((sigma_z, 1.0),), hbar=hbar),
        lambda: dephasing_generator(1.0, hbar=hbar),
    ):
        with pytest.raises(ValidationError, match="hbar must be positive"):
            build()


@pytest.mark.parametrize(
    "H, message",
    [
        (np.array([[0, 1], [0, 0]], dtype=complex), "hamiltonian is not Hermitian within tolerance"),
        (np.array([[np.nan, 0], [0, 1]], dtype=complex), "hamiltonian has non-finite entries"),
    ],
    ids=["non-hermitian", "non-finite"],
)
def test_every_hamiltonian_entry_point_applies_one_check(H, message):
    for build in (
        lambda: UnitaryGenerator(H=H),
        lambda: LindbladGenerator(H=H, jumps=((sigma_z, 1.0),)),
    ):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()


def test_matrix_holders_compare_and_hash_by_identity():
    """States, generators, rate tables and systems that differ only in their
    matrices are not equal, and none raises on == or hash."""
    assert DensityState.pure([1.0, 0.0]) != DensityState.pure([0.0, 1.0])
    unitary = UnitaryGenerator(sigma_x), UnitaryGenerator(sigma_z)
    lindblad = [LindbladGenerator(H=sigma_z, jumps=((sigma_x, 1.0),)) for _ in range(2)]
    tables = RateTable([0.0, 1.0], [0.1, 0.2]), RateTable([0.0, 1.0], [0.3, 0.4])
    text = builtin_text("tight_qubit")
    systems = parse_system(text), parse_system(text.replace("pauli = 1.0 Z", "pauli = 1.0 X"))
    for a, b in (unitary, lindblad, tables, systems):
        assert a == a and a != b and len({a, b}) == 2


def test_lindblad_instability_detected():
    # a time-varying rate keeps this on RK4, where h * gamma ~ 1e8 blows up
    table = RateTable(times=[0.0, 1.0], values=[1e9, 2e9])
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, table),))
    with pytest.raises(NumericError):
        evolve_lindblad_heisenberg(sigma_x, gen, PLUS, TimeGrid(0.0, 1.0, 10))


def test_constant_rate_takes_exact_route():
    # the former RK4 inputs: the exact propagator has no step-size error
    gen = dephasing_generator(1.0)
    for steps in (100, 200):
        grid = TimeGrid(0.0, np.pi / 2, steps)
        traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid)
        assert np.abs(traj.expect - np.exp(-grid.times())).max() <= 1e-12


def test_exact_route_stable_at_huge_rate():
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 1e9),))
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, TimeGrid(0.0, 1.0, 10), probes=tuple(oracles.matrix_units(2)))
    for values in (oracles.samples_from_probes(traj), traj.expect, traj.stddev, traj.gen_speed_hs, traj.gen_speed_op):
        assert np.isfinite(values).all()


def test_hermiticity_preserved_all_kinds(rng):
    grid = TimeGrid(0.0, 1.0, 200)
    rho = DensityState.pure(oracles.random_ket(rng, 2))
    O = oracles.random_hermitian(rng, 2)
    H = oracles.random_hermitian(rng, 2)
    unitary = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, grid, probes=tuple(oracles.matrix_units(2)))
    lindblad = evolve_lindblad_heisenberg(O, random_lindblad(rng, 2), rho, grid, probes=tuple(oracles.matrix_units(2)))
    kraus = evolve_kraus_heisenberg(O, DephasingKraus(0.8), rho, grid)
    # a Kraus trajectory keeps O(t) at the two ends of its grid only
    for Ot in [*oracles.samples_from_probes(unitary)[:: grid.steps // 4],
               *oracles.samples_from_probes(lindblad)[:: grid.steps // 4],
               kraus.at(0), kraus.at(-1)]:
        assert is_hermitian(Ot, 1e-8)


# ---------------------------------------------------------------------------
# Schrodinger picture and duality


def test_schrodinger_dephasing_off_diagonal_decay():
    gen = dephasing_generator(1.0)
    grid = TimeGrid(0.0, np.pi / 2, 1000)
    states = evolve_lindblad_schrodinger(PLUS, gen, grid)
    times = grid.times()
    errs = [
        abs(states[i].matrix[0, 1] - np.exp(-times[i]) / 2.0) for i in range(len(times))
    ]
    assert max(errs) <= 1e-8
    assert abs(np.trace(states[-1].matrix) - 1.0) <= 1e-10


def test_schrodinger_samples_validated_as_one_stack(recwarn):
    states = evolve_lindblad_schrodinger(PLUS, dephasing_generator(1.0), TimeGrid(0.0, 1.0, 100))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert len(states) == 101
    assert all(s.purity == pytest.approx(np.trace(s.matrix @ s.matrix).real, abs=1e-15) for s in states)

    stack = np.array([PLUS.matrix] * 4)
    stack[2] = np.diag([1.1, -0.1])
    with pytest.warns(RuntimeWarning, match="sample 2 has negative eigenvalue") as caught:
        wrapped = DensityState.from_stack(stack, on_indefinite="warn")
    assert len(caught) == 1
    assert np.array_equal([s.matrix for s in wrapped], stack)
    with pytest.raises(ValidationError):
        DensityState.from_stack(stack)


def test_schrodinger_diagonal_state_stationary():
    gen = dephasing_generator(1.0)
    rho0 = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
    states = evolve_lindblad_schrodinger(rho0, gen, TimeGrid(0.0, 1.0, 100))
    assert np.abs(states[-1].matrix - rho0.matrix).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**31 - 1))
def test_heisenberg_schrodinger_duality(dim, seed):
    r = np.random.default_rng(seed)
    gen = random_lindblad(r, dim)
    O = oracles.random_hermitian(r, dim)
    rho = DensityState.pure(oracles.random_ket(r, dim))
    grid = TimeGrid(0.0, 1.0, 400)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    states = evolve_lindblad_schrodinger(rho, gen, grid)
    lhs = np.array([np.trace(O @ s.matrix).real for s in states[:: grid.steps // 4]])
    rhs = traj.expect[:: grid.steps // 4]
    assert np.abs(lhs - rhs).max() <= 1e-6


# ---------------------------------------------------------------------------
# Kraus dynamics


def test_kraus_dephasing_matches_lindblad_solution():
    grid = TimeGrid(0.0, np.pi / 2, 1000)
    traj = evolve_kraus_heisenberg(sigma_x, DephasingKraus(1.0), PLUS, grid)
    times = grid.times()
    # O(t) = e^{-t} sigma_x: in |+>, <O(t)> = e^{-t} and dO(t) = 0
    assert np.abs(traj.expect - np.exp(-times)).max() <= 1e-9
    assert np.abs(traj.stddev**2).max() <= 1e-9
    for k in (0, -1):
        assert np.linalg.norm(traj.at(k) - np.exp(-times[k]) * sigma_x) <= 1e-9


def test_kraus_single_unitary_reproduces_unitary():
    fam = FunctionKraus(
        lambda t: [oracles.expm_hermitian_oracle(sigma_z, -1j * t)], dim=2, n_ops=1
    )
    grid = TimeGrid(0.0, 1.0, 200)
    a = evolve_kraus_heisenberg(sigma_x, fam, PLUS, grid)
    b = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(a.expect - b.expect).max() <= 1e-10


def test_kraus_identity_is_fixed_point():
    grid = TimeGrid(0.0, 1.0, 100)
    traj = evolve_kraus_heisenberg(identity(2), DephasingKraus(1.3), PLUS, grid)
    assert np.abs(traj.expect - 1.0).max() <= 1e-12
    for k in (0, -1):
        assert np.abs(traj.at(k) - identity(2)).max() <= 1e-12


def test_kraus_grid_batch_matches_per_sample_route(rng):
    # a qutrit family K_i(t) = U(t) K_i(0) with U(t) = exp(-i t H): the
    # per-sample loop with kraus_derivative is the reference
    H = oracles.random_hermitian(rng, 3)
    Q, _ = np.linalg.qr(oracles.random_matrix(rng, 6))
    K0 = Q[:, :3].reshape(2, 3, 3)  # sum_i K_i^dag K_i = 1 from orthonormal columns
    fam = FunctionKraus(lambda t: oracles.expm_hermitian_oracle(H, -1j * t) @ K0, dim=3, n_ops=2)
    O = oracles.random_hermitian(rng, 3)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    grid = TimeGrid(0.0, 0.9, 30)
    traj = evolve_kraus_heisenberg(O, fam, rho, grid)
    # the grid's exact domain: here t_29 + h rounds above t_30 = T, which must
    # not switch kraus_derivative to a one-sided difference at t_29
    lo, hi = grid.t0, grid.t1
    Os = _kraus_samples(fam, O, grid.times())
    assert np.abs(traj.expect - np.einsum("tab,ba->t", Os, rho.matrix).real).max() <= 1e-12
    assert np.abs(traj.stddev**2 - oracles.three_operand_stddev(Os, rho.matrix) ** 2).max() <= 1e-12
    assert np.abs(traj.at(0) - Os[0]).max() <= 1e-12 and np.abs(traj.at(-1) - Os[-1]).max() <= 1e-12
    for j, t in enumerate(grid.times()):
        K = fam.operators(t)
        Ms = [K[i].conj().T @ O @ kraus_derivative(fam, i, t, grid.h, t_min=lo, t_max=hi) for i in range(2)]
        assert traj.gen_speed_hs[j] == pytest.approx(sum(np.linalg.norm(M) for M in Ms), rel=1e-9)
        assert traj.gen_speed_op[j] == pytest.approx(
            sum(oracles.jacobi_singular_values(M)[0] for M in Ms), rel=1e-9
        )


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_op_norms_match_svd(rng, dim):
    # the Gram-matrix operator norms against the batched SVD they replaced
    u, v = oracles.random_matrix(rng, dim)[:2]
    stacks = {
        "zero": np.zeros((4, 5, dim, dim), dtype=complex),
        "rank-1": np.array([[s * np.outer(u, v.conj()) for s in (1e-9, 1.0, 3e4)]]),
        "random": np.array([[oracles.random_matrix(rng, dim, s) for s in (1e-6, 1.0, 50.0)] for _ in range(4)]),
    }
    for name, X in stacks.items():
        got, ref = _op_norms(X), np.linalg.svd(X, compute_uv=False)[..., 0]
        assert got.shape == ref.shape, name
        assert (np.abs(got - ref) <= 1e-14 * ref).all(), name


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(unit, unit, unit, unit),
    st.tuples(unit, unit, unit, unit, unit, unit, unit, unit),
    st.sampled_from(["general", "zero", "diagonal", "degenerate", "near-degenerate"]),
    st.sampled_from([1e-150, 1.0, 1e150]),
)
def test_two_by_two_closed_form_matches_eigvalsh(hermitian, gram, shape, scale):
    # the largest |eigenvalue| of a Hermitian 2x2 matrix, and of a Gram
    # matrix M^dag M, to two ulp of its 60-digit value and within LAPACK's
    # own error (up to ~10 ulp) of eigvalsh; the upper triangle is not read
    a, c, re, im = hermitian
    if shape in ("zero", "diagonal"):
        re = im = 0.0
    if shape == "zero":
        a = c = 0.0
    if shape in ("degenerate", "near-degenerate"):
        c, re, im = a, (0.0 if shape == "degenerate" else 1e-9 * re), 0.0
    X = scale * np.array([[a, 7.0], [complex(re, im), c]])
    M = np.sqrt(scale) * (np.array(gram[:4]) + 1j * np.array(gram[4:])).reshape(2, 2)
    for Y in (X, M.conj().T @ M):
        got = _hermitian_op_norms(Y)
        assert abs(got - oracles.largest_abs_eigenvalue_2x2(Y)) <= 2 * np.spacing(got)
        # eigvalsh rescales a matrix below ~1e-146 by a factor that rounds,
        # so it gets the lower triangle scaled by a power of two
        low = np.tril(Y)
        k = np.frexp(np.abs(low).max())[1]
        w = np.ldexp(np.linalg.eigvalsh(np.ldexp(low.real, -k) + 1j * np.ldexp(low.imag, -k)), k)
        assert abs(got - max(-w[0], w[-1])) <= 16 * np.spacing(got)


def test_kraus_families_on_a_grid_match_per_time_calls():
    times = TimeGrid(0.0, 3.0, 500).times()
    K = DephasingKraus(1.7).operators(times)
    ref = np.array([oracles.dephasing_kraus_at(1.7, t) for t in times.tolist()])
    assert K.shape == ref.shape == (501, 2, 2, 2)
    assert np.array_equal(np.signbit(K.view(float)), np.signbit(ref.view(float)))
    # np.exp against math.exp: one ulp of e = exp(-gamma t), carried through
    # a, b = sqrt((1 +- e) / 2), whose derivatives in e are 1 / (4a), -1 / (4b)
    e = np.exp(-1.7 * times)[:, None, None, None]
    slack = np.spacing(np.abs(ref)) + np.divide(np.spacing(e), 4 * np.abs(ref), where=ref != 0, out=np.zeros(ref.shape))
    assert (np.abs(K - ref) <= slack).all()
    assert DephasingKraus(1.7).operators(0.5).shape == (2, 2, 2)
    with pytest.raises(ValidationError, match="t >= 0"):
        DephasingKraus(1.0).operators([0.5, -0.1])

    tab = TabulatedKraus(times=times, ops=ref)
    # the lookup keeps the per-time tie rule and tolerance, bit for bit
    query = np.concatenate([times, times[::-1] + 1e-13])
    assert np.array_equal(tab.operators(query), np.array([tab.operators(t) for t in query.tolist()]))
    assert np.array_equal(tab.operators(times), ref)
    with pytest.raises(ValidationError, match="^time 0.01 is not on the tabulated Kraus grid$"):
        tab.operators([0.0, 0.01, 0.02])


def test_spreads_match_three_operand_second_moment(rng):
    # a full-rank mixed state, so no term of tr(O(t) O(t) rho) vanishes
    W = oracles.random_matrix(rng, 3)
    rho = DensityState.from_matrix(W @ W.conj().T / np.trace(W @ W.conj().T).real)
    O = oracles.random_hermitian(rng, 3)
    grid = TimeGrid(0.0, 0.9, 30)
    Q, _ = np.linalg.qr(oracles.random_matrix(rng, 6))
    H, K0 = oracles.random_hermitian(rng, 3), Q[:, :3].reshape(2, 3, 3)
    fam = FunctionKraus(lambda t: oracles.expm_hermitian_oracle(H, -1j * t) @ K0, dim=3, n_ops=2)
    lindblad = evolve_lindblad_heisenberg(O, random_lindblad(rng, 3), rho, grid, probes=tuple(oracles.matrix_units(3)))
    kraus = evolve_kraus_heisenberg(O, fam, rho, grid)
    for traj, Os in ((lindblad, oracles.samples_from_probes(lindblad)), (kraus, _kraus_samples(fam, O, grid.times()))):
        assert np.abs(traj.stddev - oracles.three_operand_stddev(Os, rho.matrix)).max() <= 1e-12


def test_kraus_completeness_enforced():
    bad = TabulatedKraus(
        times=[0.0, 0.5, 1.0],
        ops=[[0.9 * identity(2)], [0.9 * identity(2)], [0.9 * identity(2)]],
    )
    with pytest.raises(ValidationError):
        evolve_kraus_heisenberg(sigma_x, bad, PLUS, TimeGrid(0.0, 1.0, 2))


def test_tabulated_kraus_grid_alignment():
    fam = DephasingKraus(1.0)
    grid = TimeGrid(0.0, 1.0, 4)
    tab = TabulatedKraus(times=grid.times(), ops=[fam.operators(t) for t in grid.times()])
    a = evolve_kraus_heisenberg(sigma_x, tab, PLUS, grid)
    b = evolve_kraus_heisenberg(sigma_x, fam, PLUS, grid)
    assert np.abs(a.expect - b.expect).max() <= 1e-12
    with pytest.raises(ValidationError):
        tab.operators(0.33)


def test_tabulated_kraus_lookup_ends_and_between():
    times = np.array([0.0, 0.25, 0.5, 1.0])
    ops = np.arange(4)[:, None, None, None] * identity(2)[None, None]
    tab = TabulatedKraus(times=times, ops=ops)
    assert tab.operators(0.0)[0, 0, 0] == 0.0
    assert tab.operators(1.0)[0, 0, 0] == 3.0
    assert tab.operators(0.5 + 1e-13)[0, 0, 0] == 2.0
    for t in (0.75, 0.3, -0.1, 1.2):
        with pytest.raises(ValidationError, match="not on the tabulated Kraus grid"):
            tab.operators(t)


def test_kraus_derivative_constant_family():
    fam = FunctionKraus(
        lambda t: [np.sqrt(0.5) * identity(2), np.sqrt(0.5) * sigma_z], dim=2, n_ops=2
    )
    dK = kraus_derivative(fam, 0, 0.5, 1e-3)
    assert np.abs(dK).max() == 0.0


def test_kraus_derivative_matches_analytic():
    gamma = 1.0
    fam = DephasingKraus(gamma)
    t = 0.7

    def b(t):
        return np.sqrt((1.0 - np.exp(-gamma * t)) / 2.0)

    analytic = gamma * np.exp(-gamma * t) / (4.0 * b(t))
    for h in (1e-3, 5e-4):
        dK = kraus_derivative(fam, 1, t, h)
        err = abs(dK[0, 0].real - analytic)
        assert err <= 2.0 * h * h * analytic + 1e-12


def test_kraus_derivative_quadratic_convergence():
    fam = DephasingKraus(1.0)
    t = 0.7
    analytic = np.exp(-t) / (4.0 * np.sqrt((1.0 - np.exp(-t)) / 2.0))
    errs = [abs(kraus_derivative(fam, 1, t, h)[0, 0].real - analytic) for h in (2e-2, 1e-2)]
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_kraus_derivative_rejects_bad_step():
    with pytest.raises(ValidationError):
        kraus_derivative(DephasingKraus(1.0), 0, 0.5, 0.0)


def _reachable_arrays(obj, seen):
    """Every array reachable from obj through containers, object attributes
    and the arrays that views are taken of."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from _reachable_arrays(obj.base, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _reachable_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _reachable_arrays(vars(obj), seen)


@pytest.mark.parametrize("steps", [200, 2000])
@pytest.mark.parametrize("kind", ["unitary", "lindblad", "kraus"])
def test_no_trajectory_holds_a_sample_stack(kind, steps):
    rng = np.random.default_rng(steps)
    dim = 2 if kind == "kraus" else 3
    O = oracles.random_hermitian(rng, dim)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    grid, probes = TimeGrid(0.0, 1.0, steps), (O @ rho.matrix,)
    if kind == "unitary":
        traj = evolve_unitary_heisenberg(
            O, UnitaryGenerator(oracles.random_hermitian(rng, dim)), rho, grid, probes=probes
        )
        traj.mid_stddev
    elif kind == "lindblad":
        traj = evolve_lindblad_heisenberg(O, random_lindblad(rng, dim), rho, grid, probes=probes)
    else:
        traj = evolve_kraus_heisenberg(O, DephasingKraus(0.8), rho, grid, probes=probes)
    # after every read a bound makes, so nothing is cached by a read either
    traj.at(0), traj.at(-1), traj.prefix(steps // 2), traj.trace_with(probes[0])
    stacks = [
        a.shape
        for a in _reachable_arrays(vars(traj), set())
        if a.ndim >= 3 and a.shape[-2:] == (dim, dim) and steps + 1 in a.shape[:-2]
    ]
    assert not stacks
