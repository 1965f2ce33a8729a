import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqsl.bounds import (
    BOUND_IDS,
    EvalContext,
    battery_bounds,
    commutator_probe,
    commutator_qsl,
    corr_qsl,
    correlation_probe,
    evaluate_all,
    oqsl_generator_hs,
    oqsl_kraus,
    oqsl_min_norm,
    oqsl_mt_integral,
    oqsl_purity_hs,
    oqsl_self_inverse,
    oqsl_state_independent,
    qsl_delcampo,
    rate_audit,
    rate_probe,
    state_qsl_projector,
    two_time_correlation,
)
from oqsl.dynamics import (
    DephasingKraus,
    LindbladGenerator,
    RateTable,
    TimeGrid,
    Trajectory,
    UnitaryGenerator,
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
    hs_norm,
    op_norm,
    sigma_x,
    sigma_y,
    sigma_z,
    tr_norm,
    variance,
)

import oracles
from oracles import FunctionKraus, identity

PLUS = DensityState.pure([1.0, 1.0])
GROUND = DensityState.pure([1.0, 0.0])
T_HALF_PI = np.pi / 2.0


def tight_trajectory(steps=4000):
    grid = TimeGrid(0.0, T_HALF_PI, steps)
    return evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)


def audit_context(O, H, rho, grid, gen=None):
    """The context of O under H, or under the Lindblad generator gen, in rho,
    its trajectory evolved with the rate audit's probe declared."""
    if gen is None:
        ctx = EvalContext(UnitaryGenerator(H), grid, O, rho, evolve_unitary_heisenberg, rates=True)
    else:
        ctx = EvalContext(gen, grid, O, rho, evolve_lindblad_heisenberg, rates=True)
    ctx.traj  # evolved here, so that a rejected rate probe raises here
    return ctx


def lindblad_probes(O, B, rho, grid):
    """The probes the Lindblad bounds declare for O (and B) in rho."""
    return EvalContext(LindbladGenerator(np.zeros_like(O)), grid, O, rho, None, B=B).probes


# ---------------------------------------------------------------------------
# path-integral bound


def test_mt_integral_tight_qubit():
    rep = oqsl_mt_integral(tight_trajectory(), 1.0)
    assert rep.T_qsl == pytest.approx(T_HALF_PI, abs=1e-4)
    assert rep.valid


def test_mt_integral_conserved_observable():
    grid = TimeGrid(0.0, 2.0, 200)
    traj = evolve_unitary_heisenberg(sigma_z, UnitaryGenerator(sigma_z), PLUS, grid)
    assert oqsl_mt_integral(traj, 1.0).T_qsl == 0.0


def test_mt_integral_validity_random_qubits(rng):
    for _ in range(20):
        H = oracles.random_hermitian(rng, 2)
        H = H / op_norm(H)
        O = oracles.random_hermitian(rng, 2)
        rho = DensityState.pure(oracles.random_ket(rng, 2))
        T = float(rng.uniform(0.3, 1.2))
        traj = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, TimeGrid(0.0, T, 1500))
        dH = float(np.sqrt(variance(H, rho)))
        if dH < 1e-9:
            continue
        rep = oqsl_mt_integral(traj, dH)
        assert rep.T_qsl <= T + 1e-6


def test_mt_integral_rejects_bad_energy_spread():
    with pytest.raises(ValidationError):
        oqsl_mt_integral(tight_trajectory(100), 0.0)


def test_mt_integral_requires_unitary_kind():
    traj = evolve_lindblad_heisenberg(
        sigma_x, dephasing_generator(1.0), PLUS, TimeGrid(0.0, 1.0, 100)
    )
    with pytest.raises(ValidationError):
        oqsl_mt_integral(traj, 1.0)


def test_mt_integral_midpoint_spread_stays_below_horizon():
    # each cell gives |cos 2t - cos 2(t + h)| / (2 |sin(2t + h)|) = sin h < h
    # exactly when the spread is taken at the true cell midpoint
    for steps in (250, 1000, 4000):
        rep = oqsl_mt_integral(tight_trajectory(steps), 1.0)
        assert rep.T_qsl == pytest.approx(steps * np.sin(T_HALF_PI / steps), abs=1e-9)
        assert rep.T_qsl <= T_HALF_PI


def test_mt_integral_counts_skipped_cells():
    rep = oqsl_mt_integral(tight_trajectory(100), 1.0)
    assert rep.details["cells"] == 100
    assert rep.details["skipped_cells"] == 0


# ---------------------------------------------------------------------------
# arcsine bound for self-inverse observables


def test_self_inverse_tight_value():
    rep = oqsl_self_inverse(1.0, -1.0, 1.0, T_HALF_PI)
    assert rep.T_qsl == pytest.approx(T_HALF_PI, abs=1e-12)
    assert rep.valid


def test_self_inverse_no_change():
    assert oqsl_self_inverse(0.4, 0.4, 1.0, 1.0).T_qsl == 0.0


def test_self_inverse_matches_integral_when_monotone():
    # <O(t)> = cos 2t decreases monotonically over the whole window
    for T, steps in ((T_HALF_PI, 4000), (0.6, 2000)):
        traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, TimeGrid(0.0, T, steps))
        mt = oqsl_mt_integral(traj, 1.0).T_qsl
        si = oqsl_self_inverse(
            float(traj.expect[0]), float(traj.expect[-1]), 1.0, T
        ).T_qsl
        assert abs(mt - si) <= 2e-4


def test_self_inverse_rejects_out_of_range():
    with pytest.raises(ValidationError):
        oqsl_self_inverse(1.5, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# projector / state bound


def test_state_projector_orthogonal():
    assert state_qsl_projector(1.0, 0.0, 1.0, T_HALF_PI).T_qsl == pytest.approx(
        T_HALF_PI, abs=1e-15
    )


def test_state_projector_no_change():
    assert state_qsl_projector(0.3, 0.3, 1.0, 1.0).T_qsl == 0.0


def test_state_projector_half():
    assert state_qsl_projector(1.0, 0.5, 1.0, 1.0).T_qsl == pytest.approx(
        np.pi / 4.0, abs=1e-15
    )


@pytest.mark.parametrize("pT", [0.0, 0.25, 0.5, 1.0])
def test_state_projector_arccos_reduction_exact(pT):
    rep = state_qsl_projector(1.0, pT, 1.0, 2.0)
    assert rep.T_qsl == float(np.arccos(np.sqrt(pT)))


def test_state_projector_rejects_bad_probability():
    with pytest.raises(ValidationError):
        state_qsl_projector(1.2, 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        state_qsl_projector(0.5, -0.1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# purity-weighted Hilbert-Schmidt bound


def test_purity_hs_tight_example():
    rep = oqsl_purity_hs(1.0, -1.0, PLUS, hs_norm(sigma_x @ sigma_z), T_HALF_PI)
    assert rep.T_qsl == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert rep.valid


def test_purity_hs_no_change():
    assert oqsl_purity_hs(0.7, 0.7, PLUS, 1.0, 1.0).T_qsl == 0.0


def test_purity_hs_mixed_state_scaling():
    mixed = oracles.maximally_mixed(2)
    pure_val = oqsl_purity_hs(0.0, 1.0, PLUS, np.sqrt(2.0), 1.0).T_qsl
    mixed_val = oqsl_purity_hs(0.0, 1.0, mixed, np.sqrt(2.0), 1.0).T_qsl
    assert mixed_val == pytest.approx(np.sqrt(2.0) * pure_val, abs=1e-12)


def test_purity_hs_zero_norm_inconsistency():
    with pytest.raises(NumericError):
        oqsl_purity_hs(0.0, 1.0, PLUS, 0.0, 1.0)


# ---------------------------------------------------------------------------
# minimum-norm bound


def test_min_norm_tight_example():
    prod = sigma_x @ sigma_z
    rep = oqsl_min_norm(1.0, -1.0, op_norm(prod), tr_norm(prod), T_HALF_PI)
    assert rep.T_qsl == pytest.approx(1.0, abs=1e-12)
    assert rep.valid


def test_min_norm_no_change():
    assert oqsl_min_norm(0.2, 0.2, 1.0, 2.0, 1.0).T_qsl == 0.0


def test_min_norm_dominates_purity_hs_when_op_smaller(rng):
    for _ in range(10):
        H = oracles.random_hermitian(rng, 3)
        O = oracles.random_hermitian(rng, 3)
        rho = DensityState.pure(oracles.random_ket(rng, 3))
        prod = O @ H
        if op_norm(prod) >= hs_norm(prod):
            continue
        a = oqsl_min_norm(0.0, 0.5, op_norm(prod), tr_norm(prod), 1.0).T_qsl
        b = oqsl_purity_hs(0.0, 0.5, rho, hs_norm(prod), 1.0).T_qsl
        assert a >= b - 1e-12


def test_min_norm_zero_norms_inconsistency():
    with pytest.raises(NumericError):
        oqsl_min_norm(0.0, 1.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# generator-speed bound


@pytest.mark.parametrize("T", [0.4, 0.9, T_HALF_PI])
def test_generator_hs_dephasing_closed_form(T):
    traj = evolve_lindblad_heisenberg(
        sigma_x, dephasing_generator(1.0), PLUS, TimeGrid(0.0, T, 2000)
    )
    rep = oqsl_generator_hs(traj, PLUS)
    assert rep.T_qsl == pytest.approx(T / np.sqrt(2.0), abs=1e-6)
    assert rep.valid


def test_generator_hs_stationary():
    rho = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
    traj = evolve_lindblad_heisenberg(
        sigma_z, dephasing_generator(1.0), rho, TimeGrid(0.0, 1.0, 100)
    )
    assert oqsl_generator_hs(traj, rho).T_qsl == 0.0


def test_generator_hs_validity_random_lindblad(rng):
    for _ in range(20):
        dim = int(rng.choice([2, 3]))
        H = oracles.random_hermitian(rng, dim)
        H = H / op_norm(H)
        jumps = tuple(
            (oracles.random_matrix(rng, dim, 0.5), float(rng.uniform(0, 1)))
            for _ in range(2)
        )
        gen = LindbladGenerator(H=H, jumps=jumps)
        O = oracles.random_hermitian(rng, dim)
        rho = DensityState.pure(oracles.random_ket(rng, dim))
        T = float(rng.uniform(0.3, 1.0))
        traj = evolve_lindblad_heisenberg(O, gen, rho, TimeGrid(0.0, T, 800))
        assert oqsl_generator_hs(traj, rho).T_qsl <= T + 1e-6


def test_generator_hs_works_for_unitary_kind():
    traj = tight_trajectory(1000)
    rep = oqsl_generator_hs(traj, PLUS)
    assert 0.0 < rep.T_qsl <= T_HALF_PI + 1e-6


def test_generator_hs_rejects_kraus_kind():
    traj = evolve_kraus_heisenberg(
        sigma_x, DephasingKraus(1.0), PLUS, TimeGrid(0.0, 1.0, 100)
    )
    with pytest.raises(ValidationError):
        oqsl_generator_hs(traj, PLUS)


# ---------------------------------------------------------------------------
# relative-purity state bound


def dephasing_delcampo(T, steps=2000, gamma=1.0):
    gen = dephasing_generator(gamma)
    grid = TimeGrid(0.0, T, steps)
    states = evolve_lindblad_schrodinger(PLUS, gen, grid)
    l2 = hs_norm(lindblad_apply(gen, PLUS.matrix, 0.0)) ** 2
    return qsl_delcampo(PLUS, states[-1], l2, T)


@pytest.mark.parametrize("T", [0.4, 0.9, T_HALF_PI])
def test_delcampo_dephasing_closed_form(T):
    rep = dephasing_delcampo(T)
    assert rep.T_qsl == pytest.approx((1.0 - np.exp(-T)) / np.sqrt(2.0), abs=1e-6)
    assert rep.details["cos_theta"] == pytest.approx((1.0 + np.exp(-T)) / 2.0, abs=1e-8)


def test_delcampo_same_state():
    assert qsl_delcampo(PLUS, PLUS, 0.5, 1.0).T_qsl == 0.0


def test_delcampo_below_generator_bound():
    for T in (0.2, 0.8, T_HALF_PI):
        traj = evolve_lindblad_heisenberg(
            sigma_x, dephasing_generator(1.0), PLUS, TimeGrid(0.0, T, 1000)
        )
        assert dephasing_delcampo(T, 1000).T_qsl <= oqsl_generator_hs(traj, PLUS).T_qsl


def test_delcampo_rejects_zero_speed_with_change():
    other = DensityState.pure([1.0, 0.0])
    with pytest.raises(ValidationError):
        qsl_delcampo(PLUS, other, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Kraus-map bound


def test_kraus_bound_validity_across_horizons():
    gen = DephasingKraus(1.0)
    for T in (0.3, 0.8, 1.3, T_HALF_PI):
        traj = evolve_kraus_heisenberg(sigma_x, gen, PLUS, TimeGrid(0.0, T, 600))
        rep = oqsl_kraus(traj, PLUS)
        assert rep.T_qsl <= T + 1e-5


def test_kraus_bound_constant_family_zero():
    fam = FunctionKraus(
        lambda t: [np.sqrt(0.5) * identity(2), np.sqrt(0.5) * sigma_z], dim=2, n_ops=2
    )
    traj = evolve_kraus_heisenberg(sigma_x, fam, PLUS, TimeGrid(0.0, 1.0, 100))
    rep = oqsl_kraus(traj, PLUS)
    assert rep.T_qsl == 0.0
    assert rep.details["lambda_T"] == pytest.approx(0.0, abs=1e-15)


def test_kraus_bound_single_unitary_family():
    fam = FunctionKraus(
        lambda t: [oracles.expm_hermitian_oracle(sigma_z, -1j * t)], dim=2, n_ops=1
    )
    T = 1.0
    traj = evolve_kraus_heisenberg(sigma_x, fam, PLUS, TimeGrid(0.0, T, 400))
    assert oqsl_kraus(traj, PLUS).T_qsl <= T + 1e-6


def test_kraus_bound_rejects_other_kinds():
    with pytest.raises(ValidationError):
        oqsl_kraus(tight_trajectory(100), PLUS)


# ---------------------------------------------------------------------------
# state-independent bound


def test_state_independent_dephasing_saturates():
    T = 1.1
    traj = evolve_lindblad_heisenberg(
        sigma_x, dephasing_generator(1.0), PLUS, TimeGrid(0.0, T, 2000)
    )
    rep = oqsl_state_independent(sigma_x, traj)
    assert rep.T_qsl == pytest.approx(T, abs=1e-5)
    assert rep.T_qsl <= T + 1e-6


def test_state_independent_conserved():
    traj = evolve_unitary_heisenberg(sigma_z, UnitaryGenerator(sigma_z), PLUS, TimeGrid(0.0, 1.0, 100))
    assert oqsl_state_independent(sigma_z, traj).T_qsl == 0.0


def test_state_independent_validity_random(rng):
    for _ in range(15):
        dim = int(rng.choice([2, 3]))
        gen = LindbladGenerator(
            H=oracles.random_hermitian(rng, dim, 0.7),
            jumps=((oracles.random_matrix(rng, dim, 0.5), float(rng.uniform(0, 1))),),
        )
        O = oracles.random_hermitian(rng, dim)
        rho = DensityState.pure(oracles.random_ket(rng, dim))
        T = float(rng.uniform(0.3, 1.0))
        traj = evolve_lindblad_heisenberg(O, gen, rho, TimeGrid(0.0, T, 800))
        assert oqsl_state_independent(O, traj).T_qsl <= T + 1e-6


# ---------------------------------------------------------------------------
# battery charging bounds


def test_battery_degenerate_case_exact_zeros():
    grid = TimeGrid(0.0, np.pi / 4.0, 500)
    ct1, ct2 = battery_bounds(sigma_z, sigma_z, PLUS, grid)
    assert ct1.T_qsl == 0.0
    assert ct2.T_qsl == 0.0
    # the state nevertheless reaches an orthogonal configuration
    HT = 2.0 * sigma_z
    ptraj = evolve_unitary_heisenberg(PLUS.matrix.copy(), UnitaryGenerator(HT), PLUS, grid)
    pT = float(np.clip(ptraj.expect[-1], 0.0, 1.0))
    smt = state_qsl_projector(1.0, pT, float(np.sqrt(variance(HT, PLUS))), grid.duration)
    assert smt.T_qsl >= 0.5


def test_battery_no_charging_field():
    grid = TimeGrid(0.0, 1.0, 200)
    ct1, ct2 = battery_bounds(sigma_z, np.zeros((2, 2)), PLUS, grid)
    assert ct1.T_qsl == 0.0
    assert ct2.T_qsl == 0.0


def test_battery_charging_protocol_validity():
    T = 1.0
    grid = TimeGrid(0.0, T, 1000)
    ct1, ct2 = battery_bounds(sigma_z, sigma_x, DensityState.pure([0.0, 1.0]), grid)
    assert 0.0 < ct1.T_qsl <= T + 1e-6
    assert 0.0 < ct2.T_qsl <= T + 1e-6


def test_battery_ct2_requires_pure_state():
    with pytest.raises(ValidationError):
        battery_bounds(sigma_z, sigma_x, oracles.maximally_mixed(2), TimeGrid(0.0, 1.0, 10))


def test_battery_mixed_state_is_rejected_before_anything_evolves(monkeypatch):
    import oqsl.bounds

    monkeypatch.setattr(oqsl.bounds, "evolve_unitary_heisenberg", None)
    with pytest.raises(ValidationError, match="BATTERY_CT2 requires a pure initial state"):
        battery_bounds(sigma_z, sigma_x, oracles.maximally_mixed(2), TimeGrid(0.0, 1.0, 10))


BATTERY_PAIR = ("BATTERY_CT1", "BATTERY_CT2")


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 2**31 - 1), eigenstate=st.booleans())
# rho an eigenstate of HB + HC: the stationary branch of BATTERY_CT1
@example(dim=3, seed=0, eigenstate=True)
def test_battery_pair_matches_its_own_evaluator(dim, seed, eigenstate):
    rng = np.random.default_rng(seed)
    HB, HC = oracles.random_hermitian(rng, dim), oracles.random_hermitian(rng, dim)
    if eigenstate:
        # HB + HC is then diagonal to the last digit, so dH = 0 exactly in |0>
        HC = np.diag(rng.uniform(-1.0, 1.0, dim)) - HB
    H = HB + HC
    rho = DensityState.pure(np.eye(dim)[0] if eigenstate else oracles.random_ket(rng, dim))
    grid, hbar, tol = TimeGrid(0.0, 1.0, 200), 1.0, 1e-9
    traj = evolve_unitary_heisenberg(HB, UnitaryGenerator(H, hbar, tol), rho, grid, tol)
    reports = battery_bounds(HB, HC, rho, grid, hbar, tol)
    for report, expected in zip(reports, oracles.battery_core(traj, HB, HC, rho, hbar, tol), strict=True):
        assert (report.bound_id, report.T_qsl, report.details) == (expected.bound_id, expected.T_qsl, expected.details)
    assert reports[0].details.get("stationary") == (1 if eigenstate else None)

    # as the CLI reads a file: H is given and the charging field is H - HB,
    # so the oracle's HB + (H - HB) may differ from H in the last digits
    gen = UnitaryGenerator(H, hbar, tol)
    ctx = EvalContext(gen, grid, HB, rho, evolve_unitary_heisenberg, tol=tol, ids=BATTERY_PAIR)
    expected_pair = oracles.battery_core(ctx.traj, HB, H - HB, rho, hbar, tol)
    for report, expected in zip(evaluate_all(ctx), expected_pair, strict=True):
        assert report.bound_id == expected.bound_id
        assert report.T_qsl == pytest.approx(expected.T_qsl, rel=1e-14, abs=1e-14 * grid.duration)


# ---------------------------------------------------------------------------
# two-time correlations


def test_correlation_starts_at_variance(rng):
    A = oracles.random_hermitian(rng, 3)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    H = oracles.random_hermitian(rng, 3)
    traj = evolve_unitary_heisenberg(
        A, UnitaryGenerator(H), rho, TimeGrid(0.0, 1.0, 50), probes=(correlation_probe(A, rho),)
    )
    c0 = complex(two_time_correlation(A, traj, rho)[0])
    assert c0.real == pytest.approx(variance(A, rho), abs=1e-10)
    assert abs(c0.imag) <= 1e-10


def test_correlation_dephasing_identically_zero():
    gen, grid = dephasing_generator(1.0), TimeGrid(0.0, 1.0, 200)
    probes = lindblad_probes(sigma_x, None, PLUS, grid)
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid, probes=probes)
    C = two_time_correlation(sigma_x, traj, PLUS)
    Os = oracles.propagate_lindblad([gen], sigma_x[None], grid, heisenberg=True)[0][0]
    direct = oracles.dense_correlation(Os[::40], sigma_x, PLUS.matrix)
    assert np.abs(C[::40] - direct).max() <= 1e-9
    assert np.abs(C).max() <= 1e-12


def test_correlation_precession_phase():
    grid = TimeGrid(0.0, 1.2, 800)
    traj = evolve_unitary_heisenberg(
        sigma_x, UnitaryGenerator(sigma_z), GROUND, grid, probes=(correlation_probe(sigma_x, GROUND),)
    )
    C = two_time_correlation(sigma_x, traj, GROUND)
    assert np.abs(C - np.exp(2j * grid.times())).max() <= 1e-8


def test_correlation_rejects_mixed_state():
    mixed = oracles.maximally_mixed(2)
    traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), mixed, TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValidationError):
        two_time_correlation(sigma_x, traj, mixed)


def test_corr_qsl_commuting_case_zero():
    grid = TimeGrid(0.0, 1.0, 100)
    traj = evolve_unitary_heisenberg(
        sigma_z, UnitaryGenerator(sigma_z), GROUND, grid, probes=(correlation_probe(sigma_z, GROUND),)
    )
    C = two_time_correlation(sigma_z, traj, GROUND)
    rep = corr_qsl(C, traj, op_norm(sigma_z))
    assert rep.bound_id == "CORR_CLOSED"
    assert rep.T_qsl == 0.0


def test_corr_qsl_closed_value_and_validity():
    T = 1.2
    grid = TimeGrid(0.0, T, 800)
    hbar = 1.0
    probes = (correlation_probe(sigma_x, GROUND),)
    traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z, hbar=hbar), GROUND, grid, probes=probes)
    C = two_time_correlation(sigma_x, traj, GROUND)
    rep = corr_qsl(C, traj, op_norm(sigma_x))
    assert rep.T_qsl == pytest.approx(abs(np.sin(T)) / 2.0, abs=1e-9)
    assert rep.T_qsl <= T + 1e-6


def test_corr_qsl_open_value_and_validity():
    T = 1.2
    grid = TimeGrid(0.0, T, 800)
    traj = evolve_lindblad_heisenberg(
        sigma_x, dephasing_generator(1.0), GROUND, grid, probes=lindblad_probes(sigma_x, None, GROUND, grid)
    )
    C = two_time_correlation(sigma_x, traj, GROUND)
    rep = corr_qsl(C, traj, op_norm(sigma_x))
    assert rep.bound_id == "CORR_OPEN"
    assert rep.T_qsl == pytest.approx(T / 2.0, abs=1e-5)
    assert rep.T_qsl <= T + 1e-6


def test_corr_qsl_zero_speed_inconsistency():
    # a correlation that changes along a trajectory whose speeds are all zero
    grid, zeros = TimeGrid(0.0, 1.0, 4), np.zeros(5)
    traj = Trajectory("unitary", grid, zeros, zeros, zeros, zeros, (np.eye(2), np.eye(2)))
    with pytest.raises(NumericError):
        corr_qsl(np.linspace(0.0, 1.0, 5).astype(complex), traj, 1.0)


# ---------------------------------------------------------------------------
# commutator bounds


TWOQ_H = np.kron(sigma_x, sigma_x)
TWOQ_A = np.kron(np.eye(2), sigma_z)
TWOQ_B = np.kron(sigma_z, np.eye(2))


def twoq_state():
    r = np.random.default_rng(7)
    return DensityState.pure(r.standard_normal(4) + 1j * r.standard_normal(4))


def test_commutator_closed_locality_toy():
    rho = twoq_state()
    grid = TimeGrid(0.0, 1.2, 800)
    traj = evolve_unitary_heisenberg(
        TWOQ_A, UnitaryGenerator(TWOQ_H), rho, grid, probes=(commutator_probe(TWOQ_B, rho),)
    )
    rep = commutator_qsl(TWOQ_B, traj, rho)
    assert rep.bound_id == "COMM_CLOSED"
    assert rep.details["comm_expect_0"] <= 1e-12
    assert rep.details["comm_expect_T"] > 0.01
    assert 0.0 < rep.T_qsl <= grid.duration + 1e-6


def test_commutator_closed_commuting_pair_zero():
    # A commutes with the coupling, so A(t) = A(0) commutes with B forever
    rho = twoq_state()
    A = np.kron(np.eye(2), sigma_x)
    traj = evolve_unitary_heisenberg(
        A, UnitaryGenerator(TWOQ_H), rho, TimeGrid(0.0, 1.0, 200), probes=(commutator_probe(TWOQ_B, rho),)
    )
    rep = commutator_qsl(TWOQ_B, traj, rho)
    assert rep.T_qsl == 0.0


def test_commutator_open_validity():
    rho = twoq_state()
    r = np.random.default_rng(11)
    gen = LindbladGenerator(
        H=TWOQ_H,
        jumps=((oracles.random_matrix(r, 4, 0.4), 0.6),),
    )
    grid = TimeGrid(0.0, 0.8, 800)
    traj = evolve_lindblad_heisenberg(TWOQ_A, gen, rho, grid, probes=lindblad_probes(TWOQ_A, TWOQ_B, rho, grid))
    rep = commutator_qsl(TWOQ_B, traj, rho)
    assert rep.bound_id == "COMM_OPEN"
    assert rep.details["comm_expect_0"] <= 1e-12
    assert rep.T_qsl <= grid.duration + 1e-6


def test_commutator_requires_pure_state():
    mixed = oracles.maximally_mixed(4)
    traj = evolve_unitary_heisenberg(TWOQ_A, UnitaryGenerator(TWOQ_H), mixed, TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValidationError):
        commutator_qsl(TWOQ_B, traj, mixed)


def test_commutator_kind_must_match_trajectory():
    # a Kraus trajectory has neither a closed nor an open twin
    probes = (commutator_probe(sigma_z, PLUS), correlation_probe(sigma_x, PLUS))
    traj = evolve_kraus_heisenberg(sigma_x, DephasingKraus(1.0), PLUS, TimeGrid(0.0, 1.0, 10), probes=probes)
    with pytest.raises(ValidationError, match="COMM requires a unitary- or lindblad-kind trajectory"):
        commutator_qsl(sigma_z, traj, PLUS)
    with pytest.raises(ValidationError, match="CORR requires a unitary- or lindblad-kind trajectory"):
        corr_qsl(two_time_correlation(sigma_x, traj, PLUS), traj, op_norm(sigma_x))


# ---------------------------------------------------------------------------
# rate audit and helpers


def test_rate_audit_tight_qubit_saturates_robertson():
    violations = rate_audit(audit_context(sigma_x, sigma_z, PLUS, TimeGrid(0.0, T_HALF_PI, 4000)))
    assert abs(violations["RATE_ROBERTSON"]) <= 1e-5
    assert violations["RATE_HOLDER_OP"] <= 1e-6


@pytest.mark.parametrize("steps", [500, 1000, 2000])
def test_rate_audit_is_exact_where_robertson_saturates(steps):
    # O = sigma_x, H = sigma_z, |+>: |d<O>/dt| = 2 |sin 2t| = 2 dO dH at every
    # t, and the central difference of <O(t)> = cos 2t falls short of it by
    # 2 |sin 2t| (1 - sin 2h / 2h), up to (4/3) h^2
    grid = TimeGrid(0.0, T_HALF_PI, steps)
    ctx = audit_context(sigma_x, sigma_z, PLUS, grid)
    assert abs(rate_audit(ctx)["RATE_ROBERTSON"]) <= 1e-12
    exact = 2.0 * np.abs(np.sin(2.0 * grid.times()))
    assert np.abs(np.abs(ctx.traj.trace_with(rate_probe(ctx)).real) - exact).max() <= 1e-12
    expect = ctx.traj.expect
    central = np.abs(expect[2:] - expect[:-2]) / (2.0 * grid.h)
    assert np.abs(central - exact[1:-1]).max() == pytest.approx(4.0 / 3.0 * grid.h**2, rel=1e-3)


def test_rate_audit_conserved_observable():
    violations = rate_audit(audit_context(sigma_z, sigma_z, PLUS, TimeGrid(0.0, 1.0, 100)))
    assert violations["RATE_ROBERTSON"] <= 0.0
    assert violations["RATE_HOLDER_OP"] <= 0.0


def test_rate_audit_lindblad_cauchy_schwarz(rng):
    gen = dephasing_generator(1.0)
    violations = rate_audit(audit_context(sigma_x, np.zeros((2, 2)), PLUS, TimeGrid(0.0, 1.0, 800), gen))
    assert list(violations) == ["RATE_CS_HS"]
    assert violations["RATE_CS_HS"] <= 1e-6


def test_rate_audit_rejects_undeclared_probe_and_varying_rates():
    grid = TimeGrid(0.0, 1.0, 50)
    ctx = EvalContext(UnitaryGenerator(sigma_z), grid, sigma_x, PLUS, evolve_unitary_heisenberg)
    with pytest.raises(ValidationError, match="declared as a probe"):
        rate_audit(ctx)
    ramp = LindbladGenerator(H=sigma_z, jumps=((sigma_x, RateTable([0.0, 1.0], [0.1, 0.5])),))
    with pytest.raises(ValidationError, match="constant in time"):
        audit_context(sigma_x, sigma_z, PLUS, grid, ramp)


def test_rate_audit_mutation_hook_detects_sign_flip():
    # a negated dH flips the sign of the Robertson right-hand side
    ctx = audit_context(sigma_x, sigma_z, PLUS, TimeGrid(0.0, T_HALF_PI, 500))
    ctx.delta_H = -ctx.delta_H
    assert rate_audit(ctx)["RATE_ROBERTSON"] > 0.1


def test_bound_ids_catalog():
    assert "MT_INTEGRAL" in BOUND_IDS and len(BOUND_IDS) == 15


# ---------------------------------------------------------------------------
# shared conventions


def test_every_report_carries_digest_and_details():
    rep = oqsl_self_inverse(1.0, -1.0, 1.0, T_HALF_PI)
    assert len(rep.inputs_digest) == 16
    assert rep.details["delta_H"] == 1.0


def test_zero_change_rule_returns_exact_zero():
    assert oqsl_self_inverse(0.5, 0.5, 2.0, 1.0).T_qsl == 0.0
    assert state_qsl_projector(0.25, 0.25, 2.0, 1.0).T_qsl == 0.0
    assert oqsl_purity_hs(0.5, 0.5, PLUS, 2.0, 1.0).T_qsl == 0.0
    assert oqsl_min_norm(0.5, 0.5, 1.0, 1.0, 1.0).T_qsl == 0.0
    assert qsl_delcampo(PLUS, PLUS, 1.0, 1.0).T_qsl == 0.0
