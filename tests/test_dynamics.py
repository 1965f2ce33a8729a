import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oqsl import cli, dynamics
from oqsl.bounds import EvalContext, evaluate_all
from oqsl.dynamics import (
    DephasingKraus,
    LindbladGenerator,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    dephasing_generator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    evolve_unitary_heisenberg,
    lindblad_apply,
    lindblad_final_state,
)
from oqsl.linalg import (
    DensityState,
    NumericError,
    ValidationError,
    hermitian_op_norm,
    is_hermitian,
    op_norm,
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
        TimeGrid(0.0, 10)
    for steps in (1, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="integer steps >= 2"):
            TimeGrid(1.0, steps)
    g = TimeGrid(1.0, 4)
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    # built once per grid, and read-only, since every caller shares it
    assert g.times() is g.times() and not g.times().flags.writeable


def test_time_grid_keeps_an_integral_step_count_as_an_int():
    # np.linspace takes only an integer number of samples
    g = TimeGrid(1.0, 10.0)
    assert type(g.steps) is int and g.steps == 10
    assert np.array_equal(g.times(), np.linspace(0.0, 1.0, 11))


def test_numpy_scalars_are_held_and_printed_as_floats(rng):
    # a numpy horizon or hbar is held as a Python float, so the stepper's
    # refusal reads h = 0.1 at hbar = 0.01, not h = np.float64(0.1)
    grid = TimeGrid(np.float64(1.0), 10)
    assert type(grid.T) is float and type(grid.h) is float
    assert type(UnitaryGenerator(H=sigma_z, hbar=np.float64(2.0)).hbar) is float
    gen = LindbladGenerator(H=oracles.random_hermitian(rng, 8), jumps=((oracles.random_matrix(rng, 8), 0.5),),
                            hbar=np.float64(0.01))
    assert type(gen.hbar) is float
    rho = DensityState.pure(oracles.random_ket(rng, 8))
    with pytest.raises(NumericError, match=r"the step h = 0\.1 has h beta = [0-9.]+ at hbar = 0\.01$") as info:
        evolve_lindblad_heisenberg(oracles.random_hermitian(rng, 8), gen, rho, grid)
    assert "np." not in str(info.value)


def test_negative_constant_rate_rejected():
    with pytest.raises(ValidationError):
        LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, -0.5),))


@pytest.mark.parametrize(
    "rate, message",
    [
        (-0.5, "negative rate -0.5"),
        (np.nan, "non-finite rate nan"),
        (np.inf, "non-finite rate inf"),
        ([0.1, 0.2], "non-real rate [0.1, 0.2]"),
    ],
)
def test_constant_rate_fault_is_named(rate, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)} for jump operator 0$"):
        LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, rate),))


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_dephasing_generator_rejects_non_finite_strength(gamma):
    with pytest.raises(ValidationError, match=f"^non-finite rate {gamma!r} for dephasing$"):
        dephasing_generator(gamma)


def test_time_dependent_dephasing_as_tabulated_kraus_family(tmp_path):
    # dephasing at the rate gamma(t) = t multiplies the coherence by
    # exp(-integral_0^t s ds) = exp(-t^2 / 2): the Kraus family
    # K0 = sqrt((1 + c) / 2) I, K1 = sqrt((1 - c) / 2) Z with c(t) = exp(-t^2 / 2),
    # tabulated on the evolve grid in a .sys file
    grid = TimeGrid(2.0, 400)
    lines = ["[system]", "dim = 2", "kind = kraus", "[state]", "ket = [1, 1]", "[observable X]", "pauli = 1.0 X",
             "[kraus]", "family = tabulated"]
    for t in grid.times().tolist():
        c = math.exp(-(t**2) / 2.0)
        a, b = math.sqrt((1.0 + c) / 2.0), math.sqrt((1.0 - c) / 2.0)
        lines += [f"time = {t!r}", f"K = [[{a!r}, 0], [0, {a!r}]]", f"K = [[{b!r}, 0], [0, {-b!r}]]"]
    path = tmp_path / "gaussian_dephasing.sys"
    path.write_text("\n".join(lines) + "\n")
    argv = ["--system", str(path), "--observable", "X", "--tmax", "2", "--steps", "400", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["evolve", *argv], out=out, err=err) == 0, err.getvalue()
    expect = np.array(json.loads(out.getvalue())["expect"])
    assert np.abs(expect - np.exp(-(grid.times() ** 2) / 2.0)).max() <= 1e-12
    out = io.StringIO()
    assert cli.main(["bound", *argv], out=out, err=err) == 0, err.getvalue()
    (report,) = json.loads(out.getvalue())["reports"]
    assert report["bound_id"] == "KRAUS" and report["valid"]


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
    grid = TimeGrid(np.pi / 2, 500)
    traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(traj.expect - np.cos(2.0 * grid.times())).max() <= 1e-9
    # stddev itself is only sqrt(eps)-accurate where the variance vanishes
    assert np.abs(traj.stddev**2 - np.sin(2.0 * grid.times()) ** 2).max() <= 1e-12


def test_unitary_trajectory_matches_propagator_route(rng):
    # same evolution through the Pade-exponential propagator
    H = oracles.random_hermitian(rng, 3)
    O = oracles.random_hermitian(rng, 3)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    grid = TimeGrid(1.0, 10)
    traj = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, grid, probes=tuple(oracles.matrix_units(3)))
    Os = oracles.samples_from_probes(traj)
    for i, t in enumerate(grid.times()):
        U = unitary_propagator(H, float(t))
        assert np.abs(Os[i] - U.conj().T @ O @ U).max() <= 1e-11


def test_conserved_observable_constant():
    grid = TimeGrid(2.0, 100)
    traj = evolve_unitary_heisenberg(sigma_z, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(traj.expect - traj.expect[0]).max() == 0.0


def test_heisenberg_rate_matches_commutator(rng):
    H = oracles.random_hermitian(rng, 2)
    H = H / np.linalg.svd(H, compute_uv=False)[0]
    O = oracles.random_hermitian(rng, 2)
    O = O / np.linalg.svd(O, compute_uv=False)[0]
    rho = DensityState.pure(oracles.random_ket(rng, 2))
    grid = TimeGrid(1.0, 2000)
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
        O, UnitaryGenerator(H), rho, TimeGrid(2.0, 50), probes=tuple(oracles.matrix_units(4))
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
    grid = TimeGrid(np.pi / 2, 1000)
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
    grid = TimeGrid(np.pi / 2, 1000)
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dim=st.integers(2, 4),
    log_hbar=st.floats(math.log(0.005), 0.0),
    steps=st.integers(20, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_taylor_stepper_is_within_its_truncation_target(take_stepper, dim, log_hbar, steps, seed):
    # |d<O(t)>| <= ||O(t) - O~(t)||_op, which the remainders of the series,
    # each at most 2^-53 ||O||_op and at most one a step, bound by
    # 200 * 2^-53 ||O||_op = 2.2e-14 ||O||_op, rounding aside; the horizon
    # 6 hbar turns H / hbar through 6 rad, so h beta <= 18 / steps keeps
    # every grid within the budget
    take_stepper()
    rng = np.random.default_rng(seed)
    hbar = math.exp(log_hbar)
    H, O = (oracles.random_hermitian(rng, dim) for _ in range(2))
    jumps = []
    for _ in range(2):
        L = oracles.random_matrix(rng, dim)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0))))
    gen = LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps), hbar=hbar)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    grid = TimeGrid(6.0 * hbar, steps)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    Os = oracles.einsum_exact_samples([gen], O[None], grid, heisenberg=True)[0]
    exact = np.einsum("tab,ba->t", Os, rho.matrix).real
    assert np.abs(traj.expect - exact).max() <= 1e-13 * op_norm(O)


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
    """States, generators and systems that differ only in their matrices are
    not equal, and none raises on == or hash."""
    assert DensityState.pure([1.0, 0.0]) != DensityState.pure([0.0, 1.0])
    unitary = UnitaryGenerator(sigma_x), UnitaryGenerator(sigma_z)
    lindblad = [LindbladGenerator(H=sigma_z, jumps=((sigma_x, 1.0),)) for _ in range(2)]
    text = builtin_text("tight_qubit")
    systems = parse_system(text), parse_system(text.replace("pauli = 1.0 Z", "pauli = 1.0 X"))
    for a, b in (unitary, lindblad, systems):
        assert a == a and a != b and len({a, b}) == 2


def test_lindblad_instability_detected(monkeypatch):
    # the qubit with the exact route's limit lowered below it, where
    # h beta = 2e8 is far past the one series of tau beta <= 1 a step that
    # the Taylor stepper takes: it is refused before the first
    monkeypatch.setattr(dynamics, "EXACT_MAX_DIM", 1)
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 1e9),))
    with pytest.raises(NumericError, match=r"^the Taylor stepper needs h beta <= 1, and the step h = 0\.1 has"
                                           r" h beta = 2e\+08 at hbar = 1\.0$"):
        evolve_lindblad_heisenberg(sigma_x, gen, PLUS, TimeGrid(1.0, 10))


def test_constant_rate_takes_exact_route(take_exact):
    # the former RK4 inputs, forced onto the exact propagator, which has no step-size error
    take_exact(2)
    gen = dephasing_generator(1.0)
    for steps in (100, 200):
        grid = TimeGrid(np.pi / 2, steps)
        traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid)
        assert np.abs(traj.expect - np.exp(-grid.times())).max() <= 1e-12


def test_exact_route_stable_at_huge_rate():
    gen = LindbladGenerator(H=np.zeros((2, 2)), jumps=((sigma_z, 1e9),))
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, TimeGrid(1.0, 10), probes=tuple(oracles.matrix_units(2)))
    for values in (oracles.samples_from_probes(traj), traj.expect, traj.stddev, traj.gen_speed_hs, traj.gen_speed_op):
        assert np.isfinite(values).all()


def test_hermiticity_preserved_all_kinds(rng):
    grid = TimeGrid(1.0, 200)
    rho = DensityState.pure(oracles.random_ket(rng, 2))
    O = oracles.random_hermitian(rng, 2)
    H = oracles.random_hermitian(rng, 2)
    unitary = evolve_unitary_heisenberg(O, UnitaryGenerator(H), rho, grid, probes=tuple(oracles.matrix_units(2)))
    lindblad = evolve_lindblad_heisenberg(O, random_lindblad(rng, 2), rho, grid, probes=tuple(oracles.matrix_units(2)))
    kraus = evolve_kraus_heisenberg(O, DephasingKraus(0.8), rho, grid, probes=tuple(oracles.matrix_units(2)))
    for Ot in [*oracles.samples_from_probes(unitary)[:: grid.steps // 4],
               *oracles.samples_from_probes(lindblad)[:: grid.steps // 4],
               *oracles.samples_from_probes(kraus)[[0, -1]]]:
        assert is_hermitian(Ot, 1e-8)


# ---------------------------------------------------------------------------
# Schrodinger picture and duality


def test_schrodinger_dephasing_off_diagonal_decay():
    gen = dephasing_generator(1.0)
    grid = TimeGrid(np.pi / 2, 1000)
    states = evolve_lindblad_schrodinger(PLUS, gen, grid)
    times = grid.times()
    errs = [
        abs(states[i].matrix[0, 1] - np.exp(-times[i]) / 2.0) for i in range(len(times))
    ]
    assert max(errs) <= 1e-8
    assert abs(np.trace(states[-1].matrix) - 1.0) <= 1e-10


def test_schrodinger_samples_validated_as_one_stack(recwarn):
    states = evolve_lindblad_schrodinger(PLUS, dephasing_generator(1.0), TimeGrid(1.0, 100))
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
    states = evolve_lindblad_schrodinger(rho0, gen, TimeGrid(1.0, 100))
    assert np.abs(states[-1].matrix - rho0.matrix).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**31 - 1))
def test_heisenberg_schrodinger_duality(dim, seed):
    r = np.random.default_rng(seed)
    gen = random_lindblad(r, dim)
    O = oracles.random_hermitian(r, dim)
    rho = DensityState.pure(oracles.random_ket(r, dim))
    grid = TimeGrid(1.0, 400)
    traj = evolve_lindblad_heisenberg(O, gen, rho, grid)
    states = evolve_lindblad_schrodinger(rho, gen, grid)
    lhs = np.array([np.trace(O @ s.matrix).real for s in states[:: grid.steps // 4]])
    rhs = traj.expect[:: grid.steps // 4]
    assert np.abs(lhs - rhs).max() <= 1e-6


# ---------------------------------------------------------------------------
# Kraus dynamics


def test_kraus_dephasing_matches_lindblad_solution():
    grid = TimeGrid(np.pi / 2, 1000)
    traj = evolve_kraus_heisenberg(sigma_x, DephasingKraus(1.0), PLUS, grid, probes=tuple(oracles.matrix_units(2)))
    times = grid.times()
    # O(t) = e^{-t} sigma_x: in |+>, <O(t)> = e^{-t} and dO(t) = 0
    assert np.abs(traj.expect - np.exp(-times)).max() <= 1e-9
    assert np.abs(traj.stddev**2).max() <= 1e-9
    Os = oracles.samples_from_probes(traj)
    for k in (0, -1):
        assert np.linalg.norm(Os[k] - np.exp(-times[k]) * sigma_x) <= 1e-9


def test_kraus_single_unitary_reproduces_unitary():
    fam = FunctionKraus(
        lambda t: [oracles.expm_hermitian_oracle(sigma_z, -1j * t)], dim=2, n_ops=1
    )
    grid = TimeGrid(1.0, 200)
    a = evolve_kraus_heisenberg(sigma_x, fam, PLUS, grid)
    b = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)
    assert np.abs(a.expect - b.expect).max() <= 1e-10


def test_kraus_identity_is_fixed_point():
    grid = TimeGrid(1.0, 100)
    traj = evolve_kraus_heisenberg(identity(2), DephasingKraus(1.3), PLUS, grid, probes=tuple(oracles.matrix_units(2)))
    assert np.abs(traj.expect - 1.0).max() <= 1e-12
    Os = oracles.samples_from_probes(traj)
    for k in (0, -1):
        assert np.abs(Os[k] - identity(2)).max() <= 1e-12


def test_kraus_grid_batch_matches_per_sample_route(rng):
    # a qutrit family K_i(t) = U(t) K_i(0) with U(t) = exp(-i t H): the
    # per-sample loop with kraus_derivative is the reference
    H = oracles.random_hermitian(rng, 3)
    Q, _ = np.linalg.qr(oracles.random_matrix(rng, 6))
    K0 = Q[:, :3].reshape(2, 3, 3)  # sum_i K_i^dag K_i = 1 from orthonormal columns
    fam = FunctionKraus(lambda t: oracles.expm_hermitian_oracle(H, -1j * t) @ K0, dim=3, n_ops=2)
    O = oracles.random_hermitian(rng, 3)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    grid = TimeGrid(0.9, 30)
    traj = evolve_kraus_heisenberg(O, fam, rho, grid, probes=tuple(oracles.matrix_units(3)))
    # the grid's exact domain: here t_29 + h rounds above t_30 = T, which must
    # not switch kraus_derivative to a one-sided difference at t_29
    lo, hi = 0.0, grid.T
    Os = _kraus_samples(fam, O, grid.times())
    assert np.abs(traj.expect - np.einsum("tab,ba->t", Os, rho.matrix).real).max() <= 1e-12
    assert np.abs(traj.stddev**2 - oracles.three_operand_stddev(Os, rho.matrix) ** 2).max() <= 1e-12
    samples = oracles.samples_from_probes(traj)
    assert np.abs(samples[0] - Os[0]).max() <= 1e-12 and np.abs(samples[-1] - Os[-1]).max() <= 1e-12
    for j, t in enumerate(grid.times()):
        K = fam.operators(t)
        Ms = [K[i].conj().T @ O @ kraus_derivative(fam, i, t, grid.h, t_min=lo, t_max=hi) for i in range(2)]
        assert traj.gen_speed_hs[j] == pytest.approx(sum(np.linalg.norm(M) for M in Ms), rel=1e-9)
        assert traj.gen_speed_op[j] == pytest.approx(
            sum(oracles.jacobi_singular_values(M)[0] for M in Ms), rel=1e-9
        )


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_op_norms_match_svd(rng, dim):
    # the scaled Gram-matrix operator norms against the batched SVD they replaced
    u, v = oracles.random_matrix(rng, dim)[:2]
    stacks = {
        "zero": np.zeros((4, 5, dim, dim), dtype=complex),
        "rank-1": np.array([[s * np.outer(u, v.conj()) for s in (1e-9, 1.0, 3e4)]]),
        "random": np.array([[oracles.random_matrix(rng, dim, s) for s in (1e-6, 1.0, 50.0)] for _ in range(4)]),
    }
    for name, X in stacks.items():
        got, ref = op_norm(X), np.linalg.svd(X, compute_uv=False)[..., 0]
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
        got = hermitian_op_norm(Y)
        assert abs(got - oracles.largest_abs_eigenvalue_2x2(Y)) <= 2 * np.spacing(got)
        # eigvalsh rescales a matrix below ~1e-146 by a factor that rounds,
        # so it gets the lower triangle scaled by a power of two
        low = np.tril(Y)
        k = np.frexp(np.abs(low).max())[1]
        w = np.ldexp(np.linalg.eigvalsh(np.ldexp(low.real, -k) + 1j * np.ldexp(low.imag, -k)), k)
        assert abs(got - max(-w[0], w[-1])) <= 16 * np.spacing(got)


def test_kraus_families_on_a_grid_match_per_time_calls():
    times = TimeGrid(3.0, 500).times()
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
    grid = TimeGrid(0.9, 30)
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
        evolve_kraus_heisenberg(sigma_x, bad, PLUS, TimeGrid(1.0, 2))


def test_tabulated_kraus_grid_alignment():
    fam = DephasingKraus(1.0)
    grid = TimeGrid(1.0, 4)
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
    grid, probes = TimeGrid(1.0, steps), (O @ rho.matrix,)
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
    traj.prefix(steps // 2), traj.trace_with(probes[0])
    # no sample stack and no O(t), at any time: of the (d, d) matrices, only
    # the declared probes and the unitary eigen data V, O~ and rho~, and what they view
    declared = [M for M, _ in traj.probes]
    if kind == "unitary":
        declared += [traj.vectors, traj.O_eig, traj.rho_eig]
    allowed = {id(a) for a in _reachable_arrays(declared, set())}
    held = [a.shape for a in _reachable_arrays(vars(traj), set()) if a.shape[-2:] == (dim, dim) and id(a) not in allowed]
    assert not held


def test_one_heisenberg_evolution_reads_the_dynamics_from_its_generator():
    assert evolve_unitary_heisenberg is evolve_lindblad_heisenberg is evolve_kraus_heisenberg
    # under any of its names, dephasing at rate 1 shrinks <X> to e^-t, by the master equation or the Kraus map
    grid = TimeGrid(1.0, 10)
    traj = evolve_unitary_heisenberg(sigma_x, dephasing_generator(1.0), PLUS, grid)
    assert traj.kind == "lindblad" and abs(traj.expect[-1] - math.exp(-1.0)) <= 1e-12
    traj = evolve_unitary_heisenberg(sigma_x, DephasingKraus(1.0), PLUS, grid)
    assert traj.kind == "kraus" and np.abs(traj.expect - np.exp(-grid.times())).max() <= 1e-12


@pytest.mark.parametrize("gen", [UnitaryGenerator(sigma_z), DephasingKraus(1.0)], ids=["unitary", "kraus"])
@pytest.mark.parametrize("entry", [evolve_lindblad_schrodinger, lindblad_final_state])
def test_the_state_picture_refuses_another_kind(entry, gen):
    with pytest.raises(ValidationError, match=f"^{entry.__name__} needs a lindblad generator, not a {gen.kind} one$"):
        entry(PLUS, gen, TimeGrid(1.0, 10))
