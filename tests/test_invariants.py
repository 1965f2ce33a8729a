"""Scaling invariants of every applicable bound in the registry, each
evaluated through EvalContext and evaluate_all on small random systems
(d = 2-4, at most 400 steps):

* hbar: (H, hbar) -> (cH, c hbar), rates unchanged, leaves every T_qsl as it
  was, since the dynamics see only H / hbar;
* time: (H, rates, T) -> (cH, c rates, T / c) at the same step count
  divides every T_qsl by c;
* basis: conjugating H, O, B, rho and every jump or Kraus operator by one
  unitary V leaves every T_qsl as it was.

A last test checks that every bound is valid (T_qsl <= T) on these systems,
whose B is drawn independently of O, so that the commutator bounds meet
pairs that do not commute at t = 0. The orderings between the unitary
bounds that hold by proof are checked on random unitary contexts (d = 2-5),
projector observables included:

* PURITY_HS <= GENERATOR_HS, since ||[H, O]||_HS <= 2 ||O H||_HS;
* MIN_NORM >= PURITY_HS on pure states, since ||O H||_op <= ||O H||_HS;
* BATTERY_CT2 == MIN_NORM bit for bit: both divide by ||O H||_op, the
  smallest of the operator, Hilbert-Schmidt and trace norms.

Each T_qsl is compared relative to max(T_qsl, T). Over 100 seeds of each
kind and d, the largest deviations were 9e-15 (either scaling) and 1e-13
(basis change, STATE_INDEP); the tolerances leave a margin of 100 over them.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqsl.bounds import EvalContext, evaluate_all
from oqsl.cli import main
from oqsl.dynamics import (
    DephasingKraus,
    LindbladGenerator,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_unitary_heisenberg,
)
from oqsl.linalg import DensityState, sigma_x, sigma_y
from oqsl.sysdl import SystemSpec, serialize_system

import oracles

STEPS = 400
SCALE_RTOL, BASIS_RTOL = 1e-12, 1e-11
KINDS = ("unitary", "lindblad", "kraus")
EVOLVE = {
    "unitary": evolve_unitary_heisenberg,
    "lindblad": evolve_lindblad_heisenberg,
    "kraus": evolve_kraus_heisenberg,
}


def random_system(kind, dim, seed):
    """The matrices of one random system: H, O, B, a ket, jumps at constant
    rates (Lindblad only), a dephasing strength (Kraus only, d = 2), and a
    reflection and a rank-one projector for the SELF_INVERSE and STATE_MT
    slots."""
    rng = np.random.default_rng(seed)
    dim = 2 if kind == "kraus" else dim
    H, O, B = (oracles.random_hermitian(rng, dim) for _ in range(3))
    ket = oracles.random_ket(rng, dim)
    n_jumps = 2 if kind == "lindblad" else 0
    jumps = tuple((oracles.random_matrix(rng, dim, 0.5), float(rng.uniform(0.1, 1.0))) for _ in range(n_jumps))
    Q, _ = np.linalg.qr(oracles.random_matrix(rng, dim))
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    reflection = (Q * signs) @ Q.conj().T
    projector = np.outer(Q[:, 0], Q[:, 0].conj())
    gamma = float(rng.uniform(0.2, 2.0))
    return dict(H=H, O=O, B=B, ket=ket, jumps=jumps, gamma=gamma, self_inverse=reflection, projector=projector)


def context(kind, system, hbar=1.0, T=1.0, V=None):
    """The context of system under the dynamics of its kind on [0, T], every
    operator conjugated by the unitary V when given."""
    conj = (lambda M: M) if V is None else (lambda M: V @ M @ V.conj().T)
    grid = TimeGrid(T, STEPS)
    if kind == "unitary":
        gen = UnitaryGenerator(conj(system["H"]), hbar=hbar)
    elif kind == "lindblad":
        jumps = tuple((conj(L), rate) for L, rate in system["jumps"])
        gen = LindbladGenerator(conj(system["H"]), jumps, hbar=hbar)
    elif V is None:
        gen = DephasingKraus(system["gamma"])
    else:
        times = grid.times()
        gen = TabulatedKraus(times, conj(DephasingKraus(system["gamma"]).operators(times)))
    ket = system["ket"] if V is None else V @ system["ket"]
    return EvalContext(
        gen,
        grid,
        conj(system["O"]),
        DensityState.pure(ket),
        EVOLVE[kind],
        B=conj(system["B"]),
        self_inverse=conj(system["self_inverse"]),
        projector=conj(system["projector"]),
        final_state=True,
    )


def assert_same_bounds(reports, expected, rtol, scale=1.0):
    """Every report names the same bound as its expected twin, with T_qsl
    equal to ``scale`` times the twin's within rtol."""
    assert [r.bound_id for r in reports] == [r.bound_id for r in expected]
    for r, e in zip(reports, expected):
        assert r.T_qsl == pytest.approx(scale * e.T_qsl, rel=rtol, abs=rtol * r.T), r.bound_id


DIMS, SEEDS, FACTORS = st.integers(2, 4), st.integers(0, 2**31 - 1), st.floats(0.2, 5.0)


@settings(max_examples=25, deadline=None)
# a Kraus family has no hbar
@given(kind=st.sampled_from(KINDS[:2]), dim=DIMS, seed=SEEDS, c=FACTORS)
def test_hbar_rescaling_leaves_every_bound_unchanged(kind, dim, seed, c):
    system = random_system(kind, dim, seed)
    reports = evaluate_all(context(kind, system))
    scaled = evaluate_all(context(kind, dict(system, H=c * system["H"]), hbar=c))
    assert_same_bounds(scaled, reports, SCALE_RTOL)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), dim=DIMS, seed=SEEDS, c=FACTORS)
def test_time_rescaling_divides_every_bound(kind, dim, seed, c):
    system = random_system(kind, dim, seed)
    reports = evaluate_all(context(kind, system))
    jumps = tuple((L, c * rate) for L, rate in system["jumps"])
    faster = dict(system, H=c * system["H"], jumps=jumps, gamma=c * system["gamma"])
    scaled = evaluate_all(context(kind, faster, T=1.0 / c))
    assert_same_bounds(scaled, reports, SCALE_RTOL, scale=1.0 / c)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), dim=DIMS, seed=SEEDS)
def test_basis_change_leaves_every_bound_unchanged(kind, dim, seed):
    system = random_system(kind, dim, seed)
    n = 2 if kind == "kraus" else dim
    V, _ = np.linalg.qr(oracles.random_matrix(np.random.default_rng(seed + 1), n))
    reports = evaluate_all(context(kind, system))
    assert_same_bounds(evaluate_all(context(kind, system, V=V)), reports, BASIS_RTOL)


def test_cli_hbar_with_doubled_hamiltonian_leaves_every_bound_unchanged(tmp_path, rng):
    # a Lindblad system whose correlation and commutator expectation both move
    H, A, B = (oracles.random_hermitian(rng, 3) for _ in range(3))
    jump = (oracles.random_matrix(rng, 3, 0.5), 0.4)
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    tables = []
    for scale, hbar in ((1.0, None), (2.0, "2")):
        spec = SystemSpec(LindbladGenerator(scale * H, (jump,)), rho, {"A": A, "B": B})
        path = tmp_path / f"h{scale}.sys"
        path.write_text(serialize_system(spec), encoding="utf-8")
        argv = ["bound", "--system", str(path), "--observable", "A", "--observable-b", "B", "--tmax", "1.0"]
        argv += ["--bounds", "ALL", "--format", "json"] + (["--hbar", hbar] if hbar else [])
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, out=out, err=err) == 0, err.getvalue()
        tables.append({r["bound_id"]: r["T_qsl"] for r in json.loads(out.getvalue())["reports"]})
    assert {"CORR_OPEN", "COMM_OPEN"} <= tables[0].keys()
    assert tables[0]["CORR_OPEN"] > 0.01 and tables[0]["COMM_OPEN"] > 0.01
    assert tables[1].keys() == tables[0].keys()
    for bound_id, value in tables[0].items():
        assert tables[1][bound_id] == pytest.approx(value, rel=SCALE_RTOL), bound_id


# a qubit whose commutator expectation <[B, A]> is already 1.65 at t = 0: at
# hbar = 2, dividing |<[B, A](T)>| in place of its change gives 1.596 > T = 1
NONCOMMUTING_QUBIT = dict(
    random_system("unitary", 2, 0),
    H=np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.4]]),
    O=sigma_x,
    B=sigma_y,
    ket=np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)]),
)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), dim=DIMS, seed=SEEDS, T=st.floats(0.05, 2.0))
@example(kind="unitary", dim=2, seed=None, T=1.0)
def test_every_bound_is_valid_on_random_pairs(kind, dim, seed, T):
    # seed None stands for NONCOMMUTING_QUBIT at hbar = 2
    system = NONCOMMUTING_QUBIT if seed is None else random_system(kind, dim, seed)
    reports = evaluate_all(context(kind, system, hbar=2.0 if seed is None else 1.0, T=T))
    assert [r.bound_id for r in reports if not r.valid] == []


def unitary_context(dim, seed, observable, pure, ids):
    """The unitary context of random_system's H at T = 1, in its pure state
    or a random mixed one, for the observable O, the random rank-one
    projector, or the projector of the state's ket."""
    system = random_system("unitary", dim, seed)
    ket = system["ket"]
    O = np.outer(ket, ket.conj()) if observable == "state projector" else system[observable]
    if pure:
        rho = DensityState.pure(ket)
    else:
        W = oracles.random_matrix(np.random.default_rng(seed + 1), dim)
        rho = DensityState.from_matrix(W @ W.conj().T / np.trace(W @ W.conj().T).real)
    gen = UnitaryGenerator(system["H"])
    return EvalContext(gen, TimeGrid(1.0, STEPS), O, rho, evolve_unitary_heisenberg, ids=ids)


ORDER_DIMS, OBSERVABLES = st.integers(2, 5), st.sampled_from(["O", "projector", "state projector"])


@settings(max_examples=50, deadline=None)
@given(dim=ORDER_DIMS, seed=SEEDS, observable=OBSERVABLES, pure=st.booleans())
def test_purity_hs_is_at_most_generator_hs(dim, seed, observable, pure):
    ctx = unitary_context(dim, seed, observable, pure, ("PURITY_HS", "GENERATOR_HS"))
    purity_hs, generator_hs = (r.T_qsl for r in evaluate_all(ctx))
    assert purity_hs <= generator_hs * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(dim=ORDER_DIMS, seed=SEEDS, observable=OBSERVABLES)
def test_min_norm_is_at_least_purity_hs_on_pure_states(dim, seed, observable):
    ctx = unitary_context(dim, seed, observable, True, ("MIN_NORM", "PURITY_HS"))
    min_norm, purity_hs = (r.T_qsl for r in evaluate_all(ctx))
    assert min_norm >= purity_hs * (1 - 1e-12)


@settings(max_examples=50, deadline=None)
@given(dim=ORDER_DIMS, seed=SEEDS, observable=OBSERVABLES)
@example(dim=2, seed=1, observable="state projector")
def test_battery_ct2_equals_min_norm(dim, seed, observable):
    # for a rank-one O H the three norms agree, and rounding may put its
    # Hilbert-Schmidt norm below the operator norm: the minimum of the three
    # then differed from MIN_NORM in the last digits
    ctx = unitary_context(dim, seed, observable, True, ("MIN_NORM", "BATTERY_CT2"))
    min_norm, battery_ct2 = (r.T_qsl for r in evaluate_all(ctx))
    assert battery_ct2 == min_norm
