"""Scaling invariants of every applicable bound in the registry, each
evaluated through EvalContext and evaluate_all on small random systems
(d = 2-4, at most 400 steps):

* hbar: (H, hbar) -> (cH, c hbar), rates unchanged, leaves every T_qsl as it
  was, since the dynamics see only H / hbar;
* time: (H, rates, T) -> (cH, c rates, T / c) at the same step count
  divides every T_qsl by c;
* basis: conjugating H, O, B, rho and every jump or Kraus operator by one
  unitary V leaves every T_qsl as it was.

Each T_qsl is compared relative to max(T_qsl, T). Over 100 seeds of each
kind and d, the largest deviations were 9e-15 (either scaling) and 1e-13
(basis change, STATE_INDEP); the tolerances leave a margin of 100 over them.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    lindblad_final_state,
)
from oqsl.linalg import DensityState
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
    grid = TimeGrid(0.0, T, STEPS)
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
        final_state=lindblad_final_state,
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
        spec = SystemSpec(3, 1.0, "lindblad", scale * H, rho, {"A": A, "B": B}, (jump,))
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
