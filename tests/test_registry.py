"""The bound registry and its evaluation context: table order, applicability,
memoization, and the unitary trajectory of a second observable over the
first one's eigenbasis."""

import io

import numpy as np
import pytest

import oqsl.cli
from oqsl import bounds
from oqsl.bounds import BOUND_IDS, REGISTRY, EvalContext, evaluate_all
from oqsl.dynamics import TimeGrid, evolve_unitary_heisenberg
from oqsl.linalg import DensityState, ValidationError, sigma_x, sigma_z

import oracles

DEPHASING = "src/oqsl/systems/dephasing.sys"


def test_bound_ids_follow_the_table():
    assert BOUND_IDS == tuple(s.id for s in REGISTRY)
    assert BOUND_IDS == (
        "MT_INTEGRAL", "STATE_MT", "SELF_INVERSE", "PURITY_HS", "GENERATOR_HS", "DELCAMPO", "STATE_INDEP",
        "MIN_NORM", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED", "CORR_OPEN", "COMM_CLOSED", "COMM_OPEN", "KRAUS",
    )


def _unitary_case(rng, dim=4):
    H = oracles.random_hermitian(rng, dim)
    O = oracles.random_hermitian(rng, dim)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    return H, O, rho, TimeGrid(0.0, 1.0, 200)


def test_second_observable_matches_its_own_evolution(rng):
    H, O, rho, grid = _unitary_case(rng)
    M = oracles.random_hermitian(rng, 4)
    via_basis = evolve_unitary_heisenberg(O, H, rho, grid).observable(M)
    direct = evolve_unitary_heisenberg(M, H, rho, grid)
    for field in ("expect", "stddev", "gen_speed_hs", "gen_speed_op"):
        assert np.array_equal(getattr(via_basis, field), getattr(direct, field))
    assert np.array_equal(via_basis.trace_with(O), direct.trace_with(O))


@pytest.mark.parametrize(
    "M",
    [np.array([[0, 1], [0, 0]], dtype=complex), np.array([[np.nan, 0], [0, 1]], dtype=complex), np.eye(3)],
    ids=["non-hermitian", "non-finite", "wrong-dim"],
)
def test_second_observable_keeps_the_input_checks(M):
    traj = evolve_unitary_heisenberg(sigma_x, sigma_z, DensityState.pure([1.0, 1.0]), TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValidationError):
        traj.observable(M)


def test_context_evaluates_every_unitary_bound_without_samples(rng):
    H, O, rho, grid = _unitary_case(rng)
    P = DensityState.pure(oracles.random_ket(rng, 4)).matrix
    ctx = EvalContext(
        "unitary", grid, O, rho, lambda: evolve_unitary_heisenberg(O, H, rho, grid),
        H=H, B=oracles.random_hermitian(rng, 4), self_inverse=np.eye(4), projector=P,
    )
    ids = [r.bound_id for r in evaluate_all(ctx)]
    assert ids == [b for b in BOUND_IDS if b not in ("DELCAMPO", "CORR_OPEN", "COMM_OPEN", "KRAUS")]
    # the unitary trajectory never formed its per-sample matrices
    assert ctx.traj._samples is None
    with pytest.raises(ValidationError, match="not applicable to this unitary system/observable: KRAUS"):
        bounds.select(ctx, ["PURITY_HS", "KRAUS"])


def test_context_memoizes_the_trajectory():
    calls = []
    rho, grid = DensityState.pure([1.0, 1.0]), TimeGrid(0.0, 1.0, 100)

    def evolve():
        calls.append(1)
        return evolve_unitary_heisenberg(sigma_x, sigma_z, rho, grid)

    ctx = EvalContext("unitary", grid, sigma_x, rho, evolve, H=sigma_z, self_inverse=sigma_x)
    evaluate_all(ctx)
    assert len(calls) == 1


def _counting(monkeypatch, module, name, calls, fail=False):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        if fail:
            raise AssertionError(f"{name} called")
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cli_delcampo_evolves_the_state_once_and_the_observable_never(monkeypatch):
    # DELCAMPO reads only rho(T): no Schrodinger trajectory is built
    calls = []
    _counting(monkeypatch, oqsl.cli, "lindblad_final_state", calls)
    _counting(monkeypatch, oqsl.cli, "evolve_lindblad_schrodinger", calls, fail=True)
    _counting(monkeypatch, oqsl.cli, "evolve_lindblad_heisenberg", calls, fail=True)
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--system", DEPHASING, "--observable", "O", "--tmax", "1", "--bounds", "DELCAMPO,DELCAMPO"]
    assert oqsl.cli.main(argv, out=out, err=err) == 0, err.getvalue()
    assert calls == ["lindblad_final_state"]
    assert [line.split(",")[0] for line in out.getvalue().splitlines()[1:]] == ["DELCAMPO", "DELCAMPO"]


def test_cli_rejects_inapplicable_bound_before_evolving(monkeypatch):
    _counting(monkeypatch, oqsl.cli, "evolve_lindblad_heisenberg", [], fail=True)
    err = io.StringIO()
    argv = ["bound", "--system", DEPHASING, "--observable", "O", "--tmax", "1", "--bounds", "GENERATOR_HS,MT_INTEGRAL"]
    assert oqsl.cli.main(argv, out=io.StringIO(), err=err) == 2
    assert "not applicable to this lindblad system/observable: MT_INTEGRAL" in err.getvalue()
