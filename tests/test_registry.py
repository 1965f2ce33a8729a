"""The bound registry and its evaluation context: table order, applicability,
memoization, and the end values of a second observable, read in the first
one's unitary eigenbasis."""

import io

import numpy as np
import pytest

import oqsl.cli
from oqsl import bounds
from oqsl.bounds import BOUND_IDS, REGISTRY, EvalContext, evaluate_all
from oqsl.dynamics import TimeGrid, evolve_unitary_heisenberg
from oqsl.linalg import DensityState, ValidationError, op_norm, sigma_x, sigma_z

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


def _unitary_context(O, H, rho, grid, **slots):
    """The unitary context of O, whose evolution keeps the probes it declares."""
    ctx = EvalContext(
        "unitary", grid, O, rho, lambda: evolve_unitary_heisenberg(O, H, rho, grid, probes=ctx.probes), H=H, **slots
    )
    return ctx


def test_second_observable_matches_its_own_evolution(rng):
    H, O, rho, grid = _unitary_case(rng)
    M = oracles.random_hermitian(rng, 4)
    ends = _unitary_context(O, H, rho, grid, self_inverse=M).ends(M)
    direct = evolve_unitary_heisenberg(M, H, rho, grid).expect
    assert np.abs(np.array(ends) - direct[[0, -1]]).max() <= 1e-14 * op_norm(M)
    # O itself is read from its own trajectory
    ctx = _unitary_context(O, H, rho, grid)
    assert ctx.ends(O) == ctx.ends() == (ctx.traj.expect[0], ctx.traj.expect[-1])


@pytest.mark.parametrize(
    "M",
    [np.array([[0, 1], [0, 0]], dtype=complex), np.array([[np.nan, 0], [0, 1]], dtype=complex), np.eye(3)],
    ids=["non-hermitian", "non-finite", "wrong-dim"],
)
def test_second_observable_keeps_the_input_checks(M):
    ctx = _unitary_context(sigma_x, sigma_z, DensityState.pure([1.0, 1.0]), TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValidationError):
        ctx.ends(M)


def test_context_evaluates_every_unitary_bound_without_samples(rng):
    H, O, rho, grid = _unitary_case(rng)
    P = DensityState.pure(oracles.random_ket(rng, 4)).matrix
    ctx = _unitary_context(O, H, rho, grid, B=oracles.random_hermitian(rng, 4), self_inverse=np.eye(4), projector=P)
    ids = [r.bound_id for r in evaluate_all(ctx)]
    assert ids == [b for b in BOUND_IDS if b not in ("DELCAMPO", "CORR_OPEN", "COMM_OPEN", "KRAUS")]
    # the unitary trajectory holds no per-sample matrices
    assert not any(isinstance(v, np.ndarray) and v.ndim == 3 for v in vars(ctx.traj).values())
    with pytest.raises(ValidationError, match="not applicable to this unitary system/observable: KRAUS"):
        bounds.select(ctx, ["PURITY_HS", "KRAUS"])


def test_context_memoizes_the_trajectory():
    calls = []
    rho, grid = DensityState.pure([1.0, 1.0]), TimeGrid(0.0, 1.0, 100)

    def evolve():
        calls.append(1)
        return evolve_unitary_heisenberg(sigma_x, sigma_z, rho, grid, probes=ctx.probes)

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


def test_probes_are_declared_by_the_bounds_that_read_them(rng):
    O, B = oracles.random_hermitian(rng, 3), oracles.random_hermitian(rng, 3)
    pure, grid = DensityState.pure(oracles.random_ket(rng, 3)), TimeGrid(0.0, 1.0, 10)
    corr, comm = EvalContext("lindblad", grid, O, pure, None, B=B).probes
    assert np.array_equal(corr, bounds.correlation_probe(O, pure))
    assert np.array_equal(comm, bounds.commutator_probe(B, pure))
    assert len(EvalContext("lindblad", grid, O, pure, None).probes) == 1
    # CORR_OPEN and COMM_OPEN need a pure state, like their closed twins
    assert EvalContext("lindblad", grid, O, oracles.maximally_mixed(3), None, B=B).probes == ()
    assert EvalContext("unitary", grid, O, oracles.maximally_mixed(3), None, H=O, B=B).probes == ()
    corr, comm = EvalContext("unitary", grid, O, pure, None, H=O, B=B).probes
    assert np.array_equal(corr, bounds.correlation_probe(O, pure))
    assert np.array_equal(comm, bounds.commutator_probe(B, pure))
    # the rate audit declares its probe last
    *_, rate = EvalContext("unitary", grid, O, pure, None, H=B, rates=True).probes
    assert np.array_equal(rate, 1j * (pure.matrix @ B - B @ pure.matrix))
