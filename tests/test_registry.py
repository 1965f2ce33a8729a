"""The bound registry and its evaluation context: table order, applicability,
memoization, and the end values of a second observable, read in the first
one's unitary eigenbasis."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

import oqsl.cli
from oqsl import bounds
from oqsl.bounds import BOUND_IDS, REGISTRY, EvalContext, evaluate_all
from oqsl.dynamics import (
    LindbladGenerator,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,
    evolve_unitary_heisenberg,
)
from oqsl.linalg import DensityState, ValidationError, op_norm, sigma_x, sigma_z
from oqsl.sysdl import parse_system

import oracles

DEPHASING = "src/oqsl/systems/dephasing.sys"
TIGHT_QUBIT = "src/oqsl/systems/tight_qubit.sys"


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
    return EvalContext(UnitaryGenerator(H), grid, O, rho, evolve_unitary_heisenberg, **slots)


def test_second_observable_matches_its_own_evolution(rng):
    H, O, rho, grid = _unitary_case(rng)
    M = oracles.random_hermitian(rng, 4)
    ends = _unitary_context(O, H, rho, grid, self_inverse=M).ends(M)
    direct = evolve_unitary_heisenberg(M, UnitaryGenerator(H), rho, grid).expect
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
        bounds.select(_unitary_context(O, H, rho, grid, ids=("PURITY_HS", "KRAUS")))


def test_context_memoizes_the_trajectory():
    calls = []
    rho, grid = DensityState.pure([1.0, 1.0]), TimeGrid(0.0, 1.0, 100)

    def evolve(*args, **kwargs):
        calls.append(1)
        return evolve_unitary_heisenberg(*args, **kwargs)

    ctx = EvalContext(UnitaryGenerator(sigma_z), grid, sigma_x, rho, evolve, self_inverse=sigma_x)
    evaluate_all(ctx)
    assert len(calls) == 1


def test_context_reads_hbar_from_its_generator_as_the_cli_does():
    # hbar is stated once, by the generator, which every bound reads through the context
    argv = ["bound", "--system", TIGHT_QUBIT, "--observable", "O", "--tmax", "1", "--hbar", "2", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    assert oqsl.cli.main(argv, out=out, err=err) == 0, err.getvalue()
    reports = json.loads(out.getvalue())["reports"]
    printed = [(r["bound_id"], r["T_qsl"], r["inputs_digest"], r["details"]) for r in reports]
    spec = parse_system(Path(TIGHT_QUBIT).read_text())
    gen, grid = UnitaryGenerator(sigma_z, hbar=2.0), TimeGrid(0.0, 1.0, 1000)
    ctx = EvalContext(gen, grid, sigma_x, spec.initial_state, evolve_unitary_heisenberg, self_inverse=sigma_x)
    assert ctx.hbar == 2.0 and ctx.H is gen.H
    assert [(r.bound_id, r.T_qsl, r.inputs_digest, r.details) for r in evaluate_all(ctx)] == printed
    at_one = EvalContext(UnitaryGenerator(sigma_z), grid, sigma_x, spec.initial_state, evolve_unitary_heisenberg)
    assert evaluate_all(at_one)[0].T_qsl != printed[0][1]


def test_context_kind_follows_its_generator():
    grid, rho = TimeGrid(0.0, 1.0, 20), DensityState.pure([1.0, 1.0])
    ops = np.broadcast_to(np.sqrt(0.5) * np.stack([np.eye(2), sigma_z]), (21, 2, 2, 2))
    ctx = EvalContext(TabulatedKraus(grid.times(), ops), grid, sigma_x, rho, evolve_kraus_heisenberg)
    assert ctx.kind == "kraus" and [s.id for s in bounds.select(ctx)] == ["KRAUS"]
    [report] = evaluate_all(ctx)
    assert report.bound_id == "KRAUS" and report.valid
    # an evolution of another kind than the generator's is refused
    wrong = EvalContext(LindbladGenerator(sigma_z), grid, sigma_x, rho, evolve_unitary_heisenberg)
    with pytest.raises(ValidationError, match="a unitary evolution does not follow a lindblad generator"):
        wrong.traj


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


TWO_QUBIT = "src/oqsl/systems/two_qubit.sys"


def _declared_probes(monkeypatch, argv):
    """The exit code of ``oqsl.cli.main(argv)``, its stderr, and the probes
    it declares to each evolution it starts."""
    declared = []
    for name in ("evolve_unitary_heisenberg", "evolve_lindblad_heisenberg"):

        def spy(*args, fn=getattr(oqsl.cli, name), probes=(), **kwargs):
            declared.append(list(probes))
            return fn(*args, probes=probes, **kwargs)

        monkeypatch.setattr(oqsl.cli, name, spy)
    err = io.StringIO()
    code = oqsl.cli.main(argv, out=io.StringIO(), err=err)
    return code, err.getvalue(), declared


@pytest.mark.parametrize("system,obs", [(TWO_QUBIT, "A"), (DEPHASING, "O")], ids=["unitary", "lindblad"])
def test_cli_declares_only_the_probes_of_the_selected_bounds(monkeypatch, system, obs):
    argv = ["bound", "--system", system, "--observable", obs, "--tmax", "1", "--bounds", "GENERATOR_HS"]
    code, err, declared = _declared_probes(monkeypatch, argv)
    assert code == 0, err
    assert declared == [[]]


def test_cli_declares_the_commutator_probe_alone(monkeypatch):
    argv = ["bound", "--system", TWO_QUBIT, "--observable", "A", "--observable-b", "B", "--tmax", "1"]
    code, err, declared = _declared_probes(monkeypatch, argv + ["--bounds", "COMM_CLOSED"])
    assert code == 0, err
    spec = parse_system(Path(TWO_QUBIT).read_text())
    [[probe]] = declared
    assert np.array_equal(probe, bounds.commutator_probe(spec.observable("B"), spec.initial_state))


def test_cli_rejects_observable_b_that_no_selected_bound_reads(monkeypatch):
    argv = ["bound", "--system", TWO_QUBIT, "--observable", "A", "--observable-b", "B", "--tmax", "1"]
    code, err, declared = _declared_probes(monkeypatch, argv + ["--bounds", "GENERATOR_HS"])
    assert code == 2 and declared == []
    assert "--observable-b" in err and "--bounds selects neither" in err


def test_probes_are_declared_by_the_bounds_that_read_them(rng):
    O, B = oracles.random_hermitian(rng, 3), oracles.random_hermitian(rng, 3)
    pure, grid = DensityState.pure(oracles.random_ket(rng, 3)), TimeGrid(0.0, 1.0, 10)
    lindblad, unitary = LindbladGenerator(O), UnitaryGenerator(O)
    corr, comm = EvalContext(lindblad, grid, O, pure, None, B=B).probes
    assert np.array_equal(corr, bounds.correlation_probe(O, pure))
    assert np.array_equal(comm, bounds.commutator_probe(B, pure))
    assert len(EvalContext(lindblad, grid, O, pure, None).probes) == 1
    # CORR_OPEN and COMM_OPEN need a pure state, like their closed twins
    assert EvalContext(lindblad, grid, O, oracles.maximally_mixed(3), None, B=B).probes == ()
    assert EvalContext(unitary, grid, O, oracles.maximally_mixed(3), None, B=B).probes == ()
    corr, comm = EvalContext(unitary, grid, O, pure, None, B=B).probes
    assert np.array_equal(corr, bounds.correlation_probe(O, pure))
    assert np.array_equal(comm, bounds.commutator_probe(B, pure))
    # the rate audit declares its probe last
    *_, rate = EvalContext(UnitaryGenerator(B), grid, O, pure, None, rates=True).probes
    assert np.array_equal(rate, 1j * (pure.matrix @ B - B @ pure.matrix))
