import gc
import importlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oqsl
from oqsl import audit, dynamics
from oqsl.cli import TOL_FLOOR, main
from oqsl.dynamics import (
    EXACT_MAX_DIM,
    DephasingKraus,
    LindbladGenerator,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    evolve_lindblad_heisenberg,
)
from oqsl.linalg import DensityState
from oqsl.scenarios import SCENARIOS
from oqsl.sysdl import SystemSpec, parse_system, serialize_system

from oracles import builtin_text

DEPHASING = "src/oqsl/systems/dephasing.sys"
TIGHT = "src/oqsl/systems/tight_qubit.sys"
SYSTEMS = Path(oqsl.__file__).parent / "systems"


@pytest.fixture
def dephasing_path(tmp_path):
    p = tmp_path / "dephasing.sys"
    p.write_text(builtin_text("dephasing"))
    return str(p)


@pytest.fixture
def tight_path(tmp_path):
    p = tmp_path / "tight_qubit.sys"
    p.write_text(builtin_text("tight_qubit"))
    return str(p)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# bound command


def test_bound_all_on_dephasing(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.5708", "--bounds", "ALL"]
    )
    assert code == 0, err
    rows = {r["bound_id"]: r for r in parse_csv(out)}
    assert set(rows) == {"GENERATOR_HS", "DELCAMPO", "STATE_INDEP", "CORR_OPEN"}
    assert float(rows["GENERATOR_HS"]["T_qsl"]) == pytest.approx(1.1107, abs=5e-4)
    assert all(r["valid"] == "true" for r in rows.values())


def test_bound_self_inverse_single_row(tight_path):
    code, out, err = run_cli(
        [
            "bound",
            "--system",
            tight_path,
            "--observable",
            "O",
            "--tmax",
            repr(np.pi / 2),
            "--bounds",
            "SELF_INVERSE",
        ]
    )
    assert code == 0, err
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["T_qsl"]) == pytest.approx(np.pi / 2, abs=1e-9)


def test_bound_all_on_tight_includes_battery(tight_path):
    code, out, err = run_cli(
        ["bound", "--system", tight_path, "--observable", "O", "--tmax", "1.0", "--steps", "2000"]
    )
    assert code == 0, err
    ids = {r["bound_id"] for r in parse_csv(out)}
    assert {"MT_INTEGRAL", "SELF_INVERSE", "PURITY_HS", "MIN_NORM", "GENERATOR_HS",
            "STATE_INDEP", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED"} <= ids
    assert "STATE_MT" not in ids  # sigma_x is not a projector


def test_bound_all_on_tight_readme_horizon_passes(tight_path):
    # the README horizon sits 3e-8 below pi / 2, inside the tight bounds' reach
    code, out, err = run_cli(
        ["bound", "--system", tight_path, "--observable", "O", "--tmax", "1.5707963",
         "--bounds", "ALL", "--format", "json"]
    )
    assert code == 0, err
    reports = {r["bound_id"]: r for r in json.loads(out)["reports"]}
    assert reports["MT_INTEGRAL"]["T_qsl"] == pytest.approx(np.pi / 2, abs=1e-5)
    assert reports["BATTERY_CT1"]["T_qsl"] == reports["MT_INTEGRAL"]["T_qsl"]


def test_bound_all_evolves_once_and_matches_battery_bounds(monkeypatch, tmp_path):
    import oqsl.bounds
    import oqsl.cli

    calls = []
    evolve = oqsl.cli.evolve_unitary_heisenberg

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    for module in (oqsl.cli, oqsl.bounds):
        monkeypatch.setattr(module, "evolve_unitary_heisenberg", counted)
    p = tmp_path / "battery.sys"
    p.write_text(builtin_text("battery"))
    code, out, err = run_cli(
        ["bound", "--system", str(p), "--observable", "HB", "--tmax", "1.0", "--format", "json"]
    )
    assert code == 0, err
    assert len(calls) == 1
    reports = {r["bound_id"]: r for r in json.loads(out)["reports"]}
    spec = parse_system(builtin_text("battery"))
    HB = spec.observable("HB")
    ct1, ct2 = oqsl.bounds.battery_bounds(HB, spec.generator.H - HB, spec.initial_state, TimeGrid(1.0, 1000))
    assert reports["BATTERY_CT1"]["T_qsl"] == pytest.approx(ct1.T_qsl, rel=1e-12)
    assert reports["BATTERY_CT2"]["T_qsl"] == pytest.approx(ct2.T_qsl, rel=1e-12)
    assert reports["BATTERY_CT2"]["inputs_digest"] == ct2.inputs_digest


def test_bound_commutator_needs_partner(tmp_path):
    p = tmp_path / "two_qubit.sys"
    p.write_text(builtin_text("two_qubit"))
    code, out, err = run_cli(
        ["bound", "--system", str(p), "--observable", "A", "--tmax", "1.0", "--bounds", "COMM_CLOSED"]
    )
    assert code == 2
    code, out, err = run_cli(
        [
            "bound", "--system", str(p), "--observable", "A", "--observable-b", "B",
            "--tmax", "1.0", "--steps", "600", "--bounds", "COMM_CLOSED",
        ]
    )
    assert code == 0, err
    row, = parse_csv(out)
    assert row["valid"] == "true"


# the --bounds ALL report order on each built-in system, at the benchmark's
# observables and horizons: the registry's table order, filtered
UNITARY_PURE = ["PURITY_HS", "GENERATOR_HS", "STATE_INDEP", "MIN_NORM", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED"]
REPORT_ORDER = [
    ("dephasing", "O", None, "1.5708", ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP", "CORR_OPEN"]),
    ("kraus_dephasing", "O", None, "1.5708", ["KRAUS"]),
    ("battery", "HB", None, "1.0", ["MT_INTEGRAL", "SELF_INVERSE"] + UNITARY_PURE),
    ("qutrit_decay", "N", None, "1.0", ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP"]),
    ("two_qubit", "A", None, "1.0", UNITARY_PURE),
    ("two_qubit", "A", "B", "1.0", UNITARY_PURE + ["COMM_CLOSED"]),
    ("tight_qubit", "O", None, "1.5707963", ["MT_INTEGRAL", "SELF_INVERSE"] + UNITARY_PURE),
]


def _bound_argv(name, obs, obs_b, tmax, *extra):
    argv = ["bound", "--system", str(SYSTEMS / f"{name}.sys"), "--observable", obs, "--tmax", tmax]
    return argv + (["--observable-b", obs_b] if obs_b else []) + list(extra)


@pytest.mark.parametrize(
    "name,obs,obs_b,tmax,expected", REPORT_ORDER, ids=[f"{c[0]}{'+B' if c[2] else ''}" for c in REPORT_ORDER]
)
def test_bound_all_report_order(name, obs, obs_b, tmax, expected):
    code, out, err = run_cli(_bound_argv(name, obs, obs_b, tmax, "--bounds", "ALL"))
    assert code == 0 and err == "", err
    assert [r["bound_id"] for r in parse_csv(out)] == expected


@pytest.mark.parametrize("name,obs,obs_b,tmax,expected", REPORT_ORDER[2:4], ids=["battery", "qutrit_decay"])
def test_bound_explicit_list_keeps_its_order(name, obs, obs_b, tmax, expected):
    wanted = expected[::-1]
    code, out, err = run_cli(_bound_argv(name, obs, obs_b, tmax, "--bounds", ",".join(wanted)))
    assert code == 0, err
    assert [r["bound_id"] for r in parse_csv(out)] == wanted
    # a bound that does not apply is named, whatever its place in the list
    other = "KRAUS"
    code, out, err = run_cli(_bound_argv(name, obs, obs_b, tmax, "--bounds", f"{wanted[0]},{other}"))
    assert code == 2 and out == ""
    kind = parse_system(builtin_text(name)).generator.kind
    assert f"bound(s) not applicable to this {kind} system/observable: {other}" in err


@pytest.mark.parametrize(
    "name,obs,obs_b",
    [("kraus_dephasing", "O", "O"), ("qutrit_decay", "N", "C")],
    ids=["kraus", "mixed-state"],
)
def test_bound_observable_b_without_commutator_bound_rejected(name, obs, obs_b):
    code, out, err = run_cli(_bound_argv(name, obs, obs_b, "1", "--bounds", "ALL"))
    assert code == 2 and out == ""
    assert "--observable-b feeds only COMM_CLOSED/COMM_OPEN" in err and "pure state" in err


@pytest.mark.parametrize("jump", ["", "[jump]\npauli = 1.0 Z\nrate = 0.1\n"], ids=["unitary", "lindblad"])
def test_bound_tol_reaches_the_generator(jump, tmp_path):
    # a Hamiltonian Hermitian only within --tol parses, so it must also evolve
    p = tmp_path / "loose.sys"
    p.write_text(
        "[system]\ndim = 2\n[hamiltonian]\nmatrix = [[1, 0.5+1e-7i], [0.5, -1]]\n"
        f"[state]\nket = [1, 0]\n{jump}[observable O]\npauli = 1.0 X\n"
    )
    argv = ["bound", "--system", str(p), "--observable", "O", "--tmax", "1", "--bounds", "GENERATOR_HS"]
    code, out, err = run_cli(argv + ["--tol", "1e-6"])
    assert code == 0, err
    code, out, err = run_cli(argv)
    assert code == 2 and "not Hermitian" in err


def test_battery_ct1_is_stationary_where_mt_integral_does_not_apply(tmp_path):
    # dH = 1e-7 lies between the default tolerance and 1e-6: at either --tol
    # BATTERY_CT1 reads the spread as MT_INTEGRAL does, not as a tolerance
    p = tmp_path / "near_stationary.sys"
    p.write_text(
        "[system]\ndim = 2\n[hamiltonian]\nmatrix = [[1, 1e-7], [1e-7, -1]]\n"
        "[state]\nket = [1, 0]\n[observable O]\npauli = 1.0 X\n"
    )
    argv = ["bound", "--system", str(p), "--observable", "O", "--tmax", "1", "--format", "json"]
    for tol in ("1e-9", "1e-6"):
        code, out, err = run_cli(argv + ["--bounds", "MT_INTEGRAL,BATTERY_CT1", "--tol", tol])
        assert code == 0, err
        mt, ct1 = json.loads(out)["reports"]
        assert ct1["bound_id"] == "BATTERY_CT1" and ct1["T_qsl"] == mt["T_qsl"] > 0
        assert ct1["details"] == mt["details"]


@pytest.mark.parametrize("tmax", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["bound", "evolve"])
def test_a_horizon_that_is_not_positive_is_named(command, tmax, dephasing_path):
    code, out, err = run_cli([command, "--system", dephasing_path, "--observable", "O", "--tmax", tmax])
    assert (code, out) == (2, "")
    assert err == f"error: the horizon T must be positive and finite, got {float(tmax)!r}\n"


# a tabulated Kraus family whose completeness defect (1.0000001^2 - 1) lies
# between the default tolerance and 1e-6
KRAUS_DEFECT = "[system]\ndim = 2\nkind = kraus\n[state]\nket = [1, 0]\n[observable O]\npauli = 1.0 X\n" \
    "[kraus]\nfamily = tabulated\n" + "".join(
        f"time = {t}\nK = [[1.0000001, 0], [0, 1.0000001]]\nK = [[0, 0], [0, 0]]\n" for t in ("0.0", "0.5", "1.0"))


def test_kraus_completeness_is_checked_within_tol_and_names_a_float_time(tmp_path):
    p = tmp_path / "kraus_defect.sys"
    p.write_text(KRAUS_DEFECT)
    argv = ["bound", "--system", str(p), "--observable", "O", "--tmax", "1", "--steps", "2"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: Kraus completeness violated at t=0.0 (defect 2.000e-07)\n"
    code, out, err = run_cli(argv + ["--tol", "1e-6"])
    assert code == 0, err


def test_bound_all_with_mixed_state_skips_pure_only_bounds(tmp_path):
    p = tmp_path / "mixed.sys"
    p.write_text(
        "[system]\ndim = 2\n[hamiltonian]\npauli = 1.0 Z\n"
        "[state]\nmatrix = [[0.6, 0], [0, 0.4]]\n[observable O]\npauli = 1.0 X\n"
    )
    code, out, err = run_cli(
        ["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0", "--steps", "600"]
    )
    assert code == 0, err
    ids = {r["bound_id"] for r in parse_csv(out)}
    assert "MIN_NORM" not in ids and "BATTERY_CT1" not in ids and "CORR_CLOSED" not in ids
    assert {"MT_INTEGRAL", "SELF_INVERSE", "PURITY_HS", "GENERATOR_HS", "STATE_INDEP"} <= ids


def test_bound_missing_observable_flag(dephasing_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["bound", "--system", dephasing_path, "--tmax", "1.0"], out=io.StringIO(), err=io.StringIO())
    assert exc_info.value.code == 2


def test_bound_unknown_observable_name(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "Q", "--tmax", "1.0"]
    )
    assert code == 2
    assert "unknown observable" in err


def test_bound_unknown_bound_id(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0", "--bounds", "NOPE"]
    )
    assert code == 2
    assert "unknown bound id" in err


def test_bound_unknown_id_beside_all_is_not_dropped(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0", "--bounds", "ALL,NOSUCH"]
    )
    assert (code, out) == (2, "")
    assert "unknown bound id(s): NOSUCH" in err


def test_bound_id_beside_all_is_not_dropped(tight_path):
    code, out, err = run_cli(
        ["bound", "--system", tight_path, "--observable", "O", "--tmax", "1.0", "--bounds", "ALL,MT_INTEGRAL"]
    )
    assert (code, out) == (2, "")
    assert "--bounds ALL names every bound" in err


def test_bound_named_twice_is_not_repeated(tight_path):
    code, out, err = run_cli(
        ["bound", "--system", tight_path, "--observable", "O", "--tmax", "1.0", "--bounds", "MT_INTEGRAL,MT_INTEGRAL"]
    )
    assert (code, out) == (2, "")
    assert "bound(s) named more than once: MT_INTEGRAL" in err


def test_bound_inapplicable_bound_rejected(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0", "--bounds", "MT_INTEGRAL"]
    )
    assert code == 2
    assert "not applicable" in err


def test_bound_parse_failure_exit_2(tmp_path):
    p = tmp_path / "broken.sys"
    p.write_text("[system]\ndim = 2\n[state]\nket = [1, 0]\n[jump]\nrate = -2\npauli = 1.0 Z\n")
    code, out, err = run_cli(["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0"])
    assert code == 2
    assert "broken.sys" in err and ":6:" in err


def test_bound_numeric_failure_exit_3(tmp_path):
    # .sys rates are constant, so the stiff jump is put on the smallest qubit
    # register above the exact route's limit, and on d = 16, which the exact
    # propagator once took: its step has h beta = 2e8, past the one series of
    # tau beta <= 1 that the Taylor stepper's guard allows a step
    for n in (EXACT_MAX_DIM.bit_length(), 4):
        dim = 2**n
        text = (
            f"[system]\ndim = {dim}\n[state]\nket = [" + ", ".join(["1"] * dim) + "]\n"
            f"[jump]\npauli = 1.0 Z{'I' * (n - 1)}\nrate = 1e9\n[observable O]\npauli = 1.0 X{'I' * (n - 1)}\n"
        )
        assert parse_system(text).generator.dim > EXACT_MAX_DIM
        p = tmp_path / "stiff.sys"
        p.write_text(text)
        code, out, err = run_cli(
            ["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0", "--steps", "10"]
        )
        assert code == 3
        assert f"numeric error: {STEPPER} h = 0.1 has h beta = 2e+08 at hbar = 1.0" in err


def test_bound_stiff_constant_rate_takes_exact_route(tmp_path):
    # the same stiff rate on a qubit is evolved exactly, with no step-size limit
    p = tmp_path / "stiff.sys"
    p.write_text(
        "[system]\ndim = 2\n[state]\nket = [0.70710678, 0.70710678]\n"
        "[jump]\npauli = 1.0 Z\nrate = 1e9\n[observable O]\npauli = 1.0 X\n"
    )
    code, out, err = run_cli(
        ["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0", "--steps", "10", "--format", "json"]
    )
    assert code == 0, err
    reports = json.loads(out)["reports"]
    assert reports and all(np.isfinite(r["T_qsl"]) for r in reports)


STIFF_QUTRIT = ["--system", str(SYSTEMS / "qutrit_decay.sys"), "--observable", "N", "--tmax", "100", "--steps", "10"]


def _route_fails(monkeypatch, route):
    def fail(*args, **kwargs):
        raise AssertionError(f"{route} was taken")

    monkeypatch.setattr(dynamics, route, fail)


def test_the_lindblad_route_follows_the_cell_length(tmp_path, monkeypatch):
    # at d <= EXACT_MAX_DIM a grid takes the Taylor cells where each spans at
    # least CELL_MIN_STEPS steps: dephasing.sys on 1000 steps to T = 1 (cells
    # of 1000 steps), the dephasing scenario (2037) and the audit (993) call
    # no exact propagator
    with monkeypatch.context() as patch:
        _route_fails(patch, "_exact_chunks")
        argv = ["evolve", "--system", str(SYSTEMS / "dephasing.sys"), "--observable", "O", "--tmax", "1"]
        for argv in (argv, ["scenario", "dephasing"], ["audit", "--trials", "4"]):
            code, _, err = run_cli(argv)
            assert code == 0, (argv, err)
    # shorter cells take the exact propagator, one product a step: rho(T),
    # whose steps have h beta just under 1, qutrit_decay.sys to T = 1 (cells
    # of 430 steps) and to T = 300 (of 1), and a stiff step, h beta > 1:
    # qutrit_decay.sys with h = 10 and h beta = 23.2, and the stiff qubit of
    # test_bound_stiff_constant_rate_takes_exact_route with h beta = 2e8
    with monkeypatch.context() as patch:
        taken = []
        for route in ("_exact_chunks", "_taylor_chunks"):
            patch.setattr(dynamics, route, lambda *a, _r=route, _f=getattr(dynamics, route): taken.append(_r) or _f(*a))
        code, _, err = run_cli(["bound", "--system", str(SYSTEMS / "dephasing.sys"), "--observable", "O",
                                "--tmax", "1", "--bounds", "ALL"])
        assert code == 0 and sorted(taken) == ["_exact_chunks", "_taylor_chunks"], err
    with monkeypatch.context() as patch:
        _route_fails(patch, "_taylor_chunks")
        qutrit = ["--system", str(SYSTEMS / "qutrit_decay.sys"), "--observable", "N"]
        for argv in ([*qutrit, "--tmax", "1"], [*qutrit, "--tmax", "300"], STIFF_QUTRIT):
            for command in (["bound", *argv, "--bounds", "ALL"], ["evolve", *argv]):
                code, _, err = run_cli(command)
                assert code == 0, (command, err)
        test_bound_stiff_constant_rate_takes_exact_route(tmp_path)
    # and above its limit a stiff step is refused
    text = ("[system]\ndim = 5\n[state]\nket = [1, 1, 1, 1, 1]\n[jump]\nmatrix = "
            f"{_diag_literal('01234', 5)}\nrate = 1e9\n[observable O]\nmatrix = {_diag_literal('10000', 5)}\n")
    path = tmp_path / "stiff_5.sys"
    path.write_text(text)
    code, out, err = run_cli(["bound", "--system", str(path), "--observable", "O", "--tmax", "1", "--steps", "10"])
    assert code == 3 and out == "" and err.startswith(f"numeric error: {STEPPER} h = 0.1 has h beta = ")


@pytest.mark.parametrize("tmax", ["5e-324", "3e-309"])
def test_a_subnormal_horizon_on_the_taylor_cells_computes(tmp_path, tmax):
    # the cells' speeds hold the derivative terms L U_n, not (n + 1) / tau
    # U_(n+1), which is infinite once tau < 1 / float max: at d = 5 both
    # horizons compute, as on the exact route, with no warning
    rng = np.random.default_rng(5)
    H, O, L = (rng.standard_normal((5, 5)) for _ in range(3))
    spec = SystemSpec(LindbladGenerator(H + H.T, jumps=((L / 4, 0.5),)), DensityState.pure(np.ones(5)),
                      {"O": O + O.T})
    path = tmp_path / "cells_5.sys"
    path.write_text(serialize_system(spec))
    for command in ("bound", "evolve"):
        argv = [command, "--system", str(path), "--observable", "O", "--tmax", tmax, "--steps", "2"]
        code, out, err = run_cli(argv + (["--bounds", "ALL"] if command == "bound" else []))
        assert code == 0 and err == "", err


def _scaled_tight_qubit(tmp_path, mu):
    """The rows of ``bound --bounds ALL`` on tight_qubit.sys with O = mu X, as {bound_id: T_qsl / T}."""
    path = tmp_path / f"tight_{mu!r}.sys"
    path.write_text((SYSTEMS / "tight_qubit.sys").read_text().replace("pauli = 1.0 X", f"pauli = {mu!r} X"))
    code, out, err = run_cli(["bound", "--system", str(path), "--observable", "O", "--tmax", "1.5707963",
                              "--bounds", "ALL", "--format", "json"])
    assert code == 0, err
    return {r["bound_id"]: r["T_qsl"] / r["T"] for r in json.loads(out)["reports"]}


def test_the_variance_floors_scale_with_the_observable(tmp_path):
    # the rounding of <O^2> - <O>^2 and of C(0) grows as ||O||^2: at O = 1e5 X
    # both read about -4e-6, below an absolute floor of -1e-9; scaled by the
    # square of O's largest |entry|, the run computes, and every row it
    # shares with O = X reads the same (1e5 X is no longer self-inverse)
    one, large = _scaled_tight_qubit(tmp_path, 1.0), _scaled_tight_qubit(tmp_path, 1e5)
    assert set(large) == set(one) - {"SELF_INVERSE"}
    for bound_id, ratio in large.items():
        assert abs(ratio - one[bound_id]) <= 1e-12, bound_id


def test_the_zero_tolerances_are_relative_to_the_observable(tmp_path):
    # at O = 1e-10 X each cell's change of <O> (about 1.6e-13) fell below an
    # absolute ZERO_TOL of 1e-12, and so did the change of tr(O(t) O): three
    # rows read 0; at O = 1e5 X the rounding of C(t) rose above it, and
    # CORR_CLOSED read 1.4e-16 in place of 0
    one, small, large = (_scaled_tight_qubit(tmp_path, mu) for mu in (1.0, 1e-10, 1e5))
    for bound_id in ("MT_INTEGRAL", "STATE_INDEP", "BATTERY_CT1"):
        assert one[bound_id] > 0.5 and abs(small[bound_id] - one[bound_id]) <= 1e-12, bound_id
    assert one["CORR_CLOSED"] == large["CORR_CLOSED"] == 0.0


def test_the_projector_slot_is_relative_to_the_observable(tmp_path):
    # |O^2 - O| <= 1e-9 held for O = 1e-10 X, which is no projector
    assert "STATE_MT" not in _scaled_tight_qubit(tmp_path, 1e-10)
    # the slot's tolerance scales with ||O||, which is 1 for every projector
    # however its weight is spread: the projector onto the uniform state at
    # d = 8, its entries 1/8 written as 0.1249999995, has |O^2 - O| = 5e-10 in
    # each, within 1e-9 but not within 1e-9 times its largest entry
    row = "[" + ", ".join(["0.1249999995"] * 8) + "]"
    H = "[" + ", ".join("[" + ", ".join(str(int(i == j) * i) for j in range(8)) + "]" for i in range(8)) + "]"
    path = tmp_path / "uniform_8.sys"
    path.write_text(f"[system]\ndim = 8\n[hamiltonian]\nmatrix = {H}\n[state]\nket = [1, 1, 0, 0, 0, 0, 0, 0]\n"
                    f"[observable P]\nmatrix = [{', '.join([row] * 8)}]\n")
    code, out, err = run_cli(["bound", "--system", str(path), "--observable", "P", "--tmax", "1", "--bounds", "ALL"])
    assert code == 0 and "\nSTATE_MT," in out, err


def test_bound_json_schema(dephasing_path):
    code, out, err = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "oqsl.bound/v1"
    assert {"bound_id", "T", "T_qsl", "valid", "inputs_digest", "details"} == set(payload["reports"][0])


def test_bound_csv_header_stable(dephasing_path):
    code, out, _ = run_cli(
        ["bound", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0"]
    )
    assert out.splitlines()[0] == "bound_id,T,T_qsl,valid"


def test_bound_kraus_system(tmp_path):
    p = tmp_path / "k.sys"
    p.write_text(builtin_text("kraus_dephasing"))
    code, out, err = run_cli(["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0"])
    assert code == 0, err
    row, = parse_csv(out)
    assert row["bound_id"] == "KRAUS" and row["valid"] == "true"


# ---------------------------------------------------------------------------
# evolve command


def test_evolve_csv(dephasing_path):
    code, out, err = run_cli(
        ["evolve", "--system", dephasing_path, "--observable", "O", "--tmax", "1.0", "--steps", "10"]
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "t,expect,stddev,gen_speed_hs,gen_speed_op"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_hbar_override(tight_path):
    # doubling hbar halves the precession frequency: <O(T)> = cos(2T/hbar)
    code, out, _ = run_cli(
        [
            "evolve", "--system", tight_path, "--observable", "O",
            "--tmax", "1.0", "--steps", "10", "--hbar", "2.0", "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expect"][-1] == pytest.approx(np.cos(1.0), abs=1e-9)


def test_evolve_hbar_override_applies_to_lindblad(tmp_path):
    p = tmp_path / "qutrit_decay.sys"
    p.write_text(builtin_text("qutrit_decay"))
    outputs = {}
    for hbar in ("1", "2"):
        code, out, err = run_cli(
            ["evolve", "--system", str(p), "--observable", "C", "--tmax", "1", "--steps", "100",
             "--hbar", hbar, "--format", "json"]
        )
        assert code == 0, err
        outputs[hbar] = json.loads(out)
    # <C> stays 0 from this diagonal state; the generator speeds carry the hbar
    assert outputs["1"]["gen_speed_hs"] != outputs["2"]["gen_speed_hs"]
    spec = parse_system(builtin_text("qutrit_decay"))
    gen = LindbladGenerator(H=spec.generator.H, jumps=spec.generator.jumps, hbar=2.0)
    traj = evolve_lindblad_heisenberg(spec.observable("C"), gen, spec.initial_state, TimeGrid(1.0, 100))
    assert outputs["2"]["expect"] == traj.expect.tolist()
    assert outputs["2"]["gen_speed_hs"] == traj.gen_speed_hs.tolist()


@pytest.mark.parametrize("command", ["bound", "evolve"])
def test_hbar_override_rejected_for_kraus(command, tmp_path):
    p = tmp_path / "kraus_dephasing.sys"
    p.write_text(builtin_text("kraus_dephasing"))
    code, out, err = run_cli(
        [command, "--system", str(p), "--observable", "O", "--tmax", "1", "--hbar", "2"]
    )
    assert code == 2
    assert out == ""
    assert "--hbar" in err


@pytest.mark.parametrize("hbar", ["nan", "inf"])
@pytest.mark.parametrize("command", ["bound", "evolve"])
@pytest.mark.parametrize("system", [DEPHASING, TIGHT], ids=["lindblad", "unitary"])
def test_non_finite_hbar_rejected(system, command, hbar):
    code, out, err = run_cli([command, "--system", system, "--observable", "O", "--tmax", "1", "--hbar", hbar])
    assert code == 2
    assert out == ""
    assert "hbar must be positive" in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
@pytest.mark.parametrize(
    "argv",
    [["bound", "--observable", "O", "--tmax", "1"], ["evolve", "--observable", "O", "--tmax", "1"], ["parse"]],
    ids=["bound", "evolve", "parse"],
)
def test_negative_or_non_finite_tol_rejected(argv, tol):
    code, out, err = run_cli(argv + ["--system", DEPHASING, "--tol", tol])
    assert code == 2
    assert out == ""
    assert f"--tol must be a finite number of at least {TOL_FLOOR!r}" in err


# each built-in once, two_qubit with its B
@pytest.mark.parametrize("name,obs,obs_b,tmax", [c[:4] for c in REPORT_ORDER if c[2] or c[0] != "two_qubit"])
def test_builtin_systems_pass_at_tol_floor(name, obs, obs_b, tmax):
    # the floor sits above the 1-ulp rounding that a tolerance of 0 trips over
    tol = ["--tol", repr(TOL_FLOOR), "--steps", "50"]
    path = str(SYSTEMS / f"{name}.sys")
    for argv in (
        _bound_argv(name, obs, obs_b, tmax, "--bounds", "ALL", *tol),
        ["evolve", "--system", path, "--observable", obs, "--tmax", tmax, *tol],
        ["parse", "--system", path, "--tol", repr(TOL_FLOOR)],
    ):
        code, _, err = run_cli(argv)
        assert code == 0, err


@pytest.mark.parametrize("command", ["bound", "evolve"])
@pytest.mark.parametrize("name,obs", [("tight_qubit", "O"), ("two_qubit", "A"), ("battery", "HB")])
def test_overflowed_generator_speed_is_a_numeric_error(name, obs, command):
    # at hbar = 1e-308 [H, O] / hbar itself overflows; at 1e-300 its
    # Hilbert-Schmidt norm, ~3e300, is finite, and only its squares were not
    argv = [command, "--system", str(SYSTEMS / f"{name}.sys"), "--observable", obs, "--tmax", "1"]
    code, out, err = run_cli(argv + ["--hbar", "1e-308"])
    assert code == 3 and out == ""
    assert "generator speed gen_speed_hs" in err and "is inf at hbar = 1e-308" in err
    code, out, err = run_cli(argv + ["--hbar", "1e-300"])
    assert code == 0 and out, err


def register_text(c=1.0, dim=32):
    """A Lindblad register of log2(dim) qubits (the Taylor stepper at dim = 32, the
    exact one at dim = 2): H = X on the first qubit, the jump Z there at rate
    0.5, the all-ones ket, or [1, 0] on one qubit, and O = c Z there."""
    rest = "I" * (dim.bit_length() - 2)
    ket = ", ".join(["1"] + ["1" if dim > 2 else "0"] * (dim - 1))
    return (f"[system]\ndim = {dim}\nkind = lindblad\n[hamiltonian]\npauli = 1.0 X{rest}\n[state]\nket = [{ket}]\n"
            f"[jump]\npauli = 1.0 Z{rest}\nrate = 0.5\n[observable O]\npauli = {c!r} Z{rest}\n")


@pytest.mark.parametrize("dim", [2, 32], ids=["exact", "rk4"])
def test_a_large_observable_is_not_unstable(tmp_path, dim, take_exact):
    # every bound is scale-free, and the Heisenberg flow of a Lindblad generator
    # does not grow O; the "exact" id forces the exact propagator
    assert (parse_system(register_text(dim=dim)).generator.dim <= EXACT_MAX_DIM) == (dim == 2)
    if dim == 2:
        take_exact(dim)
    reports = {}
    for c in (1.0, 1e13):
        path = tmp_path / f"register_{c}.sys"
        path.write_text(register_text(c, dim))
        argv = ["bound", "--system", str(path), "--observable", "O", "--tmax", "1", "--format", "json"]
        code, out, err = run_cli(argv)
        assert code == 0, err
        reports[c] = [(r["bound_id"], r["T_qsl"]) for r in json.loads(out)["reports"]]
    ids = ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP", "CORR_OPEN"]
    assert [b for b, _ in reports[1.0]] == [b for b, _ in reports[1e13]] == ids
    for (_, a), (_, b) in zip(reports[1.0], reports[1e13]):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (a, b)


# the start of the Taylor stepper's refusal of a grid whose step h has h beta > 1
STEPPER = "the Taylor stepper needs h beta <= 1, and the step"


@pytest.fixture
def register_path(tmp_path):
    p = tmp_path / "register.sys"
    p.write_text(register_text())
    return str(p)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "dephasing", "O", "1e308", "--steps", "2"], "matrix exponential out of range"),
        (["bound", "qutrit_decay", "N", "1e308", "--steps", "2"], "matrix exponential out of range"),
        # the Taylor stepper's guard, before its first step (the "rk4" ids name the route above the exact one)
        (["bound", "REGISTER", "O", "1", "--hbar", "1e-150"], f"{STEPPER} h = 0.001 has h beta = 2e+147 at hbar = 1e-150"),
        (["evolve", "REGISTER", "O", "1", "--hbar", "1e-150"],
         f"{STEPPER} h = 0.001 has h beta = 2e+147 at hbar = 1e-150"),
        (["bound", "REGISTER", "O", "1e300", "--steps", "50"],
         f"{STEPPER} h = 2.0000000000000002e+298 has h beta = 5.12311e+298 at hbar = 1.0"),
        (["evolve", "REGISTER", "O", "1e300", "--steps", "50"],
         f"{STEPPER} h = 2.0000000000000002e+298 has h beta = 5.12311e+298 at hbar = 1.0"),
        (["bound", "dephasing", "O", "1", "--hbar", "5e-324"], "i H / hbar overflows at hbar = 5e-324"),
        (["bound", "qutrit_decay", "N", "1", "--hbar", "5e-324"], "i H / hbar overflows at hbar = 5e-324"),
        (["bound", "kraus_dephasing", "O", "1e-310"], "Kraus speed sum_i ||K_i^dag O dK_i/dt|| is not finite"),
        (["evolve", "kraus_dephasing", "O", "1e-310"], "Kraus speed sum_i ||K_i^dag O dK_i/dt|| is not finite"),
        (["bound", "battery", "HB", "1e308", "--steps", "2"], "GENERATOR_HS: the mean speed lambda_T is inf"),
        (["bound", "two_qubit", "A", "1e308", "--steps", "2"], "GENERATOR_HS: the mean speed lambda_T is inf"),
        (["evolve", "qutrit_decay", "N", "1e300", "--steps", "76", "--hbar", "1e-12"],
         "the exact propagator exp(h L) overflows: the step h = 1.3157894736842106e+298"),
        (["bound", "battery", "HB", "1.2711610061536462e+158", "--hbar", "1e-150", "--steps", "2"],
         "the phase t w / hbar overflows: times up to 1.2711610061536462e+158"),
        # a tiny hbar on the exact route is named, not the step
        *((["bound", "qutrit_decay", "N", "1", "--hbar", hbar],
           f"i H / hbar at hbar = {hbar} turns phases of ") for hbar in ("1e-300", "1e-305", "1e-307")),
        (["evolve", "qutrit_decay", "N", "1", "--hbar", "1e-300"], "i H / hbar at hbar = 1e-300 turns phases of "),
        # a small hbar whose phases the propagator rounds beyond the trace tolerance over the grid
        *(([command, "qutrit_decay", "N", "1", "--hbar", hbar],
           f"i H / hbar at hbar = {float(hbar)!r} turns phases of {phase} rad in one step h = 0.001: over 1000 steps")
          for command, hbar, phase in (("bound", "1e-8", "200000"), ("bound", "1e-12", "2e+09"),
                                       ("evolve", "1e-12", "2e+09"), ("evolve", "1e-15", "2e+12"))),
    ],
    ids=[
        "mat-exp-dephasing", "mat-exp-qutrit", "rk4-hbar-bound", "rk4-hbar-evolve", "rk4-tmax-bound",
        "rk4-tmax-evolve", "hbar-dephasing", "hbar-qutrit", "kraus-bound", "kraus-evolve", "speed-battery",
        "speed-two-qubit", "exact-step-times-generator", "unitary-phases", "tiny-hbar-1e-300", "tiny-hbar-1e-305",
        "tiny-hbar-1e-307", "tiny-hbar-evolve", "small-hbar-1e-8", "small-hbar-1e-12", "small-hbar-evolve-1e-12",
        "small-hbar-evolve-1e-15",
    ],
)
def test_extreme_inputs_end_with_one_error_line(register_path, argv, message):
    command, name, obs, tmax, *rest = argv
    path = register_path if name == "REGISTER" else str(SYSTEMS / f"{name}.sys")
    code, out, err = run_cli([command, "--system", path, "--observable", obs, "--tmax", tmax, *rest])
    assert code == 3 and out == ""
    # the unitary systems also note that the huge step aliases
    (line,) = [line for line in err.splitlines() if not line.startswith("note: ")]
    assert line.startswith("numeric error: ") and message in line


def _diag_literal(entries, d):
    """The literal of the d x d diagonal matrix whose diagonal starts with ``entries``, then zeros."""
    diag = list(entries) + ["0"] * (d - len(entries))
    return "[" + ", ".join("[" + ", ".join(x if i == j else "0" for j in range(d)) + "]" for i, x in enumerate(diag)) + "]"


@pytest.mark.parametrize(
    "dim, jump, rate",
    [(2, None, "1e300"), (2, "pauli = 2.0 Z", "1.7e308"), (5, None, "1e300")],
    ids=["matrix-jump", "pauli-jump", "taylor-cells"],
)
@pytest.mark.parametrize("command", ["bound", "evolve"])
def test_an_overflowing_dissipator_ends_with_one_error_line(tmp_path, command, dim, jump, rate):
    # every entry is below the parser's cap, but gamma_k L_k^dag L_k overflows: one error
    # naming the jump, and no RuntimeWarning; at d = 5, with H = O = diag(0, ..., 4), the Taylor cells run
    jump = jump or f"matrix = {_diag_literal(['1e150', '-1e150'], dim)}"
    H, O = ("pauli = 1.0 X", "pauli = 1.0 Z") if dim == 2 else (f"matrix = {_diag_literal('01234', dim)}",) * 2
    path = tmp_path / "overflow.sys"
    path.write_text(f"[system]\ndim = {dim}\nkind = lindblad\n[hamiltonian]\n{H}\n[state]\nket = [1{', 0' * (dim - 1)}]\n"
                    f"[jump]\n{jump}\nrate = {rate}\n[observable O]\n{O}\n")
    code, out, err = run_cli([command, "--system", str(path), "--observable", "O", "--tmax", "1"])
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert line == f"numeric error: the dissipator of jump operator 0 at rate {float(rate)!r} overflows"


def test_a_small_hbar_below_the_rounding_limit_still_computes():
    # H, N and rho are diagonal, so <N(t)> does not depend on hbar; at 1e-7 the
    # rounding of exp(h L) over the grid, 1000 * 2e4 * 2^-53 = 2.2e-9, is within 1e-8
    argv = ["evolve", "--system", str(SYSTEMS / "qutrit_decay.sys"), "--observable", "N", "--tmax", "1"]
    expect = {}
    for hbar in ("1", "1e-7"):
        code, out, err = run_cli([*argv, "--hbar", hbar, "--format", "json"])
        assert code == 0, err
        expect[hbar] = np.array(json.loads(out)["expect"])
    assert np.abs(expect["1e-7"] - expect["1"]).max() < 1e-8


# a qubit under H = X from [1, 0]; {jump} is a [jump] section or nothing
SQUARED_QUBIT = ("[system]\ndim = 2\nkind = {kind}\n[hamiltonian]\npauli = {h!r} X\n[state]\nket = [1, 0]\n{jump}"
                 "[observable O]\npauli = {o!r} Z\n")


@pytest.mark.parametrize(
    "kind, h, jump, o, message",
    [
        ("lindblad", 1.0, 1.0, 1e300, ":12:9: observable 'O' has an entry of magnitude 1e+300 above"),
        ("unitary", 1.0, None, 1e300, ":9:9: observable 'O' has an entry of magnitude 1e+300 above"),
        ("lindblad", 1e300, 1.0, 1.0, ":5:9: hamiltonian has an entry of magnitude 1e+300 above"),
        ("lindblad", 1.0, 1e200, 1.0, ":9:9: jump operator 0 has an entry of magnitude 1e+200 above"),
    ],
    ids=["lindblad-observable", "unitary-observable", "hamiltonian", "jump"],
)
def test_a_matrix_whose_square_overflows_exits_2_naming_it(tmp_path, kind, h, jump, o, message):
    # entries above sqrt(float max) / d = 6.7e153 are refused before O @ O, the variance or L^dag L overflow
    jump = "" if jump is None else f"[jump]\npauli = {jump!r} Z\nrate = 0.5\n"
    path = tmp_path / "squared.sys"
    path.write_text(SQUARED_QUBIT.format(kind=kind, h=h, jump=jump, o=o))
    for argv in (["bound", "--observable", "O", "--tmax", "1"], ["parse"]):
        code, out, err = run_cli([*argv, "--system", str(path)])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert message in line and line.endswith("sqrt(float max) / d = 6.7039e+153")


BUILTINS = {"battery": "HB", "dephasing": "O", "kraus_dephasing": "O", "qutrit_decay": "N", "tight_qubit": "O",
            "two_qubit": "A"}
# 10 ** x for x uniform between the exponents of the least and of nearly the largest float
LOG_UNIFORM = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda x: 10.0**x) | st.sampled_from(
    [5e-324, 1e-310, 1e-150, 1.0, 1e150, 1e300, 1.7e308]
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["bound", "evolve"]),
    name=st.sampled_from(sorted(BUILTINS)),
    tmax=LOG_UNIFORM,
    hbar=st.none() | LOG_UNIFORM,
    steps=st.integers(2, 300),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
@example(command="evolve", name="qutrit_decay", tmax=1e300, hbar=1e-12, steps=76, tol=1e-9)
@example(command="bound", name="battery", tmax=1.2711610061536462e158, hbar=1e-150, steps=2, tol=1e-9)
def test_extreme_cli_inputs_end_in_one_error_line_and_no_warning(command, name, tmax, hbar, steps, tol):
    argv = [command, "--system", str(SYSTEMS / f"{name}.sys"), "--observable", BUILTINS[name]]
    argv += ["--tmax", repr(tmax), "--steps", str(steps), "--tol", repr(tol)]
    argv += ["--hbar", repr(hbar)] if hbar is not None else []
    if command == "bound":
        argv += ["--bounds", "ALL"] + (["--observable-b", "B"] if name == "two_qubit" else [])
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), err
    if code == 3 and out:  # a bound whose valid flag is false: the table is printed
        assert "false" in {row["valid"] for row in parse_csv(out)}
    elif code:
        assert err.splitlines()[-1].startswith(("error: ", "numeric error: ")), err


def test_no_command_takes_an_svd(monkeypatch, tmp_path):
    # every operator norm is linalg.op_norm's scaled Gram matrix or
    # linalg.hermitian_op_norm's eigvalsh; an SVD, numpy.linalg.norm(X, 2)'s
    # included, fails the run, also in the audit's forked block
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))
    dense = tmp_path / "dense.sys"
    dense.write_text(workloads["sys_text"](workloads["dense_system"](np.random.default_rng(32), "unitary", 32, (4, 8))))

    def svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd was called")

    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", svd)
    bound = ["bound", "--tmax", "1", "--bounds", "ALL"]
    runs = [bound + ["--system", str(SYSTEMS / f"{name}.sys"), "--observable", obs] for name, obs in BUILTINS.items()]
    runs += [bound + ["--system", str(dense), "--observable", "A", "--observable-b", "B"]]
    runs += [["scenario", name] for name in SCENARIOS] + [["audit", "--trials", "4"]]
    for argv in runs:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)


def test_state_mt_of_an_eigenket_is_zero(tmp_path):
    # the ket is a float eigenvector of H, from eigh, and the observable its
    # projector: dH = 1.3e-8 is rounding, above SPREAD_TOL, and pT = 1 - 1 ulp,
    # whose arccos(sqrt(pT)) ~ 1.5e-8 read T_qsl = 4.5 > T = 1
    H = [[0.5137634080440824, -0.2423207867210894 + 0.34685424807440546j],
         [-0.2423207867210894 - 0.34685424807440546j, 0.25959477377495904]]
    ket = [0.5968005109768614, 0.45953271864471035 + 0.6577680674772519j]
    P = [[0.35617084990224285, 0.2742493612977494 - 0.39255631877468655j],
         [0.2742493612977494 + 0.39255631877468655j, 0.6438291500977571 - 2.3176631226807567e-18j]]
    path = tmp_path / "eigenket.sys"
    spec = SystemSpec(UnitaryGenerator(np.array(H)), DensityState.pure(ket), {"P": np.array(P)})
    path.write_text(serialize_system(spec))
    code, out, err = run_cli(["bound", "--system", str(path), "--observable", "P", "--tmax", "1", "--format", "json"])
    assert code == 0, err
    (report,) = [r for r in json.loads(out)["reports"] if r["bound_id"] == "STATE_MT"]
    assert report["details"]["p0"] == 1.0 and 0.0 < 1.0 - report["details"]["pT"] <= 1e-12
    assert report["T_qsl"] == 0.0


def test_a_self_inverse_slot_admitted_beyond_tol_is_clipped_to_its_range(tmp_path):
    # the slot is admitted within max(--tol, 1e-9): below --tol 1e-9 SELF_INVERSE
    # read <O(0)> = 1.0000000004 unclipped and refused it beyond --tol (exit 2)
    path = tmp_path / "loose_self_inverse.sys"
    path.write_text("[system]\ndim = 2\nkind = unitary\n\n[hamiltonian]\npauli = 1.0 X\n\n[state]\nket = [1, 0]\n"
                    "\n[observable O]\nmatrix = [[1.0000000004, 0], [0, -1]]\n")
    rows = {}
    for tol in ("1e-9", "1e-10"):
        code, out, err = run_cli(["bound", "--system", str(path), "--observable", "O", "--tmax", "1", "--tol", tol])
        assert code == 0, err
        (rows[tol],) = [row for row in parse_csv(out) if row["bound_id"] == "SELF_INVERSE"]
    assert rows["1e-10"] == rows["1e-9"]


def test_a_kraus_speed_whose_gram_matrix_overflows_is_a_numeric_error(tmp_path):
    # K^dag O dK/dt ~ 4e155: its Gram matrix overflowed into a LinAlgError
    # traceback; what overflows now is its Hilbert-Schmidt norm
    times = np.linspace(0.0, 1.0, 21)
    ops = [[np.diag([np.exp(-100j * t), 1.0, np.exp(100j * t)])] for t in times]
    O = 4e153 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    spec = SystemSpec(TabulatedKraus(times, ops), DensityState.pure([1.0, 1.0, 1.0]), {"O": O})
    path = tmp_path / "kraus_gram.sys"
    path.write_text(serialize_system(spec))
    code, out, err = run_cli(["bound", "--system", str(path), "--observable", "O", "--tmax", "1", "--steps", "20"])
    assert code in (0, 3), err
    if code:
        (line,) = err.splitlines()
        assert line.startswith("numeric error: Kraus speed sum_i ||K_i^dag O dK_i/dt|| is not finite")


def test_kraus_speeds_on_an_aliased_grid_do_not_underflow():
    # at h = 2e298 the difference quotients of K are ~1e-299 and only at the
    # first samples: their squares underflowed to 0, and with them the speed
    argv = ["bound", "--system", str(SYSTEMS / "kraus_dephasing.sys"), "--observable", "O", "--tmax", "1e300"]
    code, out, err = run_cli(argv + ["--steps", "50"])
    assert code == 0 and err == "", err
    (row,) = parse_csv(out)
    assert row["bound_id"] == "KRAUS" and row["valid"] == "true"
    assert float(row["T_qsl"]) == pytest.approx(1e300 / math.sqrt(2.0), rel=1e-11)


# the rows that compare dH with the absolute SPREAD_TOL, which does not scale with H
SPREAD_ROWS = {"MT_INTEGRAL", "SELF_INVERSE", "STATE_MT", "BATTERY_CT1"}


def _rescaled_text(name, lam):
    """The built-in system ``name`` with H and every rate (gamma of a Kraus family) times ``lam``."""
    spec = parse_system(builtin_text(name))
    gen = spec.generator
    if gen.kind == "kraus":
        gen = DephasingKraus(gen.gamma * lam)
    elif gen.kind == "lindblad":
        gen = LindbladGenerator(gen.H * lam, tuple((L, rate * lam) for L, rate in gen.jumps), gen.hbar)
    else:
        gen = UnitaryGenerator(gen.H * lam, gen.hbar)
    return serialize_system(SystemSpec(gen, spec.initial_state, spec.observables))


@pytest.mark.parametrize(
    "name,obs,obs_b,tmax", [c[:4] for c in REPORT_ORDER], ids=[f"{c[0]}{'+B' if c[2] else ''}" for c in REPORT_ORDER]
)
def test_bounds_are_covariant_under_a_rescaling_of_energies_and_time(tmp_path, name, obs, obs_b, tmax):
    # H and the rates enter only through H t / hbar and gamma t: times lam
    # and T / lam leave every T_qsl / T, and the exit code, unchanged
    def ratios(k):
        path = tmp_path / f"{name}_{k}.sys"
        path.write_text(_rescaled_text(name, 2.0**k))
        argv = ["bound", "--system", str(path), "--observable", obs, "--tmax", repr(float(tmax) * 2.0**-k)]
        code, out, err = run_cli(argv + ["--observable-b"] * bool(obs_b) + [obs_b] * bool(obs_b)
                                 + ["--bounds", "ALL", "--format", "json"])
        assert code == 0, (k, err)
        reports = json.loads(out)["reports"]
        return {r["bound_id"]: r["T_qsl"] / r["T"] for r in reports if r["bound_id"] not in SPREAD_ROWS}

    ref = ratios(0)
    for k in (-1000, -700, -540, -530, -300, 300, 440):
        got = ratios(k)
        assert got.keys() == ref.keys(), k
        for bound_id, r in ref.items():
            assert abs(got[bound_id] - r) <= 1e-12, (k, bound_id, got[bound_id], r)


@pytest.mark.parametrize("command", ["bound", "evolve"])
def test_unresolved_unitary_grid_is_noted(command):
    # h = 2e298 against the frequency spread 2 of tight_qubit's H: every sample aliases
    code, out, err = run_cli([command, "--system", TIGHT, "--observable", "O", "--tmax", "1e300", "--steps", "50"])
    assert code == 0
    assert err.count("\n") == 1 and err.startswith("note: the step h = 2e+298 does not resolve the dynamics")
    assert "frequency spread 2 of H / hbar" in err
    if command == "bound":
        rows = parse_csv(out)
        assert rows[0] == {"bound_id": "MT_INTEGRAL", "T": "1e+300", "T_qsl": "36.151303672", "valid": "true"}
        assert all(r["valid"] == "true" for r in rows)


def test_evolve_json(dephasing_path):
    code, out, _ = run_cli(
        [
            "evolve", "--system", dephasing_path, "--observable", "O",
            "--tmax", "1.0", "--steps", "10", "--format", "json",
        ]
    )
    payload = json.loads(out)
    assert payload["schema"] == "oqsl.evolve/v1"
    assert len(payload["expect"]) == 11
    assert payload["expect"][-1] == pytest.approx(np.exp(-1.0), abs=1e-6)


# ---------------------------------------------------------------------------
# scenario command


def test_scenario_dephasing_csv():
    code, out, err = run_cli(["scenario", "dephasing"])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "T,oqsl,qsl,ref_oqsl,ref_qsl,err_oqsl,err_qsl"
    assert len(lines) == 65


def test_scenario_tight_qubit():
    code, out, _ = run_cli(["scenario", "tight-qubit"])
    assert code == 0
    assert "MT_INTEGRAL" in out


def test_scenario_unknown():
    code, out, err = run_cli(["scenario", "nosuch"])
    assert code == 2
    assert "unknown scenario" in err


def test_scenario_deterministic_bytes():
    a = run_cli(["scenario", "dephasing"])
    b = run_cli(["scenario", "dephasing"])
    assert a == b


# ---------------------------------------------------------------------------
# parse command


def test_parse_round_trip(dephasing_path, tmp_path):
    code, out, err = run_cli(["parse", "--system", dephasing_path])
    assert code == 0, err
    orig = parse_system(builtin_text("dephasing"))
    again = parse_system(out)
    assert orig.generator.H.tobytes() == again.generator.H.tobytes()
    assert orig.initial_state.matrix.tobytes() == again.initial_state.matrix.tobytes()


def test_parse_error_position(tmp_path):
    p = tmp_path / "bad.sys"
    p.write_text("[system]\ndim = two\n[state]\nket = [1, 0]\n")
    code, out, err = run_cli(["parse", "--system", str(p)])
    assert code == 2
    assert "bad.sys:2:" in err


@pytest.mark.parametrize(
    "kraus,line",
    [
        ("family = dephasing\ngamma = 1.0\ngamma = 5.0\n", 8),
        ("family = dephasing\ngamma = 1.0\ntime = 0.0\nK = [[1, 0], [0, 1]]\n", 8),
        ("family = tabulated\ngamma = 1.0\ntime = 0.0\nK = [[1, 0], [0, 1]]\ntime = 0.5\nK = [[1, 0], [0, 1]]\n", 7),
    ],
    ids=["second-gamma", "tabulated-keys-under-dephasing", "gamma-under-tabulated"],
)
def test_parse_rejects_kraus_keys_it_would_ignore(tmp_path, kraus, line):
    p = tmp_path / "k.sys"
    p.write_text("[system]\ndim = 2\n[state]\nket = [1, 0]\n[kraus]\n" + kraus)
    code, out, err = run_cli(["parse", "--system", str(p)])
    assert code == 2 and out == ""
    assert f"k.sys:{line}:" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_takes_no_format(dephasing_path, fmt, capsys):
    # parse reprints the system itself, so a --format would be ignored
    with pytest.raises(SystemExit) as exc_info:
        main(["parse", "--system", dephasing_path, "--format", fmt], out=io.StringIO(), err=io.StringIO())
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err


def test_parse_missing_file():
    code, out, err = run_cli(["parse", "--system", "/nonexistent/x.sys"])
    assert code == 2


def test_a_system_file_that_is_not_utf8_exits_2(tmp_path):
    # a UTF-16 file starts with the byte-order mark FF FE, which no UTF-8 text does
    path = tmp_path / "u16.sys"
    path.write_bytes(builtin_text("dephasing").encode("utf-16"))
    assert path.read_bytes().startswith(b"\xff\xfe")
    message = "error: cannot read system file: 'utf-8' codec can't decode byte 0xff in position 0"
    for argv in (["parse"], ["bound", "--observable", "O", "--tmax", "1"]):
        code, out, err = run_cli([*argv, "--system", str(path)])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(message)
    proc = subprocess.run([sys.executable, "-m", "oqsl", "parse", "--system", str(path)], env=_entry_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(message)


# ---------------------------------------------------------------------------
# audit command


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_audit_rejects_fewer_than_one_trial(trials, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("audit sampled a trial")

    monkeypatch.setattr(audit, "_sample_trial", no_sampling)
    code, out, err = run_cli(["audit", "--trials", trials, "--format", "json"])
    assert code == 2
    assert out == ""
    assert "--trials must be at least 1" in err


def test_audit_rejects_negative_seed(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("audit sampled a trial")

    monkeypatch.setattr(audit, "_sample_trial", no_sampling)
    code, out, err = run_cli(["audit", "--seed", "-1", "--trials", "2"])
    assert code == 2
    assert out == ""
    assert "--seed must be nonnegative" in err


# ---------------------------------------------------------------------------
# start-up: no oqsl process loads scipy, the exact Lindblad route included


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["parse", "--system", str(SYSTEMS / "two_qubit.sys")],
        ["bound", "--system", str(SYSTEMS / "battery.sys"), "--observable", "HB", "--tmax", "1", "--bounds", "ALL"],
        ["bound", "--system", str(SYSTEMS / "kraus_dephasing.sys"), "--observable", "O", "--tmax", "1.5708"]
        + ["--bounds", "ALL"],
        ["bound", "--system", str(SYSTEMS / "dephasing.sys"), "--observable", "O", "--tmax", "1.5708"]
        + ["--bounds", "ALL"],
        ["bound", "--system", str(SYSTEMS / "qutrit_decay.sys"), "--observable", "N", "--tmax", "1", "--bounds", "ALL"],
        ["scenario", "dephasing"],
        ["audit", "--trials", "2"],
    ],
    ids=["import", "parse", "bound-unitary", "bound-kraus"]
    + ["bound-dephasing", "bound-qutrit-decay", "scenario", "audit"],
)
def test_scipy_not_imported(argv):
    # a fresh interpreter, so no other test's import of scipy can hide one here
    code = "import sys, oqsl\n"
    if argv is not None:
        code += f"import io, oqsl.cli\nassert oqsl.cli.main({argv!r}, out=io.StringIO()) == 0\n"
    code += "assert 'scipy' not in sys.modules\n"
    src = str(Path(oqsl.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the process entry: `python -m oqsl` and the installed script


def _entry_env():
    return {**os.environ, "PYTHONPATH": str(Path(oqsl.__file__).parent.parent)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_exits_without_traceback(fmt):
    # about 1.5 MB of output, far more than a pipe buffers
    argv = [sys.executable, "-m", "oqsl", "evolve", "--system", str(SYSTEMS / "dephasing.sys")]
    argv += ["--observable", "O", "--tmax", "1", "--steps", "20000", "--format", fmt]
    with subprocess.Popen(argv, env=_entry_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 1 and err == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("command, system", [("bound", "tight_qubit.sys"), ("evolve", "dephasing.sys")])
def test_out_of_memory_exits_2_in_one_line(command, system):
    # 10^8 steps need a 763 MiB series, past a 1 GiB address space once numpy is loaded
    import resource

    def limit():  # in the child alone
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [sys.executable, "-m", "oqsl", command, "--system", str(SYSTEMS / system), "--observable", "O"]
    argv += ["--tmax", "1", "--steps", "100000000"]
    env = {**_entry_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# one short run of each command, as its own process
COMMAND_ARGV = {
    "bound": ["bound", "--system", str(SYSTEMS / "two_qubit.sys"), "--observable", "A", "--tmax", "1"],
    "evolve": ["evolve", "--system", str(SYSTEMS / "dephasing.sys"), "--observable", "O", "--tmax", "1"],
    "parse": ["parse", "--system", str(SYSTEMS / "qutrit_decay.sys")],
    "scenario": ["scenario", "tight-qubit"],
    "audit": ["audit", "--trials", "1"],
}
# the modules that each command's process imports beyond what `import numpy`
# imports: the entry, the command line with its argparse and gettext,
# hashlib for the digest of a parsed system, and the audit's numpy.random;
# json only for --format json
_ENTRY = {"runpy", "gc", "oqsl", "oqsl.cli", "oqsl.bounds", "oqsl.dynamics", "oqsl.linalg", "oqsl.sysdl",
          "__future__", "argparse", "gettext", "locale", "_locale"}
_JSON = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
_HASH = {"hashlib", "_hashlib", "_blake2"}
_RANDOM = {"numpy.random", "numpy.random._bounded_integers", "numpy.random._common", "numpy.random._generator",
           "numpy.random._mt19937", "numpy.random._pcg64", "numpy.random._philox", "numpy.random._pickle",
           "numpy.random._sfc64", "numpy.random.bit_generator", "numpy.random.mtrand", "secrets", "hmac", "base64"}
IMPORT_BUDGET = {
    "bound": _ENTRY | _HASH,
    "evolve": _ENTRY | _HASH,
    "parse": _ENTRY | _HASH,
    "scenario": _ENTRY | {"oqsl.scenarios"},
    "audit": _ENTRY | _HASH | _RANDOM | {"oqsl.audit"},
}


def _imports(*argv) -> dict:
    """Each module that ``python -X importtime *argv`` imports, mapped to the
    module whose import imported it (None at the top level)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=_entry_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    importer, waiting = {}, {}
    # one line per import, after the lines of the imports it made, one level deeper
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and not line.endswith("| imported package"):
            text = line.rsplit("|", 1)[-1]
            name, depth = text.strip(), len(text) - len(text.lstrip())
            for child in waiting.pop(depth + 2, ()):
                importer[child] = name
            waiting.setdefault(depth, []).append(name)
            importer.setdefault(name, None)
    return importer


@pytest.fixture(scope="module")
def numpy_imports():
    return set(_imports("-c", "import numpy"))


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_process_imports_only_the_modules_of_its_command(command, numpy_imports):
    own = {"scenario": "oqsl.scenarios", "audit": "oqsl.audit"}.get(command)
    importer = _imports("-m", "oqsl", *COMMAND_ARGV[command])
    assert "oqsl.cli" in importer and (own is None or own in importer)
    assert not importer.keys() & ({"oqsl.audit", "oqsl.scenarios"} - {own})
    # no record class generates code, and only the parser and the bound digests hash
    assert "dataclasses" not in importer.keys() - numpy_imports
    if own is not None:
        assert not (importer.get("hashlib") or "").startswith("oqsl")


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_process_imports_nothing_beyond_its_budget(command, numpy_imports):
    # a module new here adds to every run's fixed cost: add it to IMPORT_BUDGET only on purpose
    extra = _imports("-m", "oqsl", *COMMAND_ARGV[command]).keys() - numpy_imports
    assert not extra - IMPORT_BUDGET[command], f"{command} now imports {sorted(extra - IMPORT_BUDGET[command])}"


def test_a_json_run_imports_json(numpy_imports):
    extra = _imports("-m", "oqsl", *COMMAND_ARGV["bound"], "--format", "json").keys() - numpy_imports
    assert _JSON <= extra and not extra - IMPORT_BUDGET["bound"] - _JSON


def test_entry_runs_no_collection_before_the_command():
    # the parse command starts by opening its system file
    path = str(SYSTEMS / "two_qubit.sys")
    code = (
        "import gc, runpy, sys\n"
        "gc.collect()  # what start-up allocated is not the entry's to collect\n"
        "collections, before = [], []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append(info))\n"
        f"sys.addaudithook(lambda event, args: event == 'open' and str(args[0]) == {path!r}"
        " and before.append(len(collections)))\n"
        f"sys.argv = ['oqsl', 'parse', '--system', {path!r}]\n"
        "try:\n"
        "    runpy.run_module('oqsl', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('collections before the command:', *before, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_entry_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "collections before the command: 0"


def test_entry_freezes_the_import_heap_before_the_command():
    # in a fresh interpreter, so that this process's heap is never frozen
    code = (
        "import gc, sys\n"
        "from oqsl import __main__ as entry, cli\n"
        "cli.COMMANDS['parse'] = lambda args, out, err: print(gc.get_freeze_count(), file=out) or 0\n"
        f"sys.argv = ['oqsl', 'parse', '--system', {str(SYSTEMS / 'two_qubit.sys')!r}]\n"
        "raise SystemExit(entry.run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_entry_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_in_process_main_leaves_the_heap_collectable(tight_path):
    code, _, err = run_cli(["parse", "--system", tight_path])
    assert code == 0, err
    assert gc.get_freeze_count() == 0


def test_installed_script_runs_the_module_entry():
    pyproject = tomllib.loads((Path(oqsl.__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8"))
    module, func = pyproject["project"]["scripts"]["oqsl"].split(":")
    assert getattr(importlib.import_module(module), func) is importlib.import_module("oqsl.__main__").run


# the names the package exports, by the submodule that defines each
EXPORTS = {
    "bounds": ("BOUND_IDS REGISTRY BoundReport BoundSpec EvalContext battery_bounds commutator_qsl corr_qsl "
               "evaluate_all oqsl_generator_hs oqsl_kraus oqsl_min_norm oqsl_mt_integral oqsl_purity_hs "
               "oqsl_self_inverse oqsl_state_independent qsl_delcampo rate_audit state_qsl_projector "
               "two_time_correlation").split(),
    "dynamics": ("DephasingKraus LindbladGenerator TabulatedKraus TimeGrid Trajectory UnitaryGenerator "
                 "dephasing_generator evolve_kraus_heisenberg evolve_lindblad_heisenberg evolve_lindblad_schrodinger "
                 "evolve_unitary_heisenberg lindblad_apply lindblad_final_state").split(),
    "linalg": ("DensityState NumericError ValidationError expectation hs_norm is_hermitian mat_exp op_norm sigma_x "
               "sigma_y sigma_z variance").split(),
    "sysdl": "ParseError SystemSpec parse_complex parse_pauli_expr parse_system serialize_system".split(),
}


def test_the_package_exports_each_name_of_its_submodules():
    star = {}
    exec("from oqsl import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(name for names in EXPORTS.values() for name in names)
    assert set(star) | set(EXPORTS) <= set(dir(oqsl))
    for module, names in EXPORTS.items():
        defined = vars(importlib.import_module(f"oqsl.{module}"))
        for name in names:
            imported = {}
            exec(f"from oqsl import {name}", imported)
            assert getattr(oqsl, name) is imported[name] is star[name] is defined[name]


def test_a_bare_import_loads_no_numpy_until_a_name_is_read():
    code = (
        "import sys, oqsl\n"
        "assert 'numpy' not in sys.modules, 'import oqsl loaded numpy'\n"
        "print(oqsl.bounds.BOUND_IDS[0], oqsl.dynamics.TimeGrid.__name__, oqsl.linalg.DEFAULT_TOL,\n"
        "      oqsl.sysdl.parse_system.__name__, oqsl.sigma_x is oqsl.linalg.sigma_x)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_entry_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["MT_INTEGRAL", "TimeGrid", "1e-09", "parse_system", "True"]
