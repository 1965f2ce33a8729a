import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import oqsl
from oqsl import audit
from oqsl.cli import TOL_FLOOR, main
from oqsl.dynamics import EXACT_MAX_DIM, LindbladGenerator, TimeGrid, _takes_exact_route, evolve_lindblad_heisenberg
from oqsl.sysdl import parse_system

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
    ct1, ct2 = oqsl.bounds.battery_bounds(HB, spec.hamiltonian - HB, spec.initial_state, TimeGrid(0.0, 1.0, 1000))
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
    assert code == 0, err
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
    assert f"bound(s) not applicable to this {parse_system(builtin_text(name)).kind} system/observable: {other}" in err


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
    # register above the exact route's limit: RK4 integrates it, and 10 steps
    # drive it unstable
    n = EXACT_MAX_DIM.bit_length()
    dim = 2**n
    text = (
        f"[system]\ndim = {dim}\n[state]\nket = [" + ", ".join(["1"] * dim) + "]\n"
        f"[jump]\npauli = 1.0 Z{'I' * (n - 1)}\nrate = 1e9\n[observable O]\npauli = 1.0 X{'I' * (n - 1)}\n"
    )
    assert not _takes_exact_route(parse_system(text).generator())
    p = tmp_path / "stiff.sys"
    p.write_text(text)
    code, out, err = run_cli(
        ["bound", "--system", str(p), "--observable", "O", "--tmax", "1.0", "--steps", "10"]
    )
    assert code == 3
    assert "numeric error" in err


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
    gen = LindbladGenerator(H=spec.hamiltonian, jumps=spec.jumps, hbar=2.0)
    traj = evolve_lindblad_heisenberg(spec.observable("C"), gen, spec.initial_state, TimeGrid(0.0, 1.0, 100))
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
    assert orig.hamiltonian.tobytes() == again.hamiltonian.tobytes()
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


def test_parse_missing_file():
    code, out, err = run_cli(["parse", "--system", "/nonexistent/x.sys"])
    assert code == 2


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


@pytest.mark.parametrize(
    "argv, own",
    [
        (["bound", "--system", str(SYSTEMS / "two_qubit.sys"), "--observable", "A", "--tmax", "1"], None),
        (["evolve", "--system", str(SYSTEMS / "dephasing.sys"), "--observable", "O", "--tmax", "1"], None),
        (["parse", "--system", str(SYSTEMS / "qutrit_decay.sys")], None),
        (["scenario", "tight-qubit"], "oqsl.scenarios"),
    ],
    ids=["bound", "evolve", "parse", "scenario"],
)
def test_process_imports_only_the_modules_of_its_command(argv, own):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oqsl", *argv],
        env=_entry_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "oqsl.cli" in imported and (own is None or own in imported)
    assert not imported & ({"oqsl.audit", "oqsl.scenarios"} - {own})


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
