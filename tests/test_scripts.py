"""Smoke tests of the experiment scripts, each in its own interpreter, so a
change to the public API they import shows up here."""

import importlib
import importlib.util
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import oqsl

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(Path(oqsl.__file__).parent.parent)}


def run_script(name, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=ENV, cwd=cwd, capture_output=True, text=True
    )


def test_bound_sweep_script():
    proc = run_script("bound_sweep.py", "--steps", "200", "--gammas", "0.5", "1.0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "gamma,generator_hs,state_indep,delcampo,T"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1"]


def test_every_bench_site_resolves_to_a_callable():
    # the traced benchmark wraps each (module, attribute) of bench/layers.py;
    # a name that oqsl drops, or binds to another package's function, leaves
    # its span unattached or times the wrong code. run_path compiles the file
    # without writing bytecode, so nothing under bench/ changes
    sites = runpy.run_path(str(ROOT / "bench" / "layers.py"))["SITES"]
    found = [(m, a, getattr(importlib.import_module(m), a, None)) for m, a, _ in sites]
    missing = [(m, a) for m, a, fn in found if not (callable(fn) and getattr(fn, "__module__", "").startswith("oqsl."))]
    assert sites and not missing


def _bound_all(system, observable):
    return ["bound", "--system", str(Path(oqsl.__file__).parent / "systems" / system), "--observable", observable,
            "--tmax", "1", "--bounds", "ALL", "--format", "json"]


# the argv of a traced run and the spans it reaches: `bound --bounds ALL` on
# a built-in system, each scenario, and the audit, whose set is the same
# whether or not the second half of each dimension's trials runs in a forked
# child (untraced there)
TRACED_SPANS = {
    "two_qubit.sys": (_bound_all("two_qubit.sys", "A"), {
        "sysdl.parse", "dynamics.evolve_unitary", "bounds.oqsl_generator_hs", "bounds.oqsl_purity_hs",
        "bounds.oqsl_min_norm", "bounds.oqsl_state_independent", "bounds.two_time_correlation", "bounds.corr_qsl",
    }),
    "qutrit_decay.sys": (_bound_all("qutrit_decay.sys", "N"), {
        "sysdl.parse", "dynamics.evolve_lindblad_heisenberg", "bounds.oqsl_generator_hs",
        "bounds.oqsl_state_independent", "bounds.qsl_delcampo",
    }),
    "kraus_dephasing.sys": (
        _bound_all("kraus_dephasing.sys", "O"), {"sysdl.parse", "dynamics.evolve_kraus", "bounds.oqsl_kraus"}
    ),
    "scenario-tight-qubit": (["scenario", "tight-qubit"], {
        "scenarios.run_scenario", "dynamics.evolve_unitary", "bounds.oqsl_mt_integral", "bounds.oqsl_self_inverse",
        "bounds.state_qsl_projector", "bounds.oqsl_purity_hs", "bounds.oqsl_min_norm",
    }),
    "scenario-dephasing": (["scenario", "dephasing"], {
        "scenarios.run_scenario", "dynamics.evolve_lindblad_heisenberg", "dynamics.evolve_lindblad_schrodinger",
        "bounds.oqsl_generator_hs", "bounds.qsl_delcampo",
    }),
    "scenario-battery-degenerate": (["scenario", "battery-degenerate"], {
        "scenarios.run_scenario", "dynamics.evolve_unitary", "bounds.battery_bounds", "bounds.state_qsl_projector",
    }),
    "scenario-kraus-dephasing": (["scenario", "kraus-dephasing"], {
        "scenarios.run_scenario", "dynamics.evolve_kraus", "bounds.oqsl_kraus",
    }),
    "audit": (["audit", "--trials", "2", "--seed", "1"], {
        "audit.run_audit", "audit.sample_busy", "audit.lindblad_block", "audit.trial_eval_busy",
        "dynamics.evolve_unitary", "bounds.oqsl_mt_integral", "bounds.oqsl_self_inverse",
        "bounds.state_qsl_projector", "bounds.oqsl_purity_hs", "bounds.oqsl_generator_hs",
        "bounds.oqsl_state_independent", "bounds.oqsl_min_norm", "bounds.two_time_correlation", "bounds.corr_qsl",
        "bounds.commutator_qsl", "bounds.oqsl_kraus", "bounds.rate_audit",
    }),
}


@pytest.mark.parametrize("run", TRACED_SPANS)
def test_a_traced_run_reaches_its_spans(run, tmp_path):
    # a site that resolves but is no longer called loses its span; without
    # bytecode, the traced entry writes nothing under bench/
    argv, expected = TRACED_SPANS[run]
    spans = tmp_path / "spans.json"
    env = {**ENV, "OQSL_BENCH_SPANS": str(spans), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_entry.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["unattached"] == []
    assert {span[2] for span in record["spans"]} == expected


def test_plot_dephasing_script_without_plot(tmp_path):
    out = tmp_path / "dephasing.csv"
    proc = run_script("plot_dephasing.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 64 rows" in proc.stdout and "passed=True" in proc.stdout
    assert len(out.read_text().splitlines()) == 65


def _save_dir(path, outputs):
    """A --save directory of output_digests.py with ``outputs(label)`` as the
    output of every command."""
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    path.mkdir()
    for label, _ in mod.commands(path):
        (path / mod._file(label)).write_text(outputs(label))
    return path


def test_output_digests_compares_numbers_to_tolerance(tmp_path):
    def dump(a=1.0, zero=0.0, digest="x", text="s", only=None):
        """Every command's output, or only that of the command ``only``,
        with these values; the others keep the defaults."""
        return lambda label: json.dumps(
            {"a": a, "inputs_digest": digest, "b": [zero, text]} if only in (None, label) else
            {"a": 1.0, "inputs_digest": "x", "b": [0.0, "s"]}
        )

    old = _save_dir(tmp_path / "old", dump())
    # a relative 1e-13 and an absolute 1e-15 near zero pass; a moved digest is ignored
    near = _save_dir(tmp_path / "near", dump(a=1.0 + 1e-13, zero=1e-15, digest="y"))
    proc = run_script("output_digests.py", "--compare", str(old), str(near))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count("ok ") == 42 and "1.00e-13" in proc.stdout

    far = _save_dir(tmp_path / "far", dump(a=1.0 + 1e-10, only="audit"))
    proc = run_script("output_digests.py", "--compare", str(old), str(far))
    assert proc.returncode == 1
    (over,) = [line for line in proc.stdout.splitlines() if line.startswith("OVER")]
    assert over.split()[-2:] == ["audit", ".a"]

    # a NaN or an infinity where a number was fails, though a later number moved less
    for bad in (float("nan"), float("inf")):
        broken = _save_dir(tmp_path / f"broken-{bad}", dump(a=bad, zero=1e-15, only="audit"))
        proc = run_script("output_digests.py", "--compare", str(old), str(broken))
        assert proc.returncode == 1
        (over,) = [line for line in proc.stdout.splitlines() if line.startswith("OVER")]
        assert over.split()[1] == "inf" and over.split()[-2:] == ["audit", ".a"]

    other = _save_dir(tmp_path / "other", dump(text="t"))
    proc = run_script("output_digests.py", "--compare", str(old), str(other))
    assert proc.returncode == 1 and "'s' and 't' differ" in proc.stdout

    # a renamed key fails and is named, while the numbers both sides share are still compared
    renamed = _save_dir(tmp_path / "renamed", lambda label: json.dumps(
        {"a": 1.5, "inputs_digest": "x", "b2": [0.0, "s"]} if label == "audit" else dump()(label)
    ))
    proc = run_script("output_digests.py", "--compare", str(old), str(renamed))
    assert proc.returncode == 1
    (keys,) = [line for line in proc.stdout.splitlines() if line.startswith("KEYS")]
    assert keys.split()[1] == "3.33e-01" and keys.split()[-5:] == ["audit", ".a", "keys", "-.b", "+.b2"]

    # a parse reprint must be identical, though its number moved by less than RTOL
    def reprints(rate):
        return lambda label: f"[jump]\nrate = {rate}\n" if label.startswith("parse:") else dump()(label)

    old, new = (_save_dir(tmp_path / name, reprints(rate)) for name, rate in (("r0", "0.5"), ("r1", "0.5000000000001")))
    proc = run_script("output_digests.py", "--compare", str(old), str(new))
    differs = [line for line in proc.stdout.splitlines() if line.startswith("DIFFERS")]
    assert proc.returncode == 1 and len(differs) == 7 and all(d.startswith("DIFFERS  parse:") for d in differs)
