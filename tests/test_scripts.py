"""Smoke tests of the experiment scripts, each in its own interpreter, so a
change to the public API they import shows up here."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_plot_dephasing_script_without_plot(tmp_path):
    out = tmp_path / "dephasing.csv"
    proc = run_script("plot_dephasing.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 64 rows" in proc.stdout and "passed=True" in proc.stdout
    assert len(out.read_text().splitlines()) == 65
