"""Smoke tests of the experiment scripts, each in its own interpreter, so a
change to the public API they import shows up here."""

import importlib.util
import json
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
    assert proc.stdout.count("ok ") == 32 and "1.00e-13" in proc.stdout

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
