#!/usr/bin/env python3
"""Print the sha256 of the CLI's output for a fixed set of commands: the
``--format json`` output of ``bound --bounds ALL`` on the six built-in
systems, of the four scenarios and of ``audit --trials 100 --seed 1``, and
the canonical reprint of ``parse`` on the six built-in systems.

Run it from two checkouts and diff the lines to show that a refactor leaves
every output byte-identical:

    python scripts/output_digests.py > digests.txt

Each command runs as its own ``python -m oqsl`` process against the ``src/``
tree next to this script.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "src" / "oqsl" / "systems"

# (file, observable, second observable, horizon)
BUILTIN_BOUNDS = (
    ("dephasing.sys", "O", None, 1.5708),
    ("kraus_dephasing.sys", "O", None, 1.5708),
    ("battery.sys", "HB", None, 1.0),
    ("qutrit_decay.sys", "N", None, 1.0),
    ("two_qubit.sys", "A", "B", 1.0),
    ("tight_qubit.sys", "O", None, 1.5707963),
)
SCENARIOS = ("tight-qubit", "dephasing", "battery-degenerate", "kraus-dephasing")


def commands():
    for fname, obs, obs_b, tmax in BUILTIN_BOUNDS:
        argv = ["bound", "--system", str(SYSTEMS / fname), "--observable", obs]
        if obs_b:
            argv += ["--observable-b", obs_b]
        yield f"bound:{fname}", argv + ["--tmax", repr(tmax), "--bounds", "ALL", "--format", "json"]
    for name in SCENARIOS:
        yield f"scenario:{name}", ["scenario", name, "--format", "json"]
    yield "audit", ["audit", "--trials", "100", "--seed", "1", "--format", "json"]
    for fname, *_ in BUILTIN_BOUNDS:
        yield f"parse:{fname}", ["parse", "--system", str(SYSTEMS / fname)]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for label, argv in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "oqsl", *argv], capture_output=True, env=env, cwd=ROOT
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  exit={proc.returncode}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
