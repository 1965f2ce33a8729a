"""Benchmark of the `oqsl` command line.

    python3 bench/run.py --workload builtin-cli --seed 1 --seconds 30 --trace 0

Each operation is one `python -m oqsl ...` process, run one at a time from
this single process, with the BLAS thread count pinned to 1 in the child's
environment. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 every child runs through trace_entry.py and the run prints the
per-layer metrics instead. Every output is checked (see checks.py). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread in every child, which inherits this environment, and in the
# checks of this process; set before numpy loads
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# a run must end within 180 s; a child still running at this point is killed
RUN_BUDGET_S = 170.0
# a malformed output fails its check with one of these
CHECK_ERRORS = (checks.CheckError, KeyError, TypeError, ValueError, IndexError)
IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)\s*$")


@dataclass
class Result:
    op: workloads.Op
    code: int
    wall: float
    cpu: float
    rss_kb: int
    stdout: str
    stderr: str
    trace: dict | None = field(default=None, repr=False)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the audit runs with its default worker count
    env.pop("OQSL_THREADS", None)
    # the warm-up writes the .pyc files that users' runs would find
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(op, cmd, env, deadline, workdir) -> Result:
    """Run one child to its end; wall time, and CPU and peak RSS of that child alone."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        op=op,
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def setup(name, seed, tiny, workdir, env, deadline):
    """Generate the inputs from the seed and run one untimed warm-up process,
    which writes the .pyc files and reads the inputs into the file cache."""
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir, tiny)
    warm = run_process(None, [sys.executable, "-m", "oqsl", *wl.warmup_argv], env, deadline, workdir)
    if warm.code != 0:
        raise SystemExit(f"bench: warm-up process exited {warm.code}:\n{warm.stderr[-2000:]}")
    return wl, time.perf_counter() - t0


def check_outputs(results) -> bool:
    correct = True
    for res in results:
        if res.code != 0:
            lines = [ln for ln in res.stderr.splitlines() if ln.strip() and not ln.startswith("import time:")]
            print(f"failed: {res.op.name} exited {res.code}: {(lines or ['(no stderr)'])[-1][:200]}", file=sys.stderr)
            continue
        try:
            checks.CHECKS[res.op.check](json.loads(res.stdout), res.op.params)
        except CHECK_ERRORS as exc:
            print(f"check failed: {res.op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
    return correct


def e2e_metrics(results, setups) -> dict:
    walls = [r.wall for r in results]
    return {
        "wall_s": (sum(walls), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_s": (sum(r.cpu for r in results), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def import_times(stderr: str) -> dict:
    """Cumulative seconds of the top-level `import oqsl.cli` and of
    scipy.linalg, from -X importtime output."""
    found = {}
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m and (m[3] == "scipy.linalg" or (m[3] == "oqsl.cli" and len(m[2]) == 1)):
            found.setdefault(m[3], int(m[1]) / 1e6)
    return found


def trace_metrics(results) -> tuple[dict, set]:
    """Per-layer self times and counts summed over the run. The unaccounted
    time of an operation is its wall time less the import of oqsl.cli and
    the top-level spans on the main thread."""
    units = layers.metric_units()
    values = dict.fromkeys(units, 0.0)
    unattached = set()
    for res in results:
        imports = import_times(res.stderr)
        values["cli.import_s"] += imports.get("oqsl.cli", 0.0)
        values["cli.import_scipy_linalg_s"] += imports.get("scipy.linalg", 0.0)
        values["trace.wall_s"] += res.wall
        covered = imports.get("oqsl.cli", 0.0)
        if res.trace is None:
            print(f"trace: {res.op.name} wrote no spans", file=sys.stderr)
        else:
            spans = res.trace["spans"]
            in_children = defaultdict(float)
            for sid, parent, name, main, t0, t1 in spans:
                if parent is not None:
                    in_children[parent] += t1 - t0
                elif main:
                    covered += t1 - t0
            for sid, parent, name, main, t0, t1 in spans:
                values[f"{name}_s"] += (t1 - t0) - in_children[sid]
                if f"{name}_calls" in values:
                    values[f"{name}_calls"] += 1
                if name == "audit.trial_eval_busy":
                    values["audit.trials"] += 1
            for key, n in res.trace["counters"].items():
                values[key] += n
            unattached.update(res.trace["unattached"])
        values["trace.unaccounted_s"] += res.wall - covered
    metrics = {
        name: (int(values[name]) if unit in ("count", "bytes") else values[name], unit) for name, unit in units.items()
    }
    return metrics, unattached


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list]:
    """One run: the printed summary, and the results of the timed operations."""
    if not (ROOT / "src" / "oqsl" / "cli.py").is_file():
        raise SystemExit(f"bench: no oqsl sources under {ROOT / 'src'}; run it in a checkout of the repository")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    env = child_env()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl, elapsed = setup(workload, seed, tiny, workdir, env, deadline)
            setups.append(elapsed)
        rounds = max(1, int(seconds // wl.nominal_round_s))
        if trace:
            prefix = [sys.executable, "-X", "importtime", str(HERE / "trace_entry.py")]
        else:
            prefix = [sys.executable, "-m", "oqsl"]
        spans_path = workdir / "spans.json"
        results = []
        for _ in range(rounds):
            for op in wl.ops:
                spans_path.unlink(missing_ok=True)
                op_env = dict(env, OQSL_BENCH_SPANS=str(spans_path)) if trace else env
                res = run_process(op, prefix + op.argv, op_env, deadline, workdir)
                if trace and spans_path.exists():
                    res.trace = json.loads(spans_path.read_text(encoding="utf-8"))
                results.append(res)
        correct = check_outputs(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unattached = set()
    if trace:
        metrics, unattached = trace_metrics(results)
    else:
        metrics = e2e_metrics(results, setups)
    summary = {
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.code != 0 for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "rounds": rounds,
        "unattached": sorted(unattached),
    }
    return summary, results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="sets the number of rounds the run makes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, {result.pop('rounds')} round(s)")
    unattached = result.pop("unattached")
    if unattached:
        print("spans not attached: " + ", ".join(unattached))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
