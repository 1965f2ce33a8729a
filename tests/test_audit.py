import io
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oqsl
from oqsl import audit, bounds
from oqsl.audit import run_audit
from oqsl.cli import main
from oqsl.linalg import NumericError, ValidationError, variance

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the audit forks only where os.fork exists")


@pytest.fixture
def serial(monkeypatch):
    # one CPU: both blocks run in this process, in series
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    # two CPUs whatever the host offers; the list holds one entry per fork
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


def audit_cli(trials: int, seed: int):
    out, err = io.StringIO(), io.StringIO()
    code = main(["audit", "--trials", str(trials), "--seed", str(seed), "--format", "json"], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def small_summary():
    return run_audit(n_qubit=6, n_qutrit=3, seed=42)


def test_small_audit_passes(small_summary):
    assert small_summary.passed
    assert all(r.max_violation <= 1e-6 for r in small_summary.rows)


def test_audit_covers_every_check(small_summary):
    keys = {(r.check, r.kind) for r in small_summary.rows}
    expected = {
        ("MT_INTEGRAL", "unitary"),
        ("SELF_INVERSE", "unitary"),
        ("STATE_MT", "unitary"),
        ("PURITY_HS", "unitary"),
        ("MIN_NORM", "unitary"),
        ("GENERATOR_HS", "unitary"),
        ("GENERATOR_HS", "lindblad"),
        ("STATE_INDEP", "unitary"),
        ("STATE_INDEP", "lindblad"),
        ("BATTERY_CT1", "unitary"),
        ("BATTERY_CT2", "unitary"),
        ("CORR_CLOSED", "unitary"),
        ("CORR_OPEN", "lindblad"),
        ("COMM_CLOSED", "unitary"),
        ("COMM_OPEN", "lindblad"),
        ("KRAUS", "kraus"),
        ("RATE_ROBERTSON", "unitary"),
        ("RATE_HOLDER_OP", "unitary"),
        ("RATE_CS_HS", "lindblad"),
        ("DUALITY", "lindblad"),
    }
    assert keys == expected


def printed(seed, fmt):
    """What ``oqsl audit`` prints for 4 qubit and 2 qutrit trials."""
    out = io.StringIO()
    assert main(["audit", "--trials", "4", "--seed", str(seed), "--format", fmt], out=out, err=io.StringIO()) == 0
    return out.getvalue()


def test_audit_deterministic_for_fixed_seed():
    assert printed(7, "csv") == printed(7, "csv")
    assert printed(7, "json") == printed(7, "json")


def test_audit_seed_changes_output():
    assert printed(7, "csv") != printed(8, "csv")


def test_audit_mutation_hook_reports_violation(monkeypatch):
    rate_audit = bounds.rate_audit

    def flipped(ctx):
        # a negated dH flips the sign of the Robertson right-hand side
        ctx.delta_H = -ctx.delta_H
        return rate_audit(ctx)

    monkeypatch.setattr(bounds, "rate_audit", flipped)
    summary = run_audit(n_qubit=4, n_qutrit=0, seed=42)
    rob = [r for r in summary.rows if r.check == "RATE_ROBERTSON"]
    assert rob and rob[0].max_violation > 0.1
    assert not summary.passed


def test_audit_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"the audit started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_audit(n_qubit=2, n_qutrit=1).passed


def test_audit_evolves_kraus_trials_in_their_block(monkeypatch):
    # the qubit trials' Kraus evolution is one batch beside the Lindblad
    # block, kept on each trial as its evaluation context
    def refuse(*args, **kwargs):
        raise AssertionError("the audit evolved a Kraus trial on its own")

    monkeypatch.setattr(audit, "evolve_kraus_heisenberg", refuse)
    assert run_audit(2, 1).passed
    trials = [audit._sample_trial(1, 2, i) for i in range(2)]
    audit._integrate_lindblad_block(trials, audit.LINDBLAD_GRID)
    for t in trials:
        assert t.kraus.kind == "kraus" and t.kraus.traj.grid == audit.KRAUS_GRID


def test_audit_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--trials", "1", "--workers", "2"], out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_audit_cli_roundtrip():
    out, err = io.StringIO(), io.StringIO()
    code = main(["audit", "--trials", "4", "--seed", "5"], out=out, err=err)
    assert code == 0, err.getvalue()
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "check,kind,max_violation,trials"
    out2 = io.StringIO()
    assert main(["audit", "--trials", "4", "--seed", "5"], out=out2, err=io.StringIO()) == 0
    assert out.getvalue() == out2.getvalue()


def test_audit_trial_diagonalizes_h_once(monkeypatch):
    # O, the self-inverse O_si and the projector P all evolve under one H
    trial = audit._sample_trial(1, 3, 0)
    assert np.sqrt(variance(trial.H, trial.rho)) > 1e-9
    audit._integrate_lindblad_block([trial], audit.TimeGrid(audit.LINDBLAD_T, audit.LINDBLAD_STEPS))
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = audit._evaluate_trial(trial)
    assert {("MT_INTEGRAL", "unitary"), ("SELF_INVERSE", "unitary"), ("STATE_MT", "unitary")} <= set(out)
    assert len(calls) == 1


def test_audit_holds_one_block_of_series(serial):
    # each half-block is evaluated and dropped before the next is integrated,
    # and no trial keeps a sample stack; holding every trial's samples until
    # the last evaluation traced a 52.4 MB peak here, and whole blocks 22.3 MB
    # (13.2 MB in half-blocks)
    tracemalloc.start()
    try:
        assert run_audit(100, 50, seed=1).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15.9e6


@needs_fork
def test_audit_forked_parent_holds_one_block(forks):
    # the parent holds one of its half-blocks and the child's results, never
    # two half-blocks' series: 13.1 MB traced here, 22.3 MB with whole blocks
    tracemalloc.start()
    try:
        assert run_audit(100, 50, seed=1).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert peak < 15.7e6


def test_audit_builds_each_rate_probe_once(serial, monkeypatch):
    # the probe declared before the evolution is the one the rate audit reads
    calls = []
    apply = bounds.lindblad_apply

    def counted(gen, rho, *args):
        calls.append(gen)
        return apply(gen, rho, *args)

    monkeypatch.setattr(bounds, "lindblad_apply", counted)
    assert run_audit(2, 1).passed
    assert len(calls) == 3  # one Lindblad context per trial


def test_audit_hashes_no_report(serial, monkeypatch):
    # nothing the audit prints reads a report's inputs_digest
    calls = []
    digest = bounds._digest

    def counted(*parts):
        calls.append(parts)
        return digest(*parts)

    monkeypatch.setattr(bounds, "_digest", counted)
    assert run_audit(2, 1).passed
    assert calls == []


# ---------------------------------------------------------------------------
# the two halves of each dimension's trials in two processes


@needs_fork
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trials", [1, 2, 4])
def test_audit_forked_prints_serial_bytes(trials, seed, forks, monkeypatch):
    forked = audit_cli(trials, seed)
    assert forked[0] == 0, forked[2]
    assert len(forks) == (1 if trials >= 2 else 0)  # --trials 1 has no trial in the parent's halves
    assert_no_child()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert audit_cli(trials, seed) == forked
    assert len(forks) == (1 if trials >= 2 else 0)


@needs_fork
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(("error", "code", "prefix"), [(NumericError, 3, "numeric error"), (ValidationError, 2, "error")])
def test_audit_block_error_exits_as_in_series(dim, error, code, prefix, forks, monkeypatch):
    evaluate = audit._evaluate_trial

    def failing(trial):
        if trial.dim == dim:
            raise error(f"trial {trial.index} of dimension {dim} failed")
        return evaluate(trial)

    monkeypatch.setattr(audit, "_evaluate_trial", failing)
    forked = audit_cli(2, 1)
    assert len(forks) == 1
    assert_no_child()
    assert forked == (code, "", f"{prefix}: trial 0 of dimension {dim} failed\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert audit_cli(2, 1) == forked


class _Unpicklable(ValueError):
    def __reduce__(self):
        raise TypeError("not picklable")


@needs_fork
@pytest.mark.parametrize(("end", "status"), [("exit", 7), ("unpicklable", 1)])
def test_audit_child_without_result_is_numeric_error(end, status, forks, monkeypatch):
    evaluate, parent = audit._evaluate_trial, os.getpid()

    def ending(trial):
        if trial.dim == 3:
            assert os.getpid() != parent, "the second half of the qutrit trials ran in the parent"
            if end == "exit":
                os._exit(status)
            raise _Unpicklable("cannot be sent back")
        return evaluate(trial)

    monkeypatch.setattr(audit, "_evaluate_trial", ending)
    code, out, err = audit_cli(2, 1)
    assert len(forks) == 1
    assert_no_child()
    assert (code, out) == (3, "")
    assert err == (f"numeric error: the audit's forked child (the second half of each dimension's trials) ended "
                   f"with exit status {status} and no result\n")


def test_audit_with_threaded_blas_prints_one_thread_bytes():
    # a fork after a multi-threaded BLAS has started must neither hang nor
    # move a digit
    argv = [sys.executable, "-m", "oqsl", "audit", "--trials", "20", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(Path(oqsl.__file__).parent.parent)}
    runs = {
        n: subprocess.run(argv, env={**env, "OPENBLAS_NUM_THREADS": n}, capture_output=True, text=True, timeout=60)
        for n in ("1", "2")
    }
    assert runs["2"].returncode == 0, runs["2"].stderr
    assert runs["2"].stdout == runs["1"].stdout
