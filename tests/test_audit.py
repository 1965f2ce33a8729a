import io
import threading
import tracemalloc

import numpy as np
import pytest

from oqsl import audit, bounds
from oqsl.audit import run_audit
from oqsl.cli import main
from oqsl.linalg import variance


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


def test_audit_deterministic_for_fixed_seed():
    a = run_audit(n_qubit=4, n_qutrit=2, seed=7)
    b = run_audit(n_qubit=4, n_qutrit=2, seed=7)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_audit_seed_changes_output():
    a = run_audit(n_qubit=4, n_qutrit=2, seed=7)
    b = run_audit(n_qubit=4, n_qutrit=2, seed=8)
    assert a.to_csv() != b.to_csv()


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
    audit._integrate_lindblad_block([trial], audit.TimeGrid(0.0, audit.LINDBLAD_T, audit.LINDBLAD_STEPS))
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = audit._evaluate_trial(trial)
    assert {("MT_INTEGRAL", "unitary"), ("SELF_INVERSE", "unitary"), ("STATE_MT", "unitary")} <= set(out)
    assert len(calls) == 1


def test_audit_holds_one_block_of_series():
    # each block is evaluated and dropped before the next is integrated, and
    # no trial keeps a sample stack; holding every trial's samples until the
    # last evaluation traced a 52.4 MB peak here
    tracemalloc.start()
    try:
        assert run_audit(100, 50, seed=1).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6
