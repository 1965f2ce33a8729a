"""Seeded random-system sweeps: bound validity (T_qsl <= T), pointwise rate
inequalities, and Heisenberg/Schrodinger duality.

The random sampler lives here, behind the audit command, so the core library
stays deterministic and side-effect free. Every trial owns a generator seeded
from (seed, dim, index); summaries are therefore bit-identical for a fixed
seed. Each samples the commutator bounds' second observable B independently
of O, so the pair need not commute at t = 0. The trials of one dimension
form two half-blocks, trials [0, n/2) and [n/2, n), each evolved through the
batched kernels that the CLI also uses:
Lindblad in both pictures (observables through ``dynamics.trajectories``
and states through ``dynamics.lindblad_chunks``, on the route that it picks
for the audit's grid) and, for qubits, Kraus (``trajectories``).
Their chunks are reduced as they arrive, so each trial keeps its evaluation
contexts, whose trajectories hold the series its bounds and rate audit
declare (an operator-norm speed on pure trials only), and tr(O rho(t)), but
no sample stack. The half-blocks share no data: where the process may use
two CPUs and runs no other thread, a forked child runs the second half of
each dimension beside the first and sends back its per-trial results, and
otherwise the four run in turn, each evaluated before the next is
integrated. Either way each runs the same arithmetic, so the summary is the
same to the last bit.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading

import numpy as np

from . import bounds
from .dynamics import (
    DephasingKraus,
    LindbladGenerator,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,  # not called here, but bench/layers.py wraps it in this module
    evolve_unitary_heisenberg,
    lindblad_chunks,
    trajectories,
)
from .linalg import DensityState, NumericError, hermitian_op_norm, op_norm, sigma_x

UNITARY_T = 1.0
UNITARY_STEPS = 1600
LINDBLAD_T = 0.8
LINDBLAD_STEPS = 2000
KRAUS_T = 1.2
KRAUS_STEPS = 240
# one grid per dynamics kind, shared by every trial, so its times are built once
UNITARY_GRID = TimeGrid(UNITARY_T, UNITARY_STEPS)
LINDBLAD_GRID = TimeGrid(LINDBLAD_T, LINDBLAD_STEPS)
KRAUS_GRID = TimeGrid(KRAUS_T, KRAUS_STEPS)
# the largest violation, T_qsl - T or LHS - RHS, that a check passes with
TOL = 1e-6


class AuditRow:
    def __init__(self, check: str, kind: str, max_violation: float, trials: int):
        self.check, self.kind, self.max_violation, self.trials = check, kind, max_violation, trials


class AuditSummary:
    def __init__(self, seed: int, n_qubit: int, n_qutrit: int, rows: list):
        self.seed, self.n_qubit, self.n_qutrit, self.rows = seed, n_qubit, n_qutrit, rows

    @property
    def passed(self) -> bool:
        return all(r.max_violation <= TOL for r in self.rows)


# ---------------------------------------------------------------------------
# sampling


def random_hermitian(rng, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (G + G.conj().T) / 2.0
    return H / hermitian_op_norm(H)


def random_state(rng, dim: int, pure: bool) -> DensityState:
    if pure:
        return DensityState.pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    W = G @ G.conj().T
    return DensityState.from_matrix(W / np.trace(W).real)


def random_self_inverse(rng, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    signs = rng.choice([-1.0, 1.0], size=dim)
    signs[0], signs[1] = 1.0, -1.0  # keep the spectrum genuinely two-sided
    return (Q * signs) @ Q.conj().T


def random_jump(rng, dim: int):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * G / op_norm(G), float(rng.uniform(0.0, 1.0))


class _Trial:
    """One random trial's inputs; ``B`` is the commutator bounds' second
    observable, independent of O. The batched integration attaches
    ``lindblad`` (its trajectory already evolved), ``kraus`` (qubit trials
    only, likewise) and ``lind_rho_expect``, tr(O rho(t)) in the
    Schrodinger picture, after sampling."""

    def __init__(self, index: int, dim: int, H: np.ndarray, O: np.ndarray, O_si: np.ndarray, P: np.ndarray,
                 rho: DensityState, jumps: tuple, kraus_gamma: float, B: np.ndarray,
                 lindblad: bounds.EvalContext | None = None, kraus: bounds.EvalContext | None = None,
                 lind_rho_expect: np.ndarray | None = None):
        self.index, self.dim, self.H, self.O, self.O_si, self.P = index, dim, H, O, O_si, P
        self.rho, self.jumps, self.kraus_gamma, self.B = rho, jumps, kraus_gamma, B
        self.lindblad, self.kraus, self.lind_rho_expect = lindblad, kraus, lind_rho_expect


def _sample_trial(seed: int, dim: int, index: int) -> _Trial:
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, index]))
    pure = index % 2 == 0
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return _Trial(
        index=index,
        dim=dim,
        H=random_hermitian(rng, dim),
        O=random_hermitian(rng, dim),
        O_si=random_self_inverse(rng, dim),
        P=DensityState.pure(ket).matrix,
        rho=random_state(rng, dim, pure),
        jumps=(random_jump(rng, dim), random_jump(rng, dim)),
        kraus_gamma=float(rng.uniform(0.5, 2.0)),
        B=random_hermitian(rng, dim),
    )


# ---------------------------------------------------------------------------
# batched Lindblad and Kraus integration across equal-dimension trials


def _integrate_lindblad_block(trials: list[_Trial], grid: TimeGrid) -> None:
    """Evolve every trial's Heisenberg observable and Schrodinger state at
    once through the shared Lindblad kernel, and for qubits sigma_x through
    the shared Kraus kernel on KRAUS_GRID. Attaches to each trial its
    Lindblad (and Kraus) evaluation context, evolved with the probes it
    declares, and of its states only tr(O rho(t)), which is all the duality
    check reads."""
    if not trials:
        return
    gens = [LindbladGenerator(H=t.H, jumps=t.jumps) for t in trials]
    rhos = [t.rho for t in trials]
    contexts = [bounds.EvalContext(gen, grid, t.O, t.rho, None, B=t.B, rates=True) for t, gen in zip(trials, gens)]
    O0s, probes, reads = np.stack([t.O for t in trials]), [c.probes for c in contexts], [c.reads for c in contexts]
    trajs = trajectories(gens, O0s, rhos, grid, probes, reads)
    for t, ctx, traj in zip(trials, contexts, trajs):
        ctx.traj, t.lindblad = traj, ctx
    if trials[0].dim == 2:
        contexts = [bounds.EvalContext(DephasingKraus(t.kraus_gamma), KRAUS_GRID, sigma_x, t.rho, None) for t in trials]
        families = [ctx.generator for ctx in contexts]
        O0s = np.broadcast_to(sigma_x, (len(trials), 2, 2))
        probes, reads = [c.probes for c in contexts], [c.reads for c in contexts]
        trajs = trajectories(families, O0s, rhos, KRAUS_GRID, probes, reads)
        for t, ctx, traj in zip(trials, contexts, trajs):
            ctx.traj, t.kraus = traj, ctx
    rho_expect = np.empty((len(trials), grid.steps + 1))
    for start, samples, _ in lindblad_chunks(gens, np.stack([r.matrix for r in rhos]), grid, heisenberg=False):
        for b, (t, rho_samples) in enumerate(zip(trials, samples)):
            rho_expect[b, start : start + samples.shape[1]] = np.einsum("ab,tba->t", t.O, rho_samples).real
    for t, series in zip(trials, rho_expect):
        t.lind_rho_expect = series


# ---------------------------------------------------------------------------
# per-trial evaluation


def _evaluate_trial(trial: _Trial) -> dict:
    """T_qsl - T for every registry bound that applies under the trial's
    unitary, Lindblad and (qubit only) Kraus dynamics, the rate inequalities
    and the Heisenberg/Schrodinger duality. H is diagonalized once: the
    self-inverse and projector slots are read at the grid's two ends in O's
    eigenbasis."""
    unitary = bounds.EvalContext(
        UnitaryGenerator(trial.H), UNITARY_GRID, trial.O, trial.rho, evolve_unitary_heisenberg,
        B=trial.B, self_inverse=trial.O_si, projector=trial.P, rates=True,
    )
    lindblad = trial.lindblad
    contexts = [unitary, lindblad] + ([trial.kraus] if trial.kraus else [])

    out: dict[tuple[str, str], float] = {}
    for ctx in contexts:
        for report in bounds.evaluate_all(ctx):
            out[(report.bound_id, ctx.kind)] = report.T_qsl - ctx.T
    for ctx in (unitary, lindblad):
        for name, v in bounds.rate_audit(ctx).items():
            out[(name, ctx.kind)] = v
    # <O(t)> in the Heisenberg picture against tr(O rho(t))
    out[("DUALITY", "lindblad")] = float(np.abs(trial.lind_rho_expect - lindblad.traj.expect).max())
    return out


# ---------------------------------------------------------------------------
# driver


def _run_block(seed: int, dim: int, start: int, stop: int) -> list[dict]:
    """The per-trial results of the block of trials [start, stop) of
    dimension ``dim``; its samples are dropped when it returns."""
    block = [_sample_trial(seed, dim, i) for i in range(start, stop)]
    _integrate_lindblad_block(block, LINDBLAD_GRID)
    return [_evaluate_trial(t) for t in block]


def _run_halves(seed: int, halves) -> list:
    """The results of each half-block in turn, up to the first that raises,
    whose exception ends the list (run_audit raises it in the serial order)."""
    out = []
    try:
        for half in halves:
            out.append(_run_block(seed, *half))
    except Exception as exc:
        out.append(exc)
    return out


def _may_fork(n_qubit: int, n_qutrit: int) -> bool:
    """Whether the half-blocks may run in two processes: the parent's first
    halves have trials, the process may run on two CPUs (``sched_getaffinity``
    exists on Linux only), and it has no other thread, which a fork would not copy."""
    if n_qubit // 2 + n_qutrit // 2 < 1 or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def _run_halves_forked(seed: int, halves) -> list:
    """The first half of each dimension here and the second in a forked
    child, which pickles its outcomes (:func:`_run_halves`) into a pipe; the
    outcomes come back in the serial order, and no child outlives the call."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = _run_halves(seed, halves[1::2])
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            # never return into the caller, nor flush its buffers a second time
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            first = _run_halves(seed, halves[0::2])
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            raise
    if code != 0:
        # the child writes its whole payload, or dies before exit status 0
        raise NumericError(f"the audit's forked child (the second half of each dimension's trials) ended with "
                           f"exit status {code} and no result")
    second = pickle.loads(data)  # written by the child above
    return [x for pair in itertools.zip_longest(first, second) for x in pair if x is not None]


def run_audit(n_qubit: int = 100, n_qutrit: int = 50, seed: int = 42) -> AuditSummary:
    """Run the full validity/rate/duality sweep and aggregate max violations."""
    # the four half-blocks (dim, start, stop) in the serial order
    halves = [(dim, lo, hi) for dim, n in ((2, n_qubit), (3, n_qutrit)) for lo, hi in ((0, n // 2), (n // 2, n))]
    outcomes = _run_halves_forked(seed, halves) if _may_fork(n_qubit, n_qutrit) else _run_halves(seed, halves)
    worst: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for outcome in outcomes:
        if isinstance(outcome, Exception):  # the first in the serial order
            raise outcome
        for key, v in (item for res in outcome for item in res.items()):
            worst[key] = max(worst.get(key, float("-inf")), v)
            counts[key] = counts.get(key, 0) + 1
    rows = [
        AuditRow(check=check, kind=kind, max_violation=worst[(check, kind)], trials=counts[(check, kind)])
        for check, kind in sorted(worst)
    ]
    return AuditSummary(seed=seed, n_qubit=n_qubit, n_qutrit=n_qutrit, rows=rows)
