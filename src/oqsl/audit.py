"""Seeded random-system sweeps: bound validity (T_qsl <= T), pointwise rate
inequalities, and Heisenberg/Schrodinger duality.

The random sampler lives here, behind the audit command, so the core library
stays deterministic and side-effect free. Every trial owns a generator seeded
from (seed, dim, index); summaries are therefore bit-identical for a fixed
seed. The trials of one dimension form a block, evolved through the batched
kernels that the CLI also uses: Lindblad in both pictures
(``dynamics.lindblad_chunks``, by the exact propagator, as the audit's rates
are constant) and, for qubits, Kraus (``dynamics.kraus_trajectories``).
Their chunks are reduced as they arrive, so each trial keeps its evaluation
contexts, whose trajectories hold the scalar series, O(0), O(T) and the
series its bounds and rate audit declare, and tr(O rho(t)), but no sample
stack. The two blocks share no data: where the process may use two CPUs and
runs no other thread, a forked child runs the qutrit block beside the qubit
block and sends back its per-trial results, and otherwise the qubit block is
evaluated before the qutrit block is integrated. Either way each block runs
the same arithmetic, so the summary is the same to the last bit.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds
from .dynamics import (
    DephasingKraus,
    LindbladGenerator,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,  # not called here, but bench/layers.py wraps it in this module
    evolve_unitary_heisenberg,
    kraus_trajectories,
    lindblad_chunks,
    lindblad_trajectories,
)
from .linalg import DensityState, NumericError, op_norm, sigma_x

UNITARY_T = 1.0
UNITARY_STEPS = 1600
LINDBLAD_T = 0.8
LINDBLAD_STEPS = 2000
KRAUS_T = 1.2
KRAUS_STEPS = 240
# one grid per dynamics kind, shared by every trial, so its times are built once
UNITARY_GRID = TimeGrid(0.0, UNITARY_T, UNITARY_STEPS)
LINDBLAD_GRID = TimeGrid(0.0, LINDBLAD_T, LINDBLAD_STEPS)
KRAUS_GRID = TimeGrid(0.0, KRAUS_T, KRAUS_STEPS)


@dataclass(frozen=True)
class AuditRow:
    check: str
    kind: str
    max_violation: float
    trials: int


@dataclass(frozen=True)
class AuditSummary:
    seed: int
    tol: float
    n_qubit: int
    n_qutrit: int
    rows: list = field(compare=False)

    @property
    def passed(self) -> bool:
        return all(r.max_violation <= self.tol for r in self.rows)

    def to_csv(self) -> str:
        lines = ["check,kind,max_violation,trials"]
        for r in self.rows:
            lines.append(f"{r.check},{r.kind},{r.max_violation:.12g},{r.trials}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema": "oqsl.audit/v1",
            "seed": self.seed,
            "tolerance": self.tol,
            "n_qubit": self.n_qubit,
            "n_qutrit": self.n_qutrit,
            "passed": self.passed,
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# sampling


def random_hermitian(rng, dim: int, norm: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (G + G.conj().T) / 2.0
    return norm * H / op_norm(H)


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


def random_jump(rng, dim: int, norm: float = 0.5):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return norm * G / op_norm(G), float(rng.uniform(0.0, 1.0))


@dataclass
class _Trial:
    index: int
    dim: int
    pure: bool
    H: np.ndarray
    O: np.ndarray
    O_si: np.ndarray
    P: np.ndarray
    rho: DensityState
    jumps: tuple
    comm_coeffs: np.ndarray
    kraus_gamma: float
    # batched-integration results, attached after sampling
    lindblad: bounds.EvalContext | None = None  # its trajectory already evolved
    kraus: bounds.EvalContext | None = None  # qubit trials only, likewise
    lind_rho_expect: np.ndarray | None = None  # tr(O rho(t)), Schrodinger picture

    @property
    def B(self) -> np.ndarray:
        """The commutator bounds' second observable, a polynomial in O."""
        c, O = self.comm_coeffs, self.O
        return c[0] * np.eye(self.dim) + c[1] * O + c[2] * (O @ O)


def _sample_trial(seed: int, dim: int, index: int) -> _Trial:
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, index]))
    pure = index % 2 == 0
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return _Trial(
        index=index,
        dim=dim,
        pure=pure,
        H=random_hermitian(rng, dim),
        O=random_hermitian(rng, dim),
        O_si=random_self_inverse(rng, dim),
        P=DensityState.pure(ket).matrix,
        rho=random_state(rng, dim, pure),
        jumps=(random_jump(rng, dim), random_jump(rng, dim)),
        comm_coeffs=rng.standard_normal(3),
        kraus_gamma=float(rng.uniform(0.5, 2.0)),
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
    trajs = lindblad_trajectories(gens, np.stack([t.O for t in trials]), rhos, grid, [ctx.probes for ctx in contexts])
    for t, ctx, traj in zip(trials, contexts, trajs):
        ctx.traj, t.lindblad = traj, ctx
    if trials[0].dim == 2:
        contexts = [bounds.EvalContext(DephasingKraus(t.kraus_gamma), KRAUS_GRID, sigma_x, t.rho, None) for t in trials]
        families = [ctx.generator for ctx in contexts]
        O0s = np.broadcast_to(sigma_x, (len(trials), 2, 2))
        trajs = kraus_trajectories(families, O0s, rhos, KRAUS_GRID, [ctx.probes for ctx in contexts])
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


def _run_block(seed: int, dim: int, count: int) -> list[dict]:
    """The per-trial results of the block of ``count`` trials of dimension
    ``dim``; its samples are dropped when it returns."""
    block = [_sample_trial(seed, dim, i) for i in range(count)]
    _integrate_lindblad_block(block, LINDBLAD_GRID)
    return [_evaluate_trial(t) for t in block]


def _may_fork(n_qubit: int, n_qutrit: int) -> bool:
    """Whether the two blocks may run in two processes: both have trials, the
    process may run on two CPUs (``sched_getaffinity`` exists on Linux only),
    and it has no other thread, which a fork would not copy."""
    if n_qubit < 1 or n_qutrit < 1 or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def _run_blocks_forked(seed: int, n_qubit: int, n_qutrit: int) -> list[dict]:
    """The qubit block here and the qutrit block in a forked child, which
    pickles its results, or the exception it raised, into a pipe; the results
    come back in the serial order, and no child outlives the call."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = _run_block(seed, 3, n_qutrit)
            except Exception as exc:  # re-raised in the parent
                payload = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            # never return into the caller, nor flush its buffers a second time
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            qubit = _run_block(seed, 2, n_qubit)
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            raise
    if code != 0:
        # the child writes its whole payload, or dies before exit status 0
        raise NumericError(f"the audit's qutrit block ended with exit status {code} and no result")
    qutrit = pickle.loads(data)  # written by the child above
    if isinstance(qutrit, Exception):
        raise qutrit
    return qubit + qutrit


def run_audit(n_qubit: int = 100, n_qutrit: int = 50, seed: int = 42, tol: float = 1e-6) -> AuditSummary:
    """Run the full validity/rate/duality sweep and aggregate max violations."""
    if _may_fork(n_qubit, n_qutrit):
        results = _run_blocks_forked(seed, n_qubit, n_qutrit)
    else:
        results = _run_block(seed, 2, n_qubit) + _run_block(seed, 3, n_qutrit)

    worst: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for res in results:
        for key, v in res.items():
            worst[key] = max(worst.get(key, float("-inf")), v)
            counts[key] = counts.get(key, 0) + 1
    rows = [
        AuditRow(check=check, kind=kind, max_violation=worst[(check, kind)], trials=counts[(check, kind)])
        for check, kind in sorted(worst)
    ]
    return AuditSummary(seed=seed, tol=tol, n_qubit=n_qubit, n_qutrit=n_qutrit, rows=rows)
