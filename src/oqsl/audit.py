"""Seeded random-system sweeps: bound validity (T_qsl <= T), pointwise rate
inequalities, and Heisenberg/Schrodinger duality.

The random sampler lives here, behind the audit command, so the core library
stays deterministic and side-effect free. Every trial owns a generator seeded
from (seed, dim, index); summaries are therefore bit-identical for a fixed
seed. The Lindblad evolution of all trials of one dimension, in both
pictures, runs through the kernel that the CLI also uses
(``dynamics.lindblad_chunks``): the audit's rates are constant, so each
step is one batched mat-vec with the exact propagator, and the kernel also
returns the generator speeds. Its chunks are reduced over the whole block as
they arrive: each trial keeps its Heisenberg trajectory's scalar series, its
O(0) and O(T), the series of the probe matrices that CORR_OPEN and
COMM_OPEN read, and tr(O rho(t)) of its states, but no sample stack. Each
dimension's block is integrated and then its trials are evaluated, on the
calling thread, before the next block starts, so at most one block's series
are held at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .dynamics import (
    DephasingKraus,
    KrausGenerator,
    LindbladGenerator,
    TimeGrid,
    Trajectory,
    evolve_kraus_heisenberg,
    evolve_unitary_heisenberg,
    lindblad_chunks,
    lindblad_trajectories,
)
from .linalg import DensityState, op_norm, sigma_x

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
            "rows": [
                {
                    "check": r.check,
                    "kind": r.kind,
                    "max_violation": r.max_violation,
                    "trials": r.trials,
                }
                for r in self.rows
            ],
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
    lind_traj: Trajectory | None = None
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
# batched Lindblad integration across equal-dimension trials


def _integrate_lindblad_block(trials: list[_Trial], grid: TimeGrid) -> None:
    """Evolve every trial's Heisenberg observable and Schrodinger state at
    once through the shared Lindblad kernel, reducing its chunks as they
    arrive. Attaches to each trial its Lindblad trajectory, which keeps the
    series of the probes CORR_OPEN and COMM_OPEN read, and of its states
    only tr(O rho(t)), which is all the duality check reads."""
    if not trials:
        return
    gens = [LindbladGenerator(H=t.H, jumps=t.jumps) for t in trials]
    Os = np.stack([t.O for t in trials])
    rhos = [t.rho for t in trials]
    probes = [bounds.declared_probes(t.O, t.B, t.rho) for t in trials]
    for t, traj in zip(trials, lindblad_trajectories(gens, Os, rhos, grid, probes)):
        t.lind_traj = traj
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
    rho, O, H = trial.rho, trial.O, trial.H
    B = trial.B
    unitary = bounds.EvalContext(
        "unitary", UNITARY_GRID, O, rho, lambda: evolve_unitary_heisenberg(O, H, rho, UNITARY_GRID),
        H=H, B=B, self_inverse=trial.O_si, projector=trial.P,
    )
    # the Lindblad trajectory comes from the block integrator
    lindblad = bounds.EvalContext("lindblad", LINDBLAD_GRID, O, rho, lambda: trial.lind_traj, H=H, B=B)
    contexts = [unitary, lindblad]
    if trial.dim == 2:
        kgen = KrausGenerator(DephasingKraus(trial.kraus_gamma))
        contexts.append(
            bounds.EvalContext(
                "kraus", KRAUS_GRID, sigma_x, rho, lambda: evolve_kraus_heisenberg(sigma_x, kgen, rho, KRAUS_GRID)
            )
        )

    out: dict[tuple[str, str], float] = {}
    for ctx in contexts:
        for report in bounds.evaluate_all(ctx):
            out[(report.bound_id, ctx.kind)] = report.T_qsl - ctx.T
    for ctx in (unitary, lindblad):
        audit = bounds.rate_audit(ctx)
        for name, v in audit.violations.items():
            out[(name, ctx.kind)] = v
    # <O(t)> in the Heisenberg picture against tr(O rho(t))
    out[("DUALITY", "lindblad")] = float(np.abs(trial.lind_rho_expect - trial.lind_traj.expect).max())
    return out


# ---------------------------------------------------------------------------
# driver


def run_audit(n_qubit: int = 100, n_qutrit: int = 50, seed: int = 42, tol: float = 1e-6) -> AuditSummary:
    """Run the full validity/rate/duality sweep and aggregate max violations."""
    results = []
    for dim, count in ((2, n_qubit), (3, n_qutrit)):
        # evaluated before the next block is integrated, which drops this one
        block = [_sample_trial(seed, dim, i) for i in range(count)]
        _integrate_lindblad_block(block, LINDBLAD_GRID)
        results += [_evaluate_trial(t) for t in block]

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
