"""Seeded random-system sweeps: bound validity (T_qsl <= T), pointwise rate
inequalities, and Heisenberg/Schrodinger duality.

The random sampler lives here, behind the audit command, so the core library
stays deterministic and side-effect free. Every trial owns a generator seeded
from (seed, dim, index); summaries are therefore bit-identical for a fixed
seed and independent of worker scheduling. The Lindblad evolution of all
trials of one dimension, in both pictures, is one call to the kernel that
the CLI also uses (``dynamics.propagate_lindblad``): the audit's rates are
constant, so each step is one batched mat-vec with the exact propagator.
Per-trial bound evaluation, including the Lindblad generator speeds, runs on
a thread pool capped by ``max_workers`` or the ``OQSL_THREADS`` environment
variable.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .dynamics import (
    DephasingKraus,
    KrausGenerator,
    LindbladGenerator,
    TimeGrid,
    evolve_kraus_heisenberg,
    evolve_unitary_heisenberg,
    lindblad_trajectory,
    propagate_lindblad,
)
from .linalg import DEFAULT_TOL, DensityState, hs_norm, op_norm, tr_norm, variance
from .sysdl import SystemSpec

UNITARY_T = 1.0
UNITARY_STEPS = 1600
LINDBLAD_T = 0.8
LINDBLAD_STEPS = 2000
KRAUS_T = 1.2
KRAUS_STEPS = 240


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
    lind_O: np.ndarray | None = None
    lind_rho: np.ndarray | None = None


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
    once through the shared Lindblad kernel; attaches (n_times, d, d) sample
    arrays to each trial."""
    if not trials:
        return
    gens = [LindbladGenerator(H=t.H, jumps=t.jumps) for t in trials]
    O_traj = propagate_lindblad(gens, np.stack([t.O for t in trials]), grid, heisenberg=True)
    rho_traj = propagate_lindblad(gens, np.stack([t.rho.matrix for t in trials]), grid, heisenberg=False)
    for t, O_samples, rho_samples in zip(trials, O_traj, rho_traj):
        t.lind_O = O_samples
        t.lind_rho = rho_samples


# ---------------------------------------------------------------------------
# per-trial evaluation


def _system_for(trial: _Trial, kind: str, jumps=()) -> SystemSpec:
    return SystemSpec(
        dim=trial.dim,
        hbar=1.0,
        kind=kind,
        hamiltonian=trial.H,
        initial_state=trial.rho,
        observables={"O": trial.O},
        jumps=tuple(jumps),
        kraus=None,
        metadata={},
    )


def _evaluate_trial(trial: _Trial, flip_robertson: bool) -> dict:
    out: dict[tuple[str, str], float] = {}
    rho = trial.rho
    ugrid = TimeGrid(0.0, UNITARY_T, UNITARY_STEPS)
    lgrid = TimeGrid(0.0, LINDBLAD_T, LINDBLAD_STEPS)
    T_u = ugrid.duration

    # --- unitary dynamics
    traj = evolve_unitary_heisenberg(trial.O, trial.H, rho, ugrid)
    delta_H = float(np.sqrt(variance(trial.H, rho)))
    if delta_H > 1e-9:
        out[("MT_INTEGRAL", "unitary")] = bounds.oqsl_mt_integral(traj, delta_H).T_qsl - T_u
        traj_si = evolve_unitary_heisenberg(trial.O_si, trial.H, rho, ugrid)
        out[("SELF_INVERSE", "unitary")] = (
            bounds.oqsl_self_inverse(
                float(traj_si.expect[0]), float(traj_si.expect[-1]), delta_H, T_u
            ).T_qsl
            - T_u
        )
        traj_p = evolve_unitary_heisenberg(trial.P, trial.H, rho, ugrid)
        p0 = float(np.clip(traj_p.expect[0], 0.0, 1.0))
        pT = float(np.clip(traj_p.expect[-1], 0.0, 1.0))
        out[("STATE_MT", "unitary")] = (
            bounds.state_qsl_projector(p0, pT, delta_H, T_u).T_qsl - T_u
        )
    e0, eT = float(traj.expect[0]), float(traj.expect[-1])
    prod = trial.O @ trial.H
    out[("PURITY_HS", "unitary")] = (
        bounds.oqsl_purity_hs(e0, eT, rho, hs_norm(prod), T_u).T_qsl - T_u
    )
    out[("GENERATOR_HS", "unitary")] = bounds.oqsl_generator_hs(traj, rho).T_qsl - T_u
    out[("STATE_INDEP", "unitary")] = bounds.oqsl_state_independent(trial.O, traj).T_qsl - T_u
    audit_u = bounds.rate_audit(traj, _system_for(trial, "unitary"), _flip_robertson_sign=flip_robertson)
    for name, v in audit_u.violations.items():
        out[(name, "unitary")] = v
    if trial.pure:
        out[("MIN_NORM", "unitary")] = (
            bounds.oqsl_min_norm(e0, eT, op_norm(prod), tr_norm(prod), T_u).T_qsl - T_u
        )
        # the battery observable is O under the total drive H: traj already is its trajectory
        ct1, ct2 = bounds._battery_core(traj, trial.O, trial.H - trial.O, rho, 1.0, DEFAULT_TOL)
        out[("BATTERY_CT1", "unitary")] = ct1.T_qsl - T_u
        out[("BATTERY_CT2", "unitary")] = ct2.T_qsl - T_u
        trace = bounds.two_time_correlation(trial.O, traj, rho)
        out[("CORR_CLOSED", "unitary")] = (
            bounds.corr_qsl(trace, op_norm(trial.O), traj.gen_speed_op, kind="closed").T_qsl - T_u
        )
        c = trial.comm_coeffs
        B = c[0] * np.eye(trial.dim) + c[1] * trial.O + c[2] * (trial.O @ trial.O)
        out[("COMM_CLOSED", "unitary")] = (
            bounds.commutator_qsl(B, traj, rho, kind="closed").T_qsl - T_u
        )

    # --- Lindblad dynamics (batched samples attached by the block integrator)
    gen = LindbladGenerator(H=trial.H, jumps=trial.jumps)
    ltraj = lindblad_trajectory(gen, trial.lind_O, rho, lgrid)
    T_l = lgrid.duration
    out[("GENERATOR_HS", "lindblad")] = bounds.oqsl_generator_hs(ltraj, rho).T_qsl - T_l
    out[("STATE_INDEP", "lindblad")] = bounds.oqsl_state_independent(trial.O, ltraj).T_qsl - T_l
    audit_l = bounds.rate_audit(ltraj, _system_for(trial, "lindblad", trial.jumps))
    for name, v in audit_l.violations.items():
        out[(name, "lindblad")] = v
    lhs = np.einsum("ab,tba->t", trial.O, trial.lind_rho).real
    rhs = np.einsum("tab,ba->t", trial.lind_O, rho.matrix).real
    out[("DUALITY", "lindblad")] = float(np.abs(lhs - rhs).max())
    if trial.pure:
        trace = bounds.two_time_correlation(trial.O, ltraj, rho)
        out[("CORR_OPEN", "lindblad")] = (
            bounds.corr_qsl(trace, op_norm(trial.O), ltraj.gen_speed_op, kind="open").T_qsl - T_l
        )
        c = trial.comm_coeffs
        B = c[0] * np.eye(trial.dim) + c[1] * trial.O + c[2] * (trial.O @ trial.O)
        out[("COMM_OPEN", "lindblad")] = (
            bounds.commutator_qsl(B, ltraj, rho, kind="open").T_qsl - T_l
        )

    # --- Kraus dynamics (closed-form dephasing family; qubit only)
    if trial.dim == 2:
        kgrid = TimeGrid(0.0, KRAUS_T, KRAUS_STEPS)
        ktraj = evolve_kraus_heisenberg(
            np.array([[0, 1], [1, 0]], dtype=complex),
            KrausGenerator(DephasingKraus(trial.kraus_gamma)),
            rho,
            kgrid,
        )
        out[("KRAUS", "kraus")] = bounds.oqsl_kraus(ktraj, rho).T_qsl - kgrid.duration
    return out


# ---------------------------------------------------------------------------
# driver


def _resolve_workers(max_workers) -> int:
    if max_workers is None:
        env = os.environ.get("OQSL_THREADS", "").strip()
        if env:
            max_workers = int(env)
        else:
            max_workers = min(4, os.cpu_count() or 1)
    return max(1, int(max_workers))


def run_audit(
    n_qubit: int = 100,
    n_qutrit: int = 50,
    seed: int = 42,
    tol: float = 1e-6,
    max_workers: int | None = None,
    _flip_robertson_sign: bool = False,
) -> AuditSummary:
    """Run the full validity/rate/duality sweep and aggregate max violations."""
    lgrid = TimeGrid(0.0, LINDBLAD_T, LINDBLAD_STEPS)
    all_trials: list[_Trial] = []
    for dim, count in ((2, n_qubit), (3, n_qutrit)):
        block = [_sample_trial(seed, dim, i) for i in range(count)]
        _integrate_lindblad_block(block, lgrid)
        all_trials.extend(block)

    workers = _resolve_workers(max_workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda t: _evaluate_trial(t, _flip_robertson_sign), all_trials))

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
