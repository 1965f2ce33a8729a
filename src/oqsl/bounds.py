"""Speed-limit bound evaluation for observables, states, batteries,
correlation functions, and commutators, the bound registry, and the
rate-inequality auditor.

Every evaluator returns a :class:`BoundReport` whose ``valid`` flag states
whether the actual horizon T respects the computed lower bound T_qsl.
:data:`REGISTRY` is the one table of bounds: each :class:`BoundSpec` names
the dynamics kinds it applies to, what else it needs (a spread of the
energy, a pure state, a self-inverse or projector observable, a second
observable, the final Schrodinger state), and how it evaluates on an
:class:`EvalContext`. The CLI, the audit and the scenarios all evaluate
through it, and the table order is the report order.
Conventions shared by all bounds:

* a numerator within ``ZERO_TOL`` of zero yields T_qsl = 0 exactly (an
  unchanged expectation costs no time);
* a zero denominator with a nonzero numerator is an inconsistency and raises
  :class:`~oqsl.linalg.NumericError`, never returns infinity;
* complex-valued numerators (two-time correlations, commutator expectations)
  enter through their modulus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    GeneratorSpec,
    TimeGrid,
    Trajectory,
    UnitaryGenerator,
    _constant_rates,
    evolve_unitary_heisenberg,
    lindblad_apply,
)
from .linalg import (
    DEFAULT_TOL,
    DensityState,
    NumericError,
    ValidationError,
    as_matrix,
    hs_norm,
    is_hermitian,
    op_norm,
    tr_norm,
    variance,
)

ZERO_TOL = 1e-12
EPS_VAR = 1e-12
VALID_TOL = 1e-6
# the energy spread at or below which the spread-based unitary bounds do not apply
SPREAD_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: identifier, horizon T, bound value, validity,
    and the inputs the value was computed from, hashed on first read of
    :attr:`inputs_digest`."""

    bound_id: str
    T: float
    T_qsl: float
    valid: bool
    details: dict = field(default_factory=dict, compare=False)
    inputs: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def inputs_digest(self) -> str:
        return _digest(*self.inputs)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _report(bound_id, T, T_qsl, inputs, details) -> BoundReport:
    return BoundReport(
        bound_id=bound_id,
        T=float(T),
        T_qsl=float(T_qsl),
        valid=bool(T_qsl <= T + VALID_TOL),
        details=details,
        inputs=inputs,
    )


def _ratio(bound_id, numerator, denominator, what) -> float:
    if numerator <= ZERO_TOL:
        return 0.0
    if denominator <= 0.0:
        raise NumericError(f"{bound_id}: {what} is zero while the numerator changed")
    return numerator / denominator


def _speed_bound(bound_id, traj, change, weight, what, inputs, details, op=False) -> BoundReport:
    """T_qsl = change / (weight * Lambda_T): the change of a series whose rate
    is at most weight times the generator speed, Lambda_T the time average
    (trapezoid rule) of ``traj.gen_speed_hs``, or of ``gen_speed_op`` when
    ``op``, reported as ``lambda_T`` or ``lambda_T_op``."""
    speeds = traj.gen_speed_op if op else traj.gen_speed_hs
    lam = float(np.trapezoid(speeds, dx=traj.grid.h)) / traj.grid.duration
    tqsl = _ratio(bound_id, change, weight * lam, what)
    return _report(bound_id, traj.grid.duration, tqsl, inputs, {**details, "lambda_T_op" if op else "lambda_T": lam})


def _expect_speed_bound(bound_id, traj, rho, weight, what) -> BoundReport:
    """:func:`_speed_bound` on the change of <O> with the weight ``weight``
    sqrt(tr rho^2)."""
    change = abs(float(traj.expect[-1] - traj.expect[0]))
    details = {"purity": rho.purity, "expect0": float(traj.expect[0]), "expectT": float(traj.expect[-1])}
    inputs = (traj.expect, traj.gen_speed_hs, rho.purity)
    return _speed_bound(bound_id, traj, change, weight * np.sqrt(rho.purity), what, inputs, details)


def _norm_bound(bound_id, ends, weight, norm, what, hbar, T, inputs, details) -> BoundReport:
    """T_qsl = hbar |<O(T)> - <O(0)>| / (2 weight norm) for ``ends`` =
    (<O(0)>, <O(T)>): the change of <O> at a rate of at most 2 weight norm /
    hbar."""
    expect0, expectT = ends
    tqsl = hbar / (2.0 * weight) * _ratio(bound_id, abs(expectT - expect0), norm, what)
    return _report(bound_id, T, tqsl, inputs, {"expect0": float(expect0), "expectT": float(expectT), **details})


# ---------------------------------------------------------------------------
# unitary-dynamics bounds


def _mt_integral_core(bound_id, traj, delta_H, hbar):
    if delta_H <= 0:
        raise ValidationError(f"{bound_id}: energy spread must be positive")
    d_expect = np.abs(np.diff(traj.expect))
    # the spread at the true cell midpoints: averaging the endpoint spreads
    # overestimates the integrand where dO -> 0 and can push T_qsl above T
    mid_std = traj.mid_stddev
    usable = mid_std >= EPS_VAR
    contrib = np.where(usable & (d_expect > ZERO_TOL), d_expect / np.where(usable, mid_std, 1.0), 0.0)
    integral = float(contrib.sum())
    T = traj.grid.duration
    tqsl = hbar / (2.0 * delta_H) * integral
    details = {
        "integral": integral,
        "delta_H": float(delta_H),
        "cells": int(d_expect.size),
        "skipped_cells": int(np.count_nonzero(~usable)),
        "expect_start": float(traj.expect[0]),
        "expect_end": float(traj.expect[-1]),
    }
    inputs = (traj.expect, traj.stddev, delta_H, hbar)
    return _report(bound_id, T, tqsl, inputs, details)


def oqsl_mt_integral(traj: Trajectory, delta_H: float, hbar: float = 1.0) -> BoundReport:
    """Path-integral bound for unitary dynamics:

    T_qsl = (hbar / 2 dH) * sum_cells |d<O>| / dO(midpoint),

    by the midpoint rule over grid cells, with dO evaluated in closed form at
    each cell's midpoint; cells whose midpoint spread falls below ``EPS_VAR``
    contribute zero and are counted in the details.
    """
    if traj.kind != "unitary":
        raise ValidationError("MT_INTEGRAL requires a unitary-kind trajectory")
    return _mt_integral_core("MT_INTEGRAL", traj, delta_H, hbar)


def oqsl_self_inverse(
    expect0: float,
    expectT: float,
    delta_H: float,
    T: float,
    hbar: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Arcsine bound for self-inverse observables (O^2 = identity):

    T_qsl = (hbar / 2 dH) |arcsin <O(T)> - arcsin <O(0)>|.
    """
    if delta_H <= 0:
        raise ValidationError("SELF_INVERSE: energy spread must be positive")
    for name, v in (("expect0", expect0), ("expectT", expectT)):
        if abs(v) > 1.0 + tol:
            raise ValidationError(
                f"SELF_INVERSE: {name}={v!r} outside [-1, 1] beyond tolerance"
            )
    e0 = float(np.clip(expect0, -1.0, 1.0))
    eT = float(np.clip(expectT, -1.0, 1.0))
    if abs(eT - e0) <= ZERO_TOL:
        tqsl = 0.0
    else:
        tqsl = hbar / (2.0 * delta_H) * abs(np.arcsin(eT) - np.arcsin(e0))
    details = {"expect0": e0, "expectT": eT, "delta_H": float(delta_H)}
    return _report("SELF_INVERSE", T, tqsl, (e0, eT, delta_H, hbar, T), details)


def state_qsl_projector(
    p0: float,
    pT: float,
    delta_H: float,
    T: float,
    hbar: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """State (survival-probability) bound through a projector observable:

    T_qsl = (hbar / dH) |arcsin sqrt(pT) - arcsin sqrt(p0)|,

    which for p0 = 1 reduces exactly to (hbar / dH) arccos sqrt(pT), the
    Mandelstam-Tamm bound.
    """
    if delta_H <= 0:
        raise ValidationError("STATE_MT: energy spread must be positive")
    for name, p in (("p0", p0), ("pT", pT)):
        if p < -tol or p > 1.0 + tol:
            raise ValidationError(f"STATE_MT: {name}={p!r} outside [0, 1] beyond tolerance")
    p0c = float(np.clip(p0, 0.0, 1.0))
    pTc = float(np.clip(pT, 0.0, 1.0))
    if p0c == 1.0:
        tqsl = hbar / delta_H * float(np.arccos(np.sqrt(pTc)))
    elif pTc == 1.0:
        tqsl = hbar / delta_H * float(np.arccos(np.sqrt(p0c)))
    else:
        tqsl = hbar / delta_H * abs(float(np.arcsin(np.sqrt(pTc)) - np.arcsin(np.sqrt(p0c))))
    details = {"p0": p0c, "pT": pTc, "delta_H": float(delta_H)}
    return _report("STATE_MT", T, tqsl, (p0c, pTc, delta_H, hbar, T), details)


def oqsl_purity_hs(
    expect0: float,
    expectT: float,
    rho: DensityState,
    oh_hs: float,
    T: float,
    hbar: float = 1.0,
) -> BoundReport:
    """Purity-weighted Hilbert-Schmidt bound:

    T_qsl = (hbar / 2 sqrt(tr rho^2)) |<O(T)> - <O(0)>| / ||O(0) H||_hs.
    """
    inputs = (expect0, expectT, rho.purity, oh_hs, hbar, T)
    details = {"purity": rho.purity, "oh_hs": float(oh_hs)}
    what = "||O(0)H||_hs"
    return _norm_bound("PURITY_HS", (expect0, expectT), np.sqrt(rho.purity), oh_hs, what, hbar, T, inputs, details)


def oqsl_min_norm(
    expect0: float,
    expectT: float,
    oh_op: float,
    oh_tr: float,
    T: float,
    hbar: float = 1.0,
) -> BoundReport:
    """Minimum-norm bound for pure initial states:

    T_qsl = (hbar / 2) |<O(T)> - <O(0)>| / min(||O(0)H||_op, ||O(0)H||_tr).
    """
    inputs = (expect0, expectT, oh_op, oh_tr, hbar, T)
    details = {"oh_op": float(oh_op), "oh_tr": float(oh_tr)}
    norm, what = min(oh_op, oh_tr), "min operator/trace norm"
    return _norm_bound("MIN_NORM", (expect0, expectT), 1.0, norm, what, hbar, T, inputs, details)


# ---------------------------------------------------------------------------
# open/arbitrary-dynamics bounds


def oqsl_generator_hs(traj: Trajectory, rho: DensityState) -> BoundReport:
    """Generator-speed bound for unitary or Lindblad trajectories:

    T_qsl = |<O(T)> - <O(0)>| / (sqrt(tr rho^2) * Lambda_T),

    with Lambda_T the time-averaged Hilbert-Schmidt speed of the evolving
    observable (trapezoid rule on the sampled speeds).
    """
    if traj.kind not in ("unitary", "lindblad"):
        raise ValidationError("GENERATOR_HS requires a unitary- or lindblad-kind trajectory")
    return _expect_speed_bound("GENERATOR_HS", traj, rho, 1.0, "mean generator speed")


def qsl_delcampo(
    rho0: DensityState,
    rhoT: DensityState,
    lrho0_hs2: float,
    T: float,
) -> BoundReport:
    """Relative-purity state bound for Lindblad dynamics:

    theta = arccos(tr[rho0 rhoT] / tr[rho0^2]),
    T_qsl = |cos theta - 1| tr[rho0^2] / sqrt(tr[(L rho0)^2]),

    where the caller supplies rho(T) and tr[(L rho0)^2] evaluated at the
    initial state. Only the end points are read, so rho(T) need not come
    from a trajectory (:func:`~oqsl.dynamics.lindblad_final_state`).
    """
    overlap = float(np.trace(rho0.matrix @ rhoT.matrix).real)
    cos_theta = float(np.clip(overlap / rho0.purity, -1.0, 1.0))
    num = abs(cos_theta - 1.0) * rho0.purity
    if num <= ZERO_TOL:
        tqsl = 0.0
    else:
        if lrho0_hs2 <= 0:
            raise ValidationError("DELCAMPO: tr[(L rho0)^2] must be positive")
        tqsl = num / np.sqrt(lrho0_hs2)
    details = {
        "cos_theta": cos_theta,
        "theta": float(np.arccos(cos_theta)),
        "purity0": rho0.purity,
        "lrho0_hs2": float(lrho0_hs2),
    }
    return _report("DELCAMPO", T, tqsl, (rho0.matrix, rhoT.matrix, lrho0_hs2, T), details)


def oqsl_kraus(traj: Trajectory, rho: DensityState) -> BoundReport:
    """Kraus-map bound:

    T_qsl = |<O(T)> - <O(0)>| / (2 sqrt(tr rho^2) * Lambda_T),

    with Lambda_T the time average of sum_i ||K_i^dag(t) O(0) dK_i/dt||_hs.
    """
    if traj.kind != "kraus":
        raise ValidationError("KRAUS requires a kraus-kind trajectory")
    return _expect_speed_bound("KRAUS", traj, rho, 2.0, "mean Kraus speed")


def oqsl_state_independent(O0: np.ndarray, traj: Trajectory) -> BoundReport:
    """State-independent bound from the Hilbert-Schmidt overlap of O(0), O(T):

    T_qsl = |tr[O(0)O(T)] - tr[O(0)^2]| / (||O(0)||_hs * Lambda_T).
    """
    if traj.kind not in ("unitary", "lindblad"):
        raise ValidationError("STATE_INDEP requires a unitary- or lindblad-kind trajectory")
    O0 = as_matrix(O0, "observable")
    OT = traj.at(-1)
    num = abs(complex(np.trace(O0 @ (OT - O0))))
    o0_hs = hs_norm(O0)
    details = {"overlap_change": float(num), "o0_hs": o0_hs}
    inputs = (O0, OT, traj.gen_speed_hs)
    return _speed_bound("STATE_INDEP", traj, num, o0_hs, "||O(0)||_hs * mean speed", inputs, details)


# ---------------------------------------------------------------------------
# battery charging-time bounds: O is the battery Hamiltonian HB and H the
# total drive HB + HC, so that H - O is the charging field HC


def _battery_ct1(c: EvalContext) -> BoundReport:
    if c.delta_H <= c.tol:
        # rho is an eigenstate of the drive: nothing evolves
        details = {"delta_H_total": c.delta_H, "integral": 0.0, "stationary": 1}
        return _report("BATTERY_CT1", c.T, 0.0, (c.traj.expect, c.delta_H, c.hbar), details)
    return _mt_integral_core("BATTERY_CT1", c.traj, c.delta_H, c.hbar)


def _battery_ct2(c: EvalContext) -> BoundReport:
    norms = {"op": op_norm(c.oh), "hs": hs_norm(c.oh), "tr": tr_norm(c.oh)}
    details, inputs = {f"hbht_{k}": v for k, v in norms.items()}, (c.O, c.H - c.O, c.rho.matrix, c.T, c.hbar)
    what = "min norm of HB(0)(HB+HC)"
    return _norm_bound("BATTERY_CT2", c.ends(), 1.0, min(norms.values()), what, c.hbar, c.T, inputs, details)


def battery_bounds(
    HB: np.ndarray,
    HC: np.ndarray,
    rho: DensityState,
    grid: TimeGrid,
    hbar: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> tuple[BoundReport, BoundReport]:
    """Charging-time bounds for a battery Hamiltonian HB driven by HB + HC:
    the registry's BATTERY_CT1 and BATTERY_CT2 on the context whose
    observable is HB and whose generator is HB + HC.

    CT1 is MT_INTEGRAL's path integral with the spread of the total
    Hamiltonian; CT2 is MIN_NORM's ratio over the smallest of the operator,
    Hilbert-Schmidt and trace norms of HB(0) (HB + HC). Both require a pure
    initial state.
    """
    HB = as_matrix(HB, "battery hamiltonian")
    HC = as_matrix(HC, "charging hamiltonian")
    if HB.shape != HC.shape:
        raise ValidationError(f"dimension mismatch: {HB.shape} vs {HC.shape}")
    if not rho.is_pure():
        raise ValidationError("BATTERY_CT2 requires a pure initial state")
    gen, ids = UnitaryGenerator(HB + HC, hbar, tol), ("BATTERY_CT1", "BATTERY_CT2")
    ct1, ct2 = evaluate_all(EvalContext(gen, grid, HB, rho, evolve_unitary_heisenberg, tol=tol, ids=ids))
    return ct1, ct2


# ---------------------------------------------------------------------------
# two-time correlations and commutators


def correlation_probe(A0: np.ndarray, rho: DensityState) -> np.ndarray:
    """A0 rho, whose series tr(A(t) A0 rho) = <A(t)A(0)> is the first term
    of the two-time correlation."""
    return as_matrix(A0, "observable") @ rho.matrix


def commutator_probe(B0: np.ndarray, rho: DensityState) -> np.ndarray:
    """rho B0 - B0 rho, whose series tr(O(t) (rho B0 - B0 rho)) is the
    commutator expectation tr([B0, O(t)] rho)."""
    B0 = as_matrix(B0, "observable")
    return rho.matrix @ B0 - B0 @ rho.matrix


def two_time_correlation(
    A0: np.ndarray,
    traj: Trajectory,
    rho: DensityState,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """C(t) = <A(t)A(0)> - <A(t)><A(0)> along the trajectory of A.

    Defined here for pure states only; C(t) is complex in general while
    C(0) equals the (real, nonnegative) variance of A(0).
    """
    if not rho.is_pure():
        raise ValidationError("two-time correlation requires a pure state")
    A0 = as_matrix(A0, "observable")
    if not is_hermitian(A0, tol):
        raise ValidationError("observable is not Hermitian within tolerance")
    if A0.shape[0] != traj.dim:
        raise ValidationError(f"dimension mismatch: {A0.shape[0]} vs {traj.dim}")
    probe = correlation_probe(A0, rho)
    first = traj.trace_with(probe)
    mean0 = float(np.trace(probe).real)
    C = first - traj.expect * mean0
    c0 = complex(C[0])
    if abs(c0.imag) > max(tol, 1e-8) or c0.real < -max(tol, 1e-8):
        raise NumericError(f"C(0)={c0!r} is not a nonnegative variance within tolerance")
    return C


def _growth_qsl(name, X, traj, y_op, y, details, inputs) -> BoundReport:
    """The growth bound ``name`` (CLOSED on a unitary, OPEN on a Lindblad
    trajectory of A) for a series X(t) = tr(A(t) M) whose probe M has trace
    norm at most 2 ||Y(0)||_op, so that |dX/dt| <= 2 ||Y(0)||_op ||dA/dt||_op:

    T_qsl = |X(T) - X(0)| / (2 ||Y(0)||_op * Lambda_T),

    Lambda_T the time average of ``gen_speed_op``, which carries the
    generator's hbar, and |X(T) - X(0)| the complex modulus."""
    if traj.kind not in ("unitary", "lindblad"):
        raise ValidationError(f"{name} requires a unitary- or lindblad-kind trajectory")
    bound_id = f"{name}_{'CLOSED' if traj.kind == 'unitary' else 'OPEN'}"
    what = f"2 ||{y}(0)||_op * mean speed"
    return _speed_bound(bound_id, traj, abs(complex(X[-1] - X[0])), 2.0 * y_op, what, inputs, details, op=True)


def corr_qsl(C: np.ndarray, traj: Trajectory, a0_op: float) -> BoundReport:
    """Correlation-growth bound on the unitary or Lindblad trajectory of A,
    :func:`_growth_qsl` with X = C and Y = A, where C(t) = <A(t)A(0)> -
    <A(t)><A(0)> = tr(A(t) (A(0) - <A(0)>) rho):

    T_qsl = |C(T) - C(0)| / (2 ||A(0)||_op * Lambda_T),

    CORR_CLOSED on a unitary trajectory, CORR_OPEN on a Lindblad one.
    """
    if np.shape(C) != traj.expect.shape:
        raise ValidationError("correlation samples must match the trajectory grid")
    details = {"corr_change": abs(complex(C[-1] - C[0])), "a0_op": float(a0_op)}
    return _growth_qsl("CORR", C, traj, a0_op, "A", details, (C, a0_op, traj.gen_speed_op))


def commutator_qsl(B0: np.ndarray, traj: Trajectory, rho: DensityState) -> BoundReport:
    """Commutator-growth bound on the unitary or Lindblad trajectory of A,
    :func:`_growth_qsl` with X(t) = <[B(0), A(t)]> = tr(A(t) (rho B0 - B0 rho))
    and Y = B, for any pair A, B, commuting at t = 0 or not:

    T_qsl = |X(T) - X(0)| / (2 ||B(0)||_op * Lambda_T),

    COMM_CLOSED on a unitary trajectory, COMM_OPEN on a Lindblad one.
    ``comm_expect_0`` and ``comm_expect_T`` report |X(0)| and |X(T)|.
    """
    if not rho.is_pure():
        raise ValidationError("commutator bound requires a pure state")
    B0 = as_matrix(B0, "observable")
    if B0.shape[0] != traj.dim:
        raise ValidationError(f"dimension mismatch: {B0.shape[0]} vs {traj.dim}")
    X = traj.trace_with(commutator_probe(B0, rho))
    b0_op = op_norm(B0)
    details = {"comm_expect_0": abs(complex(X[0])), "comm_expect_T": abs(complex(X[-1])), "b0_op": b0_op}
    return _growth_qsl("COMM", X, traj, b0_op, "B", details, (B0, traj.expect, traj.gen_speed_op, rho.matrix))


# ---------------------------------------------------------------------------
# auxiliary quantities and the rate auditor


def rate_probe(ctx: EvalContext) -> np.ndarray:
    """The matrix M whose series tr(O(t) M) is d<O>/dt, by duality:
    (i/hbar)[rho, H] under unitary dynamics, L[rho] under Lindblad dynamics
    with rates constant in time."""
    if ctx.kind == "unitary":
        return 1j / ctx.hbar * (ctx.rho.matrix @ ctx.H - ctx.H @ ctx.rho.matrix)
    if ctx.kind != "lindblad" or not _constant_rates(ctx.generator):
        raise ValidationError("rate audit applies to unitary or lindblad trajectories, with rates constant in time")
    return lindblad_apply(ctx.generator, ctx.rho.matrix)


def rate_audit(ctx: EvalContext) -> dict:
    """The largest violation (LHS - RHS) over the grid of each applicable
    rate inequality, by name, the left side |d<O>/dt| exact from the series
    of :func:`rate_probe`, which the trajectory must keep (``ctx.rates``).
    For unitary trajectories the Robertson bound 2 dO dH / hbar and the
    Hoelder bound 2 ||H O(t)||_op / hbar apply; for Lindblad trajectories
    the Cauchy-Schwarz bound sqrt(tr rho^2) ||L^dag[O(t)]||_hs applies. A
    unitary trajectory must be generated by ``ctx.H``, which then commutes
    with U(t), so ||H O(t)||_op = ||H O(0)||_op is constant.
    """
    traj = ctx.traj
    lhs = np.abs(traj.trace_with(ctx.rate_matrix).real)
    if traj.kind == "unitary":
        rhs = {
            "RATE_ROBERTSON": 2.0 / ctx.hbar * traj.stddev * ctx.delta_H,
            "RATE_HOLDER_OP": 2.0 / ctx.hbar * op_norm(ctx.H @ traj.at(0)),
        }
    else:
        rhs = {"RATE_CS_HS": np.sqrt(ctx.rho.purity) * traj.gen_speed_hs}
    return {name: float((lhs - r).max()) for name, r in rhs.items()}


# ---------------------------------------------------------------------------
# the bound registry


@dataclass(eq=False)
class EvalContext:
    """What the bounds read for one observable O under one dynamics, which
    ``generator`` alone states: a UnitaryGenerator, a LindbladGenerator or a
    Kraus family, whose :attr:`kind`, :attr:`H` and :attr:`hbar` the context
    reads. Each derived quantity (the trajectory, its probes, the rate
    audit's probe, dH, O H, the final state) is a
    ``functools.cached_property``, computed once, on first use.

    ``ids`` is the selection that :func:`select`, :attr:`probes` and
    :func:`evaluate_all` read: the bounds named, in order, or every
    applicable one when None. ``evolve`` is an evolution entry point, called
    as ``evolve(O, generator, rho, grid, tol, probes)`` with the series of
    :attr:`probes` to keep, so bounds are selected before anything evolves;
    a caller that evolves many contexts at once, like the audit's Lindblad
    and Kraus blocks, sets ``traj`` instead. ``rates`` declares the rate
    audit's probe too. ``self_inverse`` and ``projector`` are the
    observables of the SELF_INVERSE and STATE_MT slots: O itself, or other
    observables read at the grid's two ends in O's eigenbasis. ``B`` is the
    commutator bounds' second observable. ``final_state``, called as
    ``final_state(rho, generator, grid, tol)``, returns the Schrodinger state
    at T that DELCAMPO reads (:func:`~oqsl.dynamics.lindblad_final_state`,
    which builds no trajectory).
    """

    generator: GeneratorSpec
    grid: TimeGrid
    O: np.ndarray
    rho: DensityState
    evolve: Callable[..., Trajectory] | None
    tol: float = DEFAULT_TOL
    B: np.ndarray | None = None
    self_inverse: np.ndarray | None = None
    projector: np.ndarray | None = None
    final_state: Callable[..., DensityState] | None = None
    rates: bool = False
    ids: Sequence[str] | None = None

    @property
    def kind(self) -> str:
        return self.generator.kind

    @property
    def H(self) -> np.ndarray:
        return self.generator.H

    @property
    def hbar(self) -> float:
        return self.generator.hbar

    @property
    def T(self) -> float:
        return self.grid.duration

    @cached_property
    def traj(self) -> Trajectory:
        traj = self.evolve(self.O, self.generator, self.rho, self.grid, self.tol, probes=self.probes)
        if traj.kind != self.kind:
            raise ValidationError(f"a {traj.kind} evolution does not follow a {self.kind} generator")
        return traj

    @cached_property
    def probes(self) -> tuple:
        """The probe matrices that the selected bounds declare, in
        :func:`select` order, then the rate audit's when ``rates`` is set:
        the series tr(O(t) M) the trajectory must keep."""
        probes = tuple(s.probe(self) for s in select(self) if s.probe is not None)
        return probes + (self.rate_matrix,) if self.rates else probes

    @cached_property
    def rate_matrix(self) -> np.ndarray:
        """The rate audit's probe, :func:`rate_probe`, built once for the
        declaration and the audit's read."""
        return rate_probe(self)

    @cached_property
    def delta_H(self) -> float:
        return float(np.sqrt(variance(self.H, self.rho, self.tol)))

    @cached_property
    def oh(self) -> np.ndarray:
        return self.O @ self.H

    @cached_property
    def rho_T(self) -> DensityState:
        return self.final_state(self.rho, self.generator, self.grid, self.tol)

    def ends(self, slot: np.ndarray | None = None) -> tuple[float, float]:
        """<M(0)> and <M(T)> for the slot observable M, by default O; another
        M is read at the two end times alone, in O's unitary eigenbasis."""
        if slot is None or slot is self.O:
            return float(self.traj.expect[0]), float(self.traj.expect[-1])
        start, end = self.traj.expect_of(slot, (self.grid.t0, self.grid.t1))
        return float(start), float(end)

    def has(self, need: str) -> bool:
        if need == "spread":
            return self.delta_H > SPREAD_TOL
        if need == "pure":
            return self.rho.is_pure()
        return getattr(self, need) is not None


def _state_mt(c: EvalContext) -> BoundReport:
    p0, pT = (float(np.clip(p, 0.0, 1.0)) for p in c.ends(c.projector))
    return state_qsl_projector(p0, pT, c.delta_H, c.T, hbar=c.hbar, tol=c.tol)


def _delcampo(c: EvalContext) -> BoundReport:
    lrho0_hs2 = hs_norm(lindblad_apply(c.generator, c.rho.matrix, 0.0)) ** 2
    return qsl_delcampo(c.rho, c.rho_T, lrho0_hs2, c.T)


@dataclass(frozen=True)
class BoundSpec:
    """A bound: its id, the dynamics kinds it applies to, the context entries
    it needs (:meth:`EvalContext.has`), its evaluation on a context, and the
    probe matrix M whose series tr(O(t) M) it reads from the trajectory
    (:attr:`EvalContext.probes`)."""

    id: str
    kinds: tuple
    needs: tuple
    evaluate: Callable[[EvalContext], BoundReport]
    probe: Callable[[EvalContext], np.ndarray] | None = None

    def applies(self, ctx: EvalContext) -> bool:
        return ctx.kind in self.kinds and all(ctx.has(n) for n in self.needs)


_U, _L, _UL = ("unitary",), ("lindblad",), ("unitary", "lindblad")
_CORR_PROBE, _COMM_PROBE = (lambda c: correlation_probe(c.O, c.rho)), (lambda c: commutator_probe(c.B, c.rho))
# each twin pair has one evaluation: the trajectory's kind picks the id it reports
_CORR = lambda c: corr_qsl(two_time_correlation(c.O, c.traj, c.rho, tol=c.tol), c.traj, op_norm(c.O))

REGISTRY = (
    BoundSpec("MT_INTEGRAL", _U, ("spread",), lambda c: oqsl_mt_integral(c.traj, c.delta_H, hbar=c.hbar)),
    BoundSpec("STATE_MT", _U, ("spread", "projector"), _state_mt),
    BoundSpec(
        "SELF_INVERSE",
        _U,
        ("spread", "self_inverse"),
        lambda c: oqsl_self_inverse(*c.ends(c.self_inverse), c.delta_H, c.T, hbar=c.hbar, tol=c.tol),
    ),
    BoundSpec("PURITY_HS", _U, (), lambda c: oqsl_purity_hs(*c.ends(), c.rho, hs_norm(c.oh), c.T, hbar=c.hbar)),
    BoundSpec("GENERATOR_HS", _UL, (), lambda c: oqsl_generator_hs(c.traj, c.rho)),
    BoundSpec("DELCAMPO", _L, ("final_state",), _delcampo),
    BoundSpec("STATE_INDEP", _UL, (), lambda c: oqsl_state_independent(c.O, c.traj)),
    BoundSpec(
        "MIN_NORM", _U, ("pure",), lambda c: oqsl_min_norm(*c.ends(), op_norm(c.oh), tr_norm(c.oh), c.T, hbar=c.hbar)
    ),
    BoundSpec("BATTERY_CT1", _U, ("pure",), _battery_ct1),
    BoundSpec("BATTERY_CT2", _U, ("pure",), _battery_ct2),
    BoundSpec("CORR_CLOSED", _U, ("pure",), _CORR, _CORR_PROBE),
    BoundSpec("CORR_OPEN", _L, ("pure",), _CORR, _CORR_PROBE),
    BoundSpec("COMM_CLOSED", _U, ("pure", "B"), lambda c: commutator_qsl(c.B, c.traj, c.rho), _COMM_PROBE),
    BoundSpec("COMM_OPEN", _L, ("pure", "B"), lambda c: commutator_qsl(c.B, c.traj, c.rho), _COMM_PROBE),
    BoundSpec("KRAUS", ("kraus",), (), lambda c: oqsl_kraus(c.traj, c.rho)),
)

BOUND_IDS = tuple(spec.id for spec in REGISTRY)


def select(ctx: EvalContext) -> list[BoundSpec]:
    """The entries named by ``ctx.ids``, in that order, or every applicable
    entry when it is None. Naming an entry that does not apply is an error."""
    specs = {s.id: s for s in REGISTRY if s.applies(ctx)}
    bad = [b for b in ctx.ids or () if b not in specs]
    if bad:
        raise ValidationError(f"bound(s) not applicable to this {ctx.kind} system/observable: {', '.join(bad)}")
    return list(specs.values()) if ctx.ids is None else [specs[b] for b in ctx.ids]


def evaluate_all(ctx: EvalContext) -> list[BoundReport]:
    """Evaluate the entries :func:`select` picks, in its order."""
    return [s.evaluate(ctx) for s in select(ctx)]
