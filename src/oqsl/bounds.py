"""Speed-limit bound evaluation for observables, states, batteries,
correlation functions, and commutators, the bound registry, and the
rate-inequality auditor.

Every evaluator returns a :class:`BoundReport` whose ``valid`` flag states
whether the actual horizon T respects the computed lower bound T_qsl.
:data:`REGISTRY` is the one table of bounds: each :class:`BoundSpec` names
the dynamics kinds it applies to, what else it needs (a spread of the
energy, a pure state, a self-inverse or projector observable, a second
observable, the final Schrodinger state), the series it reads (``reads``),
and how it evaluates on an :class:`EvalContext`. The CLI, the audit and the ``tight-qubit`` and
``battery-degenerate`` scenarios evaluate through it, and the table order is
the report order; the ``dephasing`` and ``kraus-dephasing`` scenarios call
:func:`oqsl_generator_hs`, :func:`qsl_delcampo` and :func:`oqsl_kraus`
directly, on prefixes of one trajectory and on a Kraus trajectory.
Conventions shared by all bounds:

* a numerator within ``ZERO_TOL`` times its scale (||O||_op for <O>,
  ||O||_op ||M|| for a probe series tr(O(t) M)) yields T_qsl = 0 exactly (an
  unchanged expectation costs no time);
* a zero denominator with a nonzero numerator is an inconsistency and raises
  :class:`~oqsl.linalg.NumericError`, never returns infinity;
* complex-valued numerators (two-time correlations, commutator expectations)
  enter through their modulus.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    GeneratorSpec,
    TimeGrid,
    Trajectory,
    UnitaryGenerator,
    evolve_unitary_heisenberg,
    lindblad_apply,
    lindblad_final_state,
    variance_floor,
)
from .linalg import (
    DEFAULT_TOL,
    DensityState,
    NumericError,
    ValidationError,
    as_matrix,
    checked_hermitian,
    hermitian_op_norm,
    hs_norm,
    op_norm,
    variance,
)

# relative to ||O||_op (a change of <O>, the spread dO) or ||O||_op ||M|| (a probe series)
ZERO_TOL = 1e-12
EPS_VAR = 1e-12
VALID_TOL = 1e-6
# the energy spread at or below which the spread-based unitary bounds do not apply
SPREAD_TOL = 1e-9


class BoundReport:
    """One bound evaluation: identifier, horizon T, bound value, validity,
    and the inputs the value was computed from, hashed on first read of
    :attr:`inputs_digest`."""

    def __init__(self, bound_id: str, T: float, T_qsl: float, valid: bool, details: dict | None = None,
                 inputs: tuple = ()):
        self.bound_id, self.T, self.T_qsl, self.valid = bound_id, T, T_qsl, valid
        self.details = {} if details is None else details
        self.inputs = inputs

    @cached_property
    def inputs_digest(self) -> str:
        return _digest(*self.inputs)


def _digest(*parts) -> str:
    import hashlib  # here, so that the commands that print no digest do not load it

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


def _ratio(bound_id, numerator, denominator, what, scale=1.0) -> float:
    if numerator <= ZERO_TOL * scale:
        return 0.0
    if denominator <= 0.0:
        raise NumericError(f"{bound_id}: {what} is zero while the numerator changed")
    return numerator / denominator


def _speed_bound(bound_id, traj, change, weight, what, inputs, details, op=False, scale=1.0) -> BoundReport:
    """T_qsl = change / (weight * Lambda_T): the change of a series of scale
    ``scale`` times ||O||_op whose rate is at most weight times the generator
    speed, Lambda_T the time average (trapezoid rule) of
    ``traj.gen_speed_hs``, or of ``gen_speed_op`` when ``op``, reported as
    ``lambda_T`` or ``lambda_T_op``."""
    speeds, name = (traj.gen_speed_op, "lambda_T_op") if op else (traj.gen_speed_hs, "lambda_T")
    with np.errstate(over="ignore"):  # a huge step overflows, and raises below
        lam = float(np.trapezoid(speeds, dx=traj.grid.h)) / traj.grid.T
    if not math.isfinite(lam):
        raise NumericError(f"{bound_id}: the mean speed {name} is {lam} over T = {traj.grid.T!r}")
    tqsl = _ratio(bound_id, change, weight * lam, what, scale * traj.o_op)
    return _report(bound_id, traj.grid.T, tqsl, inputs, {**details, name: lam})


def _expect_speed_bound(bound_id, traj, rho, weight, what) -> BoundReport:
    """:func:`_speed_bound` on the change of <O> with the weight ``weight``
    sqrt(tr rho^2)."""
    change = abs(float(traj.expect[-1] - traj.expect[0]))
    details = {"purity": rho.purity, "expect0": float(traj.expect[0]), "expectT": float(traj.expect[-1])}
    inputs = (traj.expect, traj.gen_speed_hs, rho.purity)
    return _speed_bound(bound_id, traj, change, weight * np.sqrt(rho.purity), what, inputs, details)


def _norm_bound(bound_id, ends, weight, norm, what, hbar, T, inputs, details, o_op) -> BoundReport:
    """T_qsl = hbar |<O(T)> - <O(0)>| / (2 weight norm) for ``ends`` =
    (<O(0)>, <O(T)>): the change of <O>, of norm ``o_op``, at a rate of at
    most 2 weight norm / hbar."""
    expect0, expectT = ends
    tqsl = hbar / (2.0 * weight) * _ratio(bound_id, abs(expectT - expect0), norm, what, o_op)
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
    usable = mid_std >= EPS_VAR * traj.o_op
    contrib = np.where(usable & (d_expect > ZERO_TOL * traj.o_op), d_expect / np.where(usable, mid_std, 1.0), 0.0)
    integral = float(contrib.sum())
    T = traj.grid.T
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
    ||O||_op contribute zero and are counted in the details.
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
    Mandelstam-Tamm bound. A change |pT - p0| within ZERO_TOL yields 0: at
    p0 = 1 one ulp of pT is an arccos of 1.5e-8, over a dH that may be
    rounding too.
    """
    if delta_H <= 0:
        raise ValidationError("STATE_MT: energy spread must be positive")
    for name, p in (("p0", p0), ("pT", pT)):
        if p < -tol or p > 1.0 + tol:
            raise ValidationError(f"STATE_MT: {name}={p!r} outside [0, 1] beyond tolerance")
    p0c = float(np.clip(p0, 0.0, 1.0))
    pTc = float(np.clip(pT, 0.0, 1.0))
    if abs(pTc - p0c) <= ZERO_TOL:
        tqsl = 0.0
    elif p0c == 1.0:
        tqsl = hbar / delta_H * float(np.arccos(np.sqrt(pTc)))
    elif pTc == 1.0:
        tqsl = hbar / delta_H * float(np.arccos(np.sqrt(p0c)))
    else:
        tqsl = hbar / delta_H * abs(float(np.arcsin(np.sqrt(pTc)) - np.arcsin(np.sqrt(p0c))))
    details = {"p0": p0c, "pT": pTc, "delta_H": float(delta_H)}
    return _report("STATE_MT", T, tqsl, (p0c, pTc, delta_H, hbar, T), details)


def oqsl_purity_hs(expect0: float, expectT: float, rho: DensityState, oh_hs: float, T: float, hbar: float = 1.0,
                   o_op: float = 1.0) -> BoundReport:
    """Purity-weighted Hilbert-Schmidt bound, 0 within ZERO_TOL ||O||_op (``o_op``):

    T_qsl = (hbar / 2 sqrt(tr rho^2)) |<O(T)> - <O(0)>| / ||O(0) H||_hs.
    """
    inputs = (expect0, expectT, rho.purity, oh_hs, hbar, T)
    details = {"purity": rho.purity, "oh_hs": float(oh_hs)}
    what, weight = "||O(0)H||_hs", np.sqrt(rho.purity)
    return _norm_bound("PURITY_HS", (expect0, expectT), weight, oh_hs, what, hbar, T, inputs, details, o_op)


def oqsl_min_norm(expect0: float, expectT: float, oh_op: float, T: float, hbar: float = 1.0,
                  o_op: float = 1.0) -> BoundReport:
    """Minimum-norm bound for pure initial states, 0 within ZERO_TOL ||O||_op (``o_op``):

    T_qsl = (hbar / 2) |<O(T)> - <O(0)>| / ||O(0)H||_op,

    the paper's min(||O(0)H||_op, ||O(0)H||_tr), which is the operator norm
    because ||X||_op <= ||X||_tr for every X.
    """
    inputs = (expect0, expectT, oh_op, hbar, T)
    details = {"oh_op": float(oh_op)}
    return _norm_bound("MIN_NORM", (expect0, expectT), 1.0, oh_op, "||O(0)H||_op", hbar, T, inputs, details, o_op)


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
    lrho0_hs: float,
    T: float,
) -> BoundReport:
    """Relative-purity state bound for Lindblad dynamics:

    theta = arccos(tr[rho0 rhoT] / tr[rho0^2]),
    T_qsl = |cos theta - 1| tr[rho0^2] / ||L rho0||_hs,

    where the caller supplies rho(T) and ||L rho0||_hs, the generator's norm
    at the initial state. Only the end points are read, so rho(T) may come from
    the kernel on a grid coarser than the bound's (:func:`~oqsl.dynamics.lindblad_final_state`).
    """
    overlap = float(np.trace(rho0.matrix @ rhoT.matrix).real)
    cos_theta = float(np.clip(overlap / rho0.purity, -1.0, 1.0))
    tqsl = _ratio("DELCAMPO", abs(cos_theta - 1.0) * rho0.purity, lrho0_hs, "||L rho0||_hs")
    details = {
        "cos_theta": cos_theta,
        "theta": float(np.arccos(cos_theta)),
        "purity0": rho0.purity,
        "lrho0_hs": float(lrho0_hs),
    }
    return _report("DELCAMPO", T, tqsl, (rho0.matrix, rhoT.matrix, lrho0_hs, T), details)


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

    T_qsl = |X(T) - X(0)| / (||O(0)||_hs * Lambda_T),

    for the series X(t) = tr[O(t) O(0)] of the probe O(0), which the
    trajectory must keep, so that X(0) = tr[O(0)^2].
    """
    if traj.kind not in ("unitary", "lindblad"):
        raise ValidationError("STATE_INDEP requires a unitary- or lindblad-kind trajectory")
    O0 = as_matrix(O0, "observable")
    X = traj.trace_with(O0)
    num = abs(complex(X[-1] - X[0]))
    o0_hs = float(hs_norm(O0))
    details = {"overlap_change": num, "o0_hs": o0_hs}
    inputs = (O0, X, traj.gen_speed_hs)
    return _speed_bound("STATE_INDEP", traj, num, o0_hs, "||O(0)||_hs * mean speed", inputs, details, scale=o0_hs)


# ---------------------------------------------------------------------------
# battery charging-time bounds: O is the battery Hamiltonian HB and H the
# total drive HB + HC, so that H - O is the charging field HC


def _battery_ct1(c: EvalContext) -> BoundReport:
    if not c.has("spread"):
        # rho is an eigenstate of the drive: nothing evolves
        details = {"delta_H_total": c.delta_H, "integral": 0.0, "stationary": 1}
        return _report("BATTERY_CT1", c.T, 0.0, (c.traj.expect, c.delta_H, c.hbar), details)
    return _mt_integral_core("BATTERY_CT1", c.traj, c.delta_H, c.hbar)


def _battery_ct2(c: EvalContext) -> BoundReport:
    details, inputs = {"hbht_op": c.oh_op}, (c.O, c.H - c.O, c.rho.matrix, c.T, c.hbar)
    what = "||HB(0)(HB+HC)||_op"
    return _norm_bound("BATTERY_CT2", c.ends(), 1.0, c.oh_op, what, c.hbar, c.T, inputs, details, c.traj.o_op)


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
    Hamiltonian, 0 where MT_INTEGRAL does not apply; CT2 is MIN_NORM's ratio
    over the operator norm of HB(0) (HB + HC), the smallest of its operator,
    Hilbert-Schmidt and trace norms. Both require a pure initial state.
    """
    HB = as_matrix(HB, "battery hamiltonian")
    HC = as_matrix(HC, "charging hamiltonian")
    if HB.shape != HC.shape:
        raise ValidationError(f"dimension mismatch: {HB.shape} vs {HC.shape}")
    if not rho.is_pure():
        raise ValidationError("BATTERY_CT2 requires a pure initial state")
    gen, ids = UnitaryGenerator(HB + HC, hbar, tol), ("BATTERY_CT1", "BATTERY_CT2")
    ct1, ct2 = evaluate_all(EvalContext(gen, grid, HB, rho, evolve_unitary_heisenberg, ids=ids))
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
    A0 = checked_hermitian(A0, "observable", tol, traj.dim)
    probe = correlation_probe(A0, rho)
    first = traj.trace_with(probe)
    mean0 = float(np.trace(probe).real)
    C = first - traj.expect * mean0
    c0, floor = complex(C[0]), variance_floor(max(tol, 1e-8), hermitian_op_norm(A0))
    if abs(c0.imag) > floor or c0.real < -floor:
        raise NumericError(f"C(0)={c0!r} is not a nonnegative variance within tolerance")
    return C


def _growth_qsl(name, X, traj, y_op, y, details, inputs) -> BoundReport:
    """The growth bound ``name`` (CLOSED on a unitary, OPEN on a Lindblad
    trajectory of A) for a series X(t) = tr(A(t) M) whose probe M has trace
    norm at most 2 ||Y(0)||_op, so that |dX/dt| <= 2 ||Y(0)||_op ||dA/dt||_op:

    T_qsl = |X(T) - X(0)| / (2 ||Y(0)||_op * Lambda_T),

    Lambda_T the time average of ``gen_speed_op``, which carries the
    generator's hbar, and |X(T) - X(0)| the complex modulus, 0 within
    ZERO_TOL 2 ||A||_op ||Y(0)||_op."""
    if traj.kind not in ("unitary", "lindblad"):
        raise ValidationError(f"{name} requires a unitary- or lindblad-kind trajectory")
    bound_id = f"{name}_{'CLOSED' if traj.kind == 'unitary' else 'OPEN'}"
    what = f"2 ||{y}(0)||_op * mean speed"
    return _speed_bound(bound_id, traj, abs(complex(X[-1] - X[0])), 2 * y_op, what, inputs, details, True, 2 * y_op)


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


def commutator_qsl(B0: np.ndarray, traj: Trajectory, rho: DensityState, tol: float = DEFAULT_TOL) -> BoundReport:
    """Commutator-growth bound on the unitary or Lindblad trajectory of A,
    :func:`_growth_qsl` with X(t) = <[B(0), A(t)]> = tr(A(t) (rho B0 - B0 rho))
    and Y = B, for any pair A, B, commuting at t = 0 or not:

    T_qsl = |X(T) - X(0)| / (2 ||B(0)||_op * Lambda_T),

    COMM_CLOSED on a unitary trajectory, COMM_OPEN on a Lindblad one.
    ``comm_expect_0`` and ``comm_expect_T`` report |X(0)| and |X(T)|.
    """
    if not rho.is_pure():
        raise ValidationError("commutator bound requires a pure state")
    B0 = checked_hermitian(B0, "observable", tol, traj.dim)
    X = traj.trace_with(commutator_probe(B0, rho))
    b0_op = float(op_norm(B0))
    details = {"comm_expect_0": abs(complex(X[0])), "comm_expect_T": abs(complex(X[-1])), "b0_op": b0_op}
    return _growth_qsl("COMM", X, traj, b0_op, "B", details, (B0, traj.expect, traj.gen_speed_op, rho.matrix))


# ---------------------------------------------------------------------------
# auxiliary quantities and the rate auditor


def rate_probe(ctx: EvalContext) -> np.ndarray:
    """The matrix M whose series tr(O(t) M) is d<O>/dt, by duality:
    (i/hbar)[rho, H] under unitary dynamics, L[rho] under Lindblad dynamics."""
    if ctx.kind == "unitary":
        return 1j / ctx.hbar * (ctx.rho.matrix @ ctx.H - ctx.H @ ctx.rho.matrix)
    if ctx.kind != "lindblad":
        raise ValidationError("rate audit applies to unitary or lindblad trajectories")
    return lindblad_apply(ctx.generator, ctx.rho.matrix)


def rate_audit(ctx: EvalContext) -> dict:
    """The largest violation (LHS - RHS) over the grid of each applicable
    rate inequality, by name, the left side |d<O>/dt| exact from the series
    of :func:`rate_probe`, which the trajectory must keep (``ctx.rates``).
    For unitary trajectories the Robertson bound 2 dO dH / hbar and the
    Hoelder bound 2 ||H O(t)||_op / hbar apply; for Lindblad trajectories
    the Cauchy-Schwarz bound sqrt(tr rho^2) ||L^dag[O(t)]||_hs applies. A
    unitary trajectory must be generated by ``ctx.H``, which then commutes
    with U(t), so ||H O(t)||_op = ||H O(0)||_op is constant, and equal to
    ||(O H)^dag||_op = ||O H||_op for Hermitian H and O.
    """
    traj = ctx.traj
    lhs = np.abs(traj.trace_with(ctx.rate_matrix).real)
    if traj.kind == "unitary":
        rhs = {
            "RATE_ROBERTSON": 2.0 / ctx.hbar * traj.stddev * ctx.delta_H,
            "RATE_HOLDER_OP": 2.0 / ctx.hbar * ctx.oh_op,
        }
    else:
        rhs = {"RATE_CS_HS": np.sqrt(ctx.rho.purity) * traj.gen_speed_hs}
    return {name: float((lhs - r).max()) for name, r in rhs.items()}


# ---------------------------------------------------------------------------
# the bound registry


class EvalContext:
    """What the bounds read for one observable O under one dynamics, which
    ``generator`` alone states: a UnitaryGenerator, a LindbladGenerator or a
    Kraus family, whose :attr:`kind`, :attr:`H`, :attr:`hbar` and :attr:`tol`
    the context reads. Each derived quantity (the trajectory, its probes, the
    rate audit's probe, dH, O H and its norms, the final state) is a
    ``functools.cached_property``, computed once, on first use.

    ``ids`` is the selection that :func:`select`, :attr:`probes`,
    :attr:`reads` and :func:`evaluate_all` read: the bounds named, in order,
    or every applicable one when None. ``evolve`` is an evolution entry
    point, called as ``evolve(O, generator, rho, grid, probes, reads)`` with
    the series of :attr:`probes` to keep and of :attr:`reads` to compute, so
    bounds are selected before anything evolves;
    a caller that evolves many contexts at once, like the audit's Lindblad
    and Kraus blocks, sets ``traj`` instead. ``rates`` declares the rate
    audit's probe too. ``self_inverse`` and ``projector`` are the
    observables of the SELF_INVERSE and STATE_MT slots: O itself, or other
    observables read at the grid's two ends in O's eigenbasis. ``B`` is the
    commutator bounds' second observable. ``final_state`` makes DELCAMPO
    applicable: it reads the Schrodinger state at T, the Lindblad kernel's last
    sample on a coarser grid (:func:`~oqsl.dynamics.lindblad_final_state`).
    """

    def __init__(self, generator: GeneratorSpec, grid: TimeGrid, O: np.ndarray, rho: DensityState,
                 evolve: Callable[..., Trajectory] | None, B: np.ndarray | None = None,
                 self_inverse: np.ndarray | None = None, projector: np.ndarray | None = None,
                 final_state: bool = False, rates: bool = False, ids: Sequence[str] | None = None):
        self.generator, self.grid, self.O, self.rho, self.evolve = generator, grid, O, rho, evolve
        self.B, self.self_inverse, self.projector = B, self_inverse, projector
        self.final_state, self.rates, self.ids = final_state, rates, ids

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
    def tol(self) -> float:
        return self.generator.tol

    @property
    def T(self) -> float:
        return self.grid.T

    @cached_property
    def traj(self) -> Trajectory:
        traj = self.evolve(self.O, self.generator, self.rho, self.grid, probes=self.probes, reads=self.reads)
        if traj.kind != self.kind:
            raise ValidationError(f"a {traj.kind} evolution does not follow a {self.kind} generator")
        return traj

    @cached_property
    def probes(self) -> tuple:
        """The probe matrices that the selected bounds declare, in
        :func:`select` order, then the rate audit's when ``rates`` is set:
        the series tr(O(t) M) the trajectory must keep."""
        probes = tuple(s.probe(self) for s in self.selected if s.probe is not None)
        return probes + (self.rate_matrix,) if self.rates else probes

    @cached_property
    def selected(self) -> list:
        """:func:`select` on this context, taken once for the probes, the reads and the evaluation."""
        return select(self)

    @cached_property
    def reads(self) -> frozenset:
        """The series that the selected bounds read, and when ``rates`` is
        set the rate audit's: dO on a unitary context, else the HS speed."""
        reads = {read for s in self.selected for read in s.reads}
        return frozenset(reads | ({"stddev" if self.kind == "unitary" else "speed_hs"} if self.rates else set()))

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
    def oh_op(self) -> float:
        return float(op_norm(self.oh))

    @cached_property
    def oh_hs(self) -> float:
        return float(hs_norm(self.oh))

    @cached_property
    def rho_T(self) -> DensityState:
        return lindblad_final_state(self.rho, self.generator, self.grid)

    def ends(self, slot: np.ndarray | None = None) -> tuple[float, float]:
        """<M(0)> and <M(T)> for the slot observable M, by default O; another
        M is read at the two end times alone, in O's unitary eigenbasis."""
        if slot is None or slot is self.O:
            return float(self.traj.expect[0]), float(self.traj.expect[-1])
        start, end = self.traj.expect_of(slot, (0.0, self.grid.T))
        return float(start), float(end)

    def has(self, need: str) -> bool:
        if need == "spread":
            return self.delta_H > SPREAD_TOL
        if need == "pure":
            return self.rho.is_pure()
        if need == "final_state":
            return self.final_state
        return getattr(self, need) is not None


def _slot_ends(c: EvalContext, slot: np.ndarray, low: float) -> tuple[float, float]:
    """<M(0)> and <M(T)> of a slot observable M, clipped to its range
    [low, 1]: the CLI admits a slot within max(tol, 1e-9), so an end may
    leave the range by more than tol."""
    return tuple(float(np.clip(x, low, 1.0)) for x in c.ends(slot))


def _delcampo(c: EvalContext) -> BoundReport:
    return qsl_delcampo(c.rho, c.rho_T, float(hs_norm(lindblad_apply(c.generator, c.rho.matrix))), c.T)


class BoundSpec:
    """A bound: its id, the dynamics kinds it applies to, the context entries
    it needs (:meth:`EvalContext.has`), its evaluation on a context, the
    probe matrix M whose series tr(O(t) M) it reads from the trajectory
    (:attr:`EvalContext.probes`), and the other series it reads there, a
    subset of ``dynamics.READS`` (:attr:`EvalContext.reads`)."""

    def __init__(self, id: str, kinds: tuple, needs: tuple, evaluate: Callable[[EvalContext], BoundReport],
                 probe: Callable[[EvalContext], np.ndarray] | None = None, reads: tuple = ()):
        self.id, self.kinds, self.needs, self.evaluate, self.probe = id, kinds, needs, evaluate, probe
        self.reads = reads

    def applies(self, ctx: EvalContext) -> bool:
        return ctx.kind in self.kinds and all(ctx.has(n) for n in self.needs)


_U, _L, _UL = ("unitary",), ("lindblad",), ("unitary", "lindblad")
_SD, _HS, _OP = ("stddev",), ("speed_hs",), ("speed_op",)
_CORR_PROBE, _COMM_PROBE = (lambda c: correlation_probe(c.O, c.rho)), (lambda c: commutator_probe(c.B, c.rho))
# each twin pair has one evaluation: the trajectory's kind picks the id it reports
_CORR = lambda c: corr_qsl(two_time_correlation(c.O, c.traj, c.rho, tol=c.tol), c.traj, float(op_norm(c.O)))
_COMM = lambda c: commutator_qsl(c.B, c.traj, c.rho, tol=c.tol)

REGISTRY = (
    BoundSpec("MT_INTEGRAL", _U, ("spread",), lambda c: oqsl_mt_integral(c.traj, c.delta_H, hbar=c.hbar), reads=_SD),
    BoundSpec(
        "STATE_MT",
        _U,
        ("spread", "projector"),
        lambda c: state_qsl_projector(*_slot_ends(c, c.projector, 0.0), c.delta_H, c.T, hbar=c.hbar, tol=c.tol),
    ),
    BoundSpec(
        "SELF_INVERSE",
        _U,
        ("spread", "self_inverse"),
        lambda c: oqsl_self_inverse(*_slot_ends(c, c.self_inverse, -1.0), c.delta_H, c.T, hbar=c.hbar, tol=c.tol),
    ),
    BoundSpec("PURITY_HS", _U, (), lambda c: oqsl_purity_hs(*c.ends(), c.rho, c.oh_hs, c.T, c.hbar, c.traj.o_op)),
    BoundSpec("GENERATOR_HS", _UL, (), lambda c: oqsl_generator_hs(c.traj, c.rho), reads=_HS),
    BoundSpec("DELCAMPO", _L, ("final_state",), _delcampo),
    BoundSpec("STATE_INDEP", _UL, (), lambda c: oqsl_state_independent(c.O, c.traj), lambda c: c.O, _HS),
    BoundSpec("MIN_NORM", _U, ("pure",), lambda c: oqsl_min_norm(*c.ends(), c.oh_op, c.T, c.hbar, c.traj.o_op)),
    BoundSpec("BATTERY_CT1", _U, ("pure",), _battery_ct1, reads=_SD),
    BoundSpec("BATTERY_CT2", _U, ("pure",), _battery_ct2),
    BoundSpec("CORR_CLOSED", _U, ("pure",), _CORR, _CORR_PROBE, _OP),
    BoundSpec("CORR_OPEN", _L, ("pure",), _CORR, _CORR_PROBE, _OP),
    BoundSpec("COMM_CLOSED", _U, ("pure", "B"), _COMM, _COMM_PROBE, _OP),
    BoundSpec("COMM_OPEN", _L, ("pure", "B"), _COMM, _COMM_PROBE, _OP),
    BoundSpec("KRAUS", ("kraus",), (), lambda c: oqsl_kraus(c.traj, c.rho), reads=_HS),
)

BOUND_IDS = tuple(spec.id for spec in REGISTRY)


def select(ctx: EvalContext) -> list[BoundSpec]:
    """The entries named by ``ctx.ids``, in that order, or every applicable
    entry when it is None. Naming an entry that does not apply, or one
    entry twice, is an error."""
    twice = sorted({b for b in ctx.ids or () if list(ctx.ids).count(b) > 1})
    if twice:
        raise ValidationError(f"bound(s) named more than once: {', '.join(twice)}")
    specs = {s.id: s for s in REGISTRY if s.applies(ctx)}
    bad = [b for b in ctx.ids or () if b not in specs]
    if bad:
        raise ValidationError(f"bound(s) not applicable to this {ctx.kind} system/observable: {', '.join(bad)}")
    return list(specs.values()) if ctx.ids is None else [specs[b] for b in ctx.ids]


def evaluate_all(ctx: EvalContext) -> list[BoundReport]:
    """Evaluate the entries :func:`select` picks, in its order."""
    return [s.evaluate(ctx) for s in ctx.selected]
