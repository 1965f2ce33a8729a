"""Heisenberg-picture observable trajectories and Schrodinger-picture state
trajectories under unitary, Lindblad-adjoint, and Kraus dynamics.

Every evolution of an observable returns a :class:`Trajectory` of
reductions, all computed before it returns: <O(t)>, dO(t) and both generator
speeds at every grid point, O(0) and O(T), and tr(O(t) M) for the probe
matrices M declared before the evolution. No O(t) is kept at an interior
time: ``trace_with`` of an undeclared M and ``at`` of an interior index raise.

Unitary trajectories are exact and form no per-sample matrix: H is
diagonalized once, and the moments and probe series along the grid come
from one phase matrix in its eigenbasis. :class:`UnitaryTrajectory` keeps
that eigen data for the spread off the grid and the expectations of another
observable. Its generator speeds are constant.

Lindblad and Kraus kernels are batch-first and stream the grid in chunks of
about CHUNK_BYTES, which one reducer turns into trajectories as they arrive,
so evolving a batch of observables holds O(steps) scalars per entry, one
chunk and, on the exact Lindblad route, the d^4 propagators. With rates
constant in time and d <= EXACT_MAX_DIM, :func:`lindblad_chunks` steps by
one batched BLAS product with the exact propagator exp(h L); otherwise by
RK4 on the fused form A y + y A^dag + sum_k gamma_k left_k y right_k, whose
first stage gives the speeds. Both routes take an observable's speeds, once per
chunk, from L^dag[O(t)], which is Hermitian: its operator norm is its
largest |eigenvalue|, in closed form for d = 2. An observable that is
Hermitian only within ``tol`` is read, like ``numpy.linalg.eigvalsh`` reads
it, through its lower triangle. The Kraus kernel calls each family on a
chunk's times and one more on each side, so dK/dt is the central difference
along the grid, one-sided at its ends, whatever the chunking.

The Lindblad state at the end of the grid alone, which DELCAMPO reads, is
the action of exp(T L) on rho0 by a Taylor series on the fused form
(:func:`lindblad_final_state`), with no trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityState,
    NumericError,
    ValidationError,
    as_matrix,
    checked_hermitian,
    mat_exp,
    require_finite,
    require_squarable,
    taylor_degree,
)

INSTABILITY_LIMIT = 1e12
# the largest dimension at which constant-rate Lindblad evolution takes the
# exact route; at 1000 steps it beats RK4 up to d = 18 (README), but d = 17
# stays the smallest RK4 dimension that the tests and digests pin
EXACT_MAX_DIM = 16
# the bytes one chunk of streamed Lindblad samples, or of the Kraus kernel's
# working set, may take over the whole batch
CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# time grid


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` cells on [t0, t1] (steps + 1 sample points)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValidationError("grid endpoints must be finite")
        if self.t1 <= self.t0:
            raise ValidationError("grid requires t1 > t0")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValidationError("grid requires an integer steps >= 2")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def times(self) -> np.ndarray:
        """The steps + 1 sample times, built once per grid and read-only."""
        return self._times

    @functools.cached_property
    def _times(self) -> np.ndarray:
        times = np.linspace(self.t0, self.t1, self.steps + 1)
        times.flags.writeable = False
        return times


# ---------------------------------------------------------------------------
# rates and generators


@dataclass(frozen=True, eq=False)
class RateTable:
    """Piecewise-linear nonnegative rate gamma(t) tabulated on increasing
    times, held as read-only copies, so that the rates stay as checked."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape or t.size < 2:
            raise ValidationError("rate table needs matching 1-D times/values, length >= 2")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValidationError("rate table entries must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("rate table times must be strictly increasing")
        if v.min() < 0:
            raise ValidationError(f"negative rate {v.min()!r} in rate table")
        t.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.values)


Rate = Union[float, RateTable]


def rate_at(rate: Rate, t) -> np.ndarray:
    """Evaluate a constant or tabulated rate at scalar or array times."""
    if isinstance(rate, RateTable):
        return rate.at(t)
    return np.full_like(np.asarray(t, dtype=float), float(rate))


@dataclass(frozen=True, eq=False)
class UnitaryGenerator:
    """Closed dynamics generated by a time-independent Hermitian Hamiltonian,
    Hermitian within ``tol``."""

    kind = "unitary"
    H: np.ndarray
    hbar: float = 1.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "H", checked_hermitian(self.H, "hamiltonian", self.tol))
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be positive and finite, got {self.hbar!r}")

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Markovian open dynamics: a Hamiltonian, Hermitian within ``tol``, plus
    jump operators with rates."""

    kind = "lindblad"
    H: np.ndarray
    jumps: tuple = ()
    hbar: float = 1.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        H = UnitaryGenerator(self.H, self.hbar, self.tol).H  # the Hamiltonian part, checked as a closed system's
        jumps = []
        for k, (L, rate) in enumerate(self.jumps):
            L = as_matrix(L, f"jump operator {k}")
            require_finite(L, f"jump operator {k}")
            require_squarable(L, f"jump operator {k}")
            if L.shape != H.shape:
                raise ValidationError(f"jump operator {k} has shape {L.shape}, expected {H.shape}")
            if not isinstance(rate, RateTable):
                rate = float(rate)
                if not np.isfinite(rate):
                    raise ValidationError(f"non-finite rate {rate!r} for jump operator {k}")
                if rate < 0:
                    raise ValidationError(f"negative rate {rate!r} for jump operator {k}")
            jumps.append((L, rate))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def dim(self) -> int:
        return self.H.shape[0]


# ---------------------------------------------------------------------------
# Kraus families, each the generator of its own dynamics


class DephasingKraus:
    """Closed-form qubit dephasing family:

    K0(t) = sqrt((1 + e^{-gamma t})/2) * I,  K1(t) = sqrt((1 - e^{-gamma t})/2) * sigma_z.
    """

    kind = "kraus"

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 0:
            raise ValidationError("dephasing strength must be a nonnegative real")
        self.gamma = gamma
        self.dim = 2
        self.n_ops = 2

    def operators(self, times) -> np.ndarray:
        """(K0, K1) at each of the given times, shape times.shape + (2, 2, 2)."""
        t = np.asarray(times, dtype=float)
        if (t < 0).any():
            raise ValidationError("dephasing family is defined for t >= 0")
        e = np.exp(-self.gamma * t)
        a, b = np.sqrt((1.0 + e) / 2.0), np.sqrt((1.0 - e) / 2.0)
        K = np.zeros(t.shape + (2, 2, 2), dtype=complex)
        K[..., 0, 0, 0] = K[..., 0, 1, 1] = a
        K[..., 1, 0, 0], K[..., 1, 1, 1] = b, -b
        return K


class TabulatedKraus:
    """Kraus operators given as matrices on a fixed time grid.

    Evaluation is only defined at the tabulated times; evolution grids must
    therefore line up with the table.
    """

    kind = "kraus"

    def __init__(self, times, ops):
        t = np.asarray(times, dtype=float)
        K = np.asarray(ops, dtype=complex)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValidationError("tabulated Kraus times must be strictly increasing, length >= 2")
        if K.ndim != 4 or K.shape[0] != t.size or K.shape[2] != K.shape[3]:
            raise ValidationError(
                "tabulated Kraus operators must have shape (n_times, n_ops, d, d)"
            )
        require_finite(K.reshape(-1, K.shape[-1]), "tabulated Kraus operators")
        self.times = t
        self.ops = K
        self.dim = K.shape[2]
        self.n_ops = K.shape[1]

    def operators(self, times) -> np.ndarray:
        """The tabulated operators at each of the given times, shape
        times.shape + (n_ops, d, d); a time off the table is an error."""
        t = np.asarray(times, dtype=float)
        # the nearer of the two table times around t (the lower one on a tie)
        i = np.clip(np.searchsorted(self.times, t), 1, self.times.size - 1)
        i = i - (t - self.times[i - 1] <= self.times[i] - t)
        off = np.abs(self.times[i] - t) > 1e-12 * np.maximum(1.0, np.abs(t))
        if off.any():
            raise ValidationError(f"time {float(t[off].flat[0])!r} is not on the tabulated Kraus grid")
        return self.ops[i]


# the statements of a dynamics, each naming its kind ("unitary", "lindblad" or "kraus")
GeneratorSpec = Union[UnitaryGenerator, LindbladGenerator, DephasingKraus, TabulatedKraus]


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """The reductions of a Heisenberg-picture observable O(t) along a time
    grid: its expectation <O(t)>, spread dO(t) and generator speeds at every
    grid point, O(0) and O(T), and the series tr(O(t) M) of the probe
    matrices M declared before the evolution. No O(t) is kept per grid point.

    ``gen_speed_hs`` / ``gen_speed_op`` hold the Hilbert-Schmidt and operator
    norms of the generator applied to O(t) (for Kraus dynamics: the summed
    norms of K_i^dag(t) O(0) dK_i/dt). ``ends`` is (O(0), O(T)), with O(T)
    None on a prefix shorter than the grid; ``probes`` pairs each declared M
    with its series. Every kind serves the same reads: bounds read O(t) only
    through :meth:`trace_with` and :meth:`at`.
    """

    kind: str
    grid: TimeGrid
    expect: np.ndarray
    stddev: np.ndarray
    gen_speed_hs: np.ndarray
    gen_speed_op: np.ndarray
    ends: tuple
    probes: tuple = ()

    @property
    def dim(self) -> int:
        return self.ends[0].shape[0]

    def trace_with(self, M: np.ndarray) -> np.ndarray:
        """tr(O(t) M) at every grid point (complex), for a declared probe M,
        found by value: one lookup in a dict keyed on the probes' bytes."""
        try:
            return self._series_by_probe[_probe_key(M)]
        except KeyError:
            raise ValidationError("tr(O(t) M) needs M declared as a probe before the evolution") from None

    @functools.cached_property
    def _series_by_probe(self) -> dict:
        return {_probe_key(M): series for M, series in self.probes}

    def at(self, k: int) -> np.ndarray:
        """O(t_k) at an end of the grid, k = 0 or k = steps (or -1)."""
        k = range(self.grid.steps + 1)[k]
        if k == 0:
            return self.ends[0]
        if k == self.grid.steps and self.ends[1] is not None:
            return self.ends[1]
        raise ValidationError(f"O(t) at index {k} is not kept: only at the two ends of the evolution grid")

    def prefix(self, k: int) -> "Trajectory":
        """Restriction to the first k grid cells (k >= 2)."""
        if not 2 <= k <= self.grid.steps:
            raise ValidationError(f"prefix length {k} outside [2, {self.grid.steps}]")
        cut = slice(0, k + 1)
        return replace(
            self,
            grid=TimeGrid(self.grid.t0, float(self.grid.times()[k]), k),
            **{f: getattr(self, f)[cut] for f in ("expect", "stddev", "gen_speed_hs", "gen_speed_op")},
            ends=(self.ends[0], self.ends[1] if k == self.grid.steps else None),
            probes=tuple((M, series[cut]) for M, series in self.probes),
        )


@dataclass(eq=False, kw_only=True)
class UnitaryTrajectory(Trajectory):
    """A :class:`Trajectory` under a constant Hamiltonian H = V diag(w) V^dag,
    with its eigen data: w / hbar, V, O~ = V^dag O V and rho~ = V^dag rho V.
    It keeps the two closed forms that no declared probe replaces: the spread
    off the grid (:meth:`stddev_at`) and another observable's expectation
    (:meth:`expect_of`)."""

    freqs: np.ndarray
    vectors: np.ndarray
    O_eig: np.ndarray
    rho_eig: np.ndarray
    tol: float

    def stddev_at(self, times) -> np.ndarray:
        """dO(t) at arbitrary times, from the closed form."""
        return _moments(self.O_eig, self.rho_eig, _phases(self.freqs, np.asarray(times, dtype=float)), self.tol)[1]

    @functools.cached_property
    def mid_stddev(self) -> np.ndarray:
        """dO(t) at the grid's cell midpoints, which MT_INTEGRAL and BATTERY_CT1 read."""
        return self.stddev_at(self.grid.times()[:-1] + 0.5 * self.grid.h)

    def expect_of(self, M: np.ndarray, times) -> np.ndarray:
        """<M(t)> at the given times for another observable M under the same
        Hamiltonian and state, in this trajectory's eigenbasis: H is not
        diagonalized again."""
        M = checked_hermitian(M, "observable", self.tol, self.dim)
        V = self.vectors
        return _phase_trace((V.conj().T @ M @ V) * self.rho_eig.T, _phases(self.freqs, times)).real


def _probe_key(M) -> tuple:
    """M's shape and complex bytes, equal for equal M (+0.0 turns -0.0 into 0.0)."""
    return np.shape(M), (np.asarray(M, dtype=complex) + 0.0).tobytes()


def _phases(freqs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """E[t, a] = exp(i t w_a / hbar), for w_a / hbar in ``freqs``."""
    t, w = float(np.abs(times).max()), float(np.abs(freqs).max())
    if not math.isfinite(t * w):  # the largest |t w_a|, as a Python float, which overflows silently
        raise NumericError(f"the phase t w / hbar overflows: times up to {t!r}, frequencies w / hbar up to {w!r}")
    return np.exp(1j * np.outer(times, freqs))


def _phase_trace(X: np.ndarray, E: np.ndarray) -> np.ndarray:
    """tr(O(t) M) at the times of the phase rows E, for X = O~ * M~^T in the eigenbasis."""
    return np.einsum("ta,ta->t", E @ X, E.conj())


def _moments(O_eig: np.ndarray, rho_eig: np.ndarray, E: np.ndarray, tol: float):
    """<O(t)> and dO(t) at the times of the phase rows E."""
    rho_t = rho_eig.T
    mean = _phase_trace(O_eig * rho_t, E).real
    second = _phase_trace((O_eig @ O_eig) * rho_t, E).real
    return mean, _spread(second - mean * mean, tol)


def _spread(var: np.ndarray, tol: float) -> np.ndarray:
    """sqrt(var) in place, for var = <O^2> - <O>^2; var below -tol is an error."""
    if var.min() < -tol:
        raise NumericError(f"variance {var.min():.3e} below -tolerance along trajectory")
    return np.sqrt(np.clip(var, 0.0, None, out=var), out=var)


def _check_state(rho: DensityState, dim: int) -> None:
    if rho.matrix.shape[0] != dim:
        raise ValidationError(f"state dimension {rho.matrix.shape[0]} != {dim}")


# ---------------------------------------------------------------------------
# unitary dynamics


def evolve_unitary_heisenberg(
    O0: np.ndarray,
    gen: UnitaryGenerator,
    rho: DensityState,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    probes=(),
) -> UnitaryTrajectory:
    """Exact O(t) = U^dag(t) O(0) U(t) on the grid, in the eigenbasis of
    gen.H, reduced from one phase matrix E[t, a] = exp(i t w_a / hbar):
    tr(O(t) M) is the row sum of (E @ (O~ * M~^T)) * conj(E), so no
    per-sample matrix is formed. [H, O(t)] = U^dag [H, O] U, so both
    generator speeds are constant. ``probes`` are the matrices M whose series
    the trajectory keeps."""
    O0 = checked_hermitian(O0, "observable", tol, gen.dim)
    _check_state(rho, gen.dim)

    w, V = np.linalg.eigh(gen.H)
    Vd = V.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny hbar overflows, and raises below
        freqs, O_eig, rho_eig = w / gen.hbar, Vd @ O0 @ V, Vd @ rho.matrix @ V
        # [H, O] / hbar in the eigenbasis; both norms are unitarily invariant
        comm = (freqs[:, None] - freqs[None, :]) * O_eig
        hs = np.linalg.norm(comm)
    if not np.isfinite(hs):  # else every frequency and the operator norm, at most hs, are finite
        raise NumericError(f"generator speed gen_speed_hs = ||[H, O] / hbar||_HS is {hs} at hbar = {gen.hbar!r}")
    speeds = (np.full(grid.steps + 1, x) for x in (hs, np.linalg.svd(comm, compute_uv=False)[0]))
    E = _phases(freqs, grid.times())
    expect, stddev = _moments(O_eig, rho_eig, E, tol)
    E_ends = E[[0, -1]]
    ends = V @ (E_ends[:, :, None] * O_eig[None] * E_ends.conj()[:, None, :]) @ Vd
    series = tuple((M, _phase_trace(O_eig * (Vd @ M @ V).T, E)) for M in probes)
    return UnitaryTrajectory(
        "unitary", grid, expect, stddev, *speeds, (ends[0], ends[1]), series,
        freqs=freqs, vectors=V, O_eig=O_eig, rho_eig=rho_eig, tol=tol,
    )


# ---------------------------------------------------------------------------
# Lindblad dynamics


def lindblad_apply(gen: LindbladGenerator, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Schrodinger-picture generator acting on a state:

    -(i/hbar)[H, rho] + sum_k gamma_k(t) (L_k rho L_k^dag - (1/2){L_k^dag L_k, rho}).
    """
    rho = as_matrix(rho, "state")
    if rho.shape != gen.H.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {gen.H.shape}")
    return _fused_form([gen], heisenberg=False)(t, rho[None])[0]


def _norms(X: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt and operator norms of each Hermitian matrix in X
    (read through its lower triangle), shape (..., 2)."""
    hs = np.sqrt(np.einsum("...ab,...ab->...", X.conj(), X).real)
    return np.stack([hs, _hermitian_op_norms(X)], axis=-1)


def _hermitian_op_norms(X: np.ndarray) -> np.ndarray:
    """The operator norm of each Hermitian matrix in X, shape (...): its
    largest |eigenvalue|, from the lower triangle as ``eigvalsh`` reads it.
    For d = 2 that is |m| + hypot((a - c) / 2, |b|) with m = (a + c) / 2,
    for the diagonal a, c and the lower corner b, with no LAPACK call."""
    if X.shape[-1] == 2:
        a, c = X[..., 0, 0].real, X[..., 1, 1].real
        return np.abs((a + c) / 2) + np.hypot((a - c) / 2, np.abs(X[..., 1, 0]))
    w = np.linalg.eigvalsh(X)
    return np.maximum(-w[..., 0], w[..., -1])


def _op_norms(X: np.ndarray) -> np.ndarray:
    """The operator norm of each matrix in X, shape (...), as the square root
    of the largest eigenvalue of the Gram matrix X^dag X."""
    return np.sqrt(_hermitian_op_norms(X.conj().swapaxes(-1, -2) @ X))


def _check_stable(y: np.ndarray, limit=INSTABILITY_LIMIT) -> None:
    """Reject a blow-up: an entry of y[b] above limit, or limit[b] for one
    limit per batch entry."""
    if not (np.abs(y).reshape(len(y), -1).max(axis=1) <= limit).all():
        raise NumericError("integration became unstable; reduce the step size (increase steps)")


def _check_trace(states: np.ndarray) -> None:
    trace = np.einsum("...aa->...", states.real)  # one temporary of the batch shape
    if max(trace.max() - 1.0, 1.0 - trace.min()) > 1e-8:
        raise NumericError("trace not preserved to 1e-8; reduce the step size")


def _constant_rates(gen: LindbladGenerator) -> bool:
    """Whether no jump rate of gen varies in time."""
    return all(not isinstance(r, RateTable) or (r.values == r.values[0]).all() for _, r in gen.jumps)


def _takes_exact_route(gen: LindbladGenerator) -> bool:
    return gen.dim <= EXACT_MAX_DIM and _constant_rates(gen)


def liouvillian(gen: LindbladGenerator, heisenberg: bool) -> np.ndarray:
    """The d^2 x d^2 matrix of the adjoint generator (``heisenberg``) or of the
    Schrodinger generator, acting on row-major vec(X), for constant rates:
    column i d + j is the generator applied to the matrix unit E_ij."""
    if not _constant_rates(gen):
        raise ValidationError("a Liouvillian matrix needs rates constant in time")
    n = gen.dim * gen.dim
    return _fused_form([gen], heisenberg)(0.0, np.eye(n).reshape(n, gen.dim, gen.dim)).reshape(n, n).T


def _fused_form(gens, heisenberg: bool):
    """The generators in fused form, f(t, y) on a stack y of shape (B, d, d)
    (y[b] under gens[b]; y need not be Hermitian), with 2 + 2J matmuls:
    f(y) = A y + y A' + sum_k gamma_k(t) left_k y right_k, where
    A = c H - K, A' = -c H - K (A^dag for a Hermitian H) and
    K = (1/2) sum_k gamma_k(t) L_k^dag L_k; c = i/hbar and (left, right) =
    (L^dag, L) for observables, c = -i/hbar and (L, L^dag) for states. The
    terms are built once for constant rates; ``f.terms(t)`` returns
    (A, A', gamma_k(t) left_k), each stacked over the batch."""
    d, J = gens[0].dim, len(gens[0].jumps)
    Ls = np.array([[L for L, _ in gen.jumps] for gen in gens], dtype=complex).reshape(len(gens), J, d, d)
    Lds = Ls.conj().swapaxes(-1, -2)
    half_LdL = 0.5 * (Lds @ Ls)
    left, right = (Lds, Ls) if heisenberg else (Ls, Lds)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny hbar overflows, and raises below
        cH = np.stack([(1j if heisenberg else -1j) / gen.hbar * gen.H for gen in gens])
        # twice the sum of |c H| bounds each entry of c H y - y c H where |y| <= 1
        bad = np.flatnonzero(~np.isfinite(2.0 * np.abs(cH).sum(axis=(1, 2))))
    if bad.size:
        raise NumericError(f"the Hamiltonian term i H / hbar overflows at hbar = {gens[bad[0]].hbar!r}")
    constant = all(_constant_rates(gen) for gen in gens)

    @functools.lru_cache(maxsize=1)  # RK4's second and third stages share a time
    def terms(t):
        g = np.concatenate([_rates_at(gen, t) for gen in gens])
        K = np.einsum("bk,bkij->bij", g, half_LdL)
        return cH - K, -cH - K, g[:, :, None, None] * left

    def f(t, y):
        A, Ad, g_left = terms(0.0 if constant else t)
        out = A @ y
        out += y @ Ad
        for k in range(J):
            out += g_left[:, k] @ y @ right[:, k]
        return out

    f.terms = terms
    return f


def _rates_at(gen: LindbladGenerator, times) -> np.ndarray:
    """The jump rates at each of the given times, shape (n_times, J)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.array([rate_at(rate, times) for _, rate in gen.jumps]).reshape(len(gen.jumps), times.size).T


def lindblad_chunks(gens, y0: np.ndarray, grid: TimeGrid, heisenberg: bool):
    """The batch-first Lindblad kernel, streamed: evolves y0[b] (shape
    (B, d, d)) under gens[b], observables when ``heisenberg`` else states,
    and yields the grid one chunk of consecutive times at a time, as
    (start, samples, speeds): the samples at grid indices start, start + 1,
    ..., shape (B, n, d, d), and for observables the Hilbert-Schmidt and
    operator norms of L^dag[O(t)] there, shape (B, n, 2) (for states, None).
    The generators share one dimension and one number of jumps. Each chunk
    is a new array.

    A chunk's samples take at most CHUNK_BYTES (:func:`_spans`).

    When every rate is constant and d <= EXACT_MAX_DIM, each step is one
    batched BLAS product with the exact propagator exp(h L), computed once
    per generator, and the speeds apply L to each chunk. Otherwise the master
    equation is integrated by fixed-step RK4 on the fused generator, whose
    first stage gives the speeds. The exact route rejects a blow-up on every
    chunk and RK4 at every step: an entry of y[b] above INSTABILITY_LIMIT
    times max(1, max |y0[b]|), as the Heisenberg flow does not grow an
    observable's norm and a state's entries are at most 1; a state's trace
    is checked on every chunk.
    """
    times = grid.times()
    y0 = np.asarray(y0, dtype=complex)
    B, d = y0.shape[:2]
    spans = _spans(times.size, 16 * B * d * d)
    with np.errstate(over="ignore"):  # a huge observable's limit is the largest float
        limit = INSTABILITY_LIMIT * np.abs(y0).reshape(B, -1).max(axis=1)
    limit = np.clip(limit, INSTABILITY_LIMIT, np.finfo(float).max)
    if all(_takes_exact_route(gen) for gen in gens):
        chunks = _exact_chunks(gens, y0, grid.h, spans, heisenberg, limit)
    else:
        chunks = _rk4_chunks(_fused_form(gens, heisenberg), y0, times, spans, heisenberg, limit)
    if heisenberg:
        yield from chunks  # which holds no chunk between yields
        return
    for start, samples, _ in chunks:
        _check_trace(samples)
        yield start, samples, None


def _spans(n: int, sample_bytes: int) -> list:
    """The (start, end) index ranges of the chunks in which n samples of
    ``sample_bytes`` each are streamed: at most CHUNK_BYTES each, but at
    least two samples, a one-sample remainder joining the chunk before it,
    because numpy computes a one-row matrix product as a matrix-vector
    product, whose sums run in another order than over longer chunks."""
    starts = list(range(0, n, max(2, CHUNK_BYTES // sample_bytes)))
    if n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _exact_chunks(gens, y0: np.ndarray, h: float, spans, heisenberg: bool, limit):
    """The chunks of :func:`lindblad_chunks` by the exact propagator, one
    BLAS product P @ y a step with y held as a column, shape (B, d^2, 1). A
    blow-up beyond ``limit`` is checked once per chunk, on its samples,
    before the speeds, so the steps that overflow on the way there do so
    silently."""
    B, d = y0.shape[:2]
    Lv = np.stack([liouvillian(gen, heisenberg) for gen in gens])
    if not math.isfinite(h * float(np.abs(Lv).max())):  # a Python float, which overflows silently
        raise NumericError(f"the exact propagator exp(h L) overflows: the step h = {h!r} times the generator L "
                           "is not finite")
    P = mat_exp(h * Lv)
    y = y0.reshape(B, d * d, 1)
    for start, end in spans:
        out = np.empty((B, end - start, d * d), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(end - start):
                if start + j:
                    y = P @ y
                out[:, j] = y[..., 0]
        _check_stable(out, limit)
        speeds = _norms((out @ Lv.swapaxes(-1, -2)).reshape(B, -1, d, d)) if heisenberg else None
        yield start, out.reshape(B, end - start, d, d), speeds


def _rk4_chunks(f, y: np.ndarray, times: np.ndarray, spans, heisenberg: bool, limit):
    """The chunks of :func:`lindblad_chunks` by classical fixed-step RK4 of
    dy/dt = f(t, y), a blow-up beyond ``limit`` checked at every step. The
    first stage is f at the sample, so an observable's speeds there are the
    norms of it, taken once per chunk."""
    h = times[1] - times[0]
    last = times.size - 1
    for start, end in spans:
        out = np.empty((y.shape[0], end - start) + y.shape[1:], dtype=complex)
        k1s = np.empty_like(out) if heisenberg else None
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises at its step
            for j, i in enumerate(range(start, end)):
                out[:, j] = y
                if i < last or heisenberg:
                    k1 = f(times[i], y)
                if heisenberg:
                    k1s[:, j] = k1
                if i == last:
                    break
                t = times[i]
                k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                _check_stable(y, limit)
        yield start, out, _norms(k1s) if heisenberg else None


def _reduce_chunks(kind: str, chunks, rhos, grid: TimeGrid, probes, tol: float) -> list[Trajectory]:
    """The trajectories of a stream of observable chunks (start, samples,
    speeds), shaped as :func:`lindblad_chunks` yields them, each chunk
    reduced as it arrives: batch entry b is read in the state rhos[b] and
    keeps the series tr(O_b(t) M) of the matrices M in ``probes[b]``. The
    variance is taken chunk by chunk, so the reducer holds four scalars a
    sample: <O(t)>, the variance and the two speeds.

    <O(t)> and the probe series are contracted one batch entry at a time:
    over a batch, numpy's einsum runs their sums in another order.
    """
    B, n = len(rhos), grid.steps + 1
    rho = np.stack([r.matrix for r in rhos])
    expect, var, speeds = np.empty((B, n)), np.empty((B, n)), np.empty((B, n, 2))
    series = [np.empty((len(p), n), dtype=complex) for p in probes]
    for start, samples, chunk_speeds in chunks:
        if start == 0:
            first = samples[:, 0].copy()
        cut = slice(start, start + samples.shape[1])
        for b, Os in enumerate(samples):
            expect[b, cut] = np.einsum("tab,ba->t", Os, rho[b]).real
            for k, M in enumerate(probes[b]):
                series[b][k, cut] = np.einsum("tab,ba->t", Os, M)
        # one product per batch entry, not one per sample
        rho_products = (samples.reshape(B, -1, samples.shape[-1]) @ rho).reshape(samples.shape)
        mean = expect[:, cut]
        var[:, cut] = np.einsum("ntab,ntba->nt", samples, rho_products).real - mean * mean
        speeds[:, cut] = chunk_speeds
        last = samples[:, -1].copy()
        del samples, rho_products, Os  # freed before the kernel builds the next chunk
    return [
        Trajectory(
            kind,
            grid,
            expect[b],
            _spread(var[b], tol),
            speeds[b, :, 0],
            speeds[b, :, 1],
            (first[b], last[b]),
            tuple(zip(probes[b], series[b])),
        )
        for b in range(B)
    ]


def trajectories(gens, O0s: np.ndarray, rhos, grid: TimeGrid, probes, tol: float = DEFAULT_TOL) -> list[Trajectory]:
    """The Heisenberg trajectories of O0s[b] under gens[b] in the states
    rhos[b], keeping the series tr(O_b(t) M) of the M in ``probes[b]``: the
    batch-first kernel of the generators' one kind, :func:`lindblad_chunks`
    for Lindblad generators and :func:`_kraus_chunks` for Kraus families."""
    kinds = sorted({gen.kind for gen in gens})
    if kinds == ["lindblad"]:
        chunks = lindblad_chunks(gens, O0s, grid, heisenberg=True)
    elif kinds == ["kraus"]:
        chunks = _kraus_chunks(gens, np.asarray(O0s, dtype=complex), grid, tol)
    else:
        raise ValidationError(f"a batch of trajectories needs generators of one open kind, got {', '.join(kinds)}")
    return _reduce_chunks(kinds[0], chunks, rhos, grid, probes, tol)


def evolve_lindblad_heisenberg(
    O0: np.ndarray,
    gen: LindbladGenerator,
    rho: DensityState,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    probes=(),
) -> Trajectory:
    """dO/dt = (i/hbar)[H, O] + D[O] on the grid, through
    :func:`trajectories`; ``probes`` are the matrices M whose series
    tr(O(t) M) the trajectory keeps."""
    O0 = checked_hermitian(O0, "observable", tol, gen.dim)
    _check_state(rho, gen.dim)
    return trajectories([gen], O0[None], [rho], grid, [probes], tol)[0]


def evolve_lindblad_schrodinger(
    rho0: DensityState,
    gen: LindbladGenerator,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
) -> list[DensityState]:
    """The state-picture master equation along the grid, the chunks of
    :func:`lindblad_chunks` joined into one stack.

    Trace preservation is verified to 1e-8. The samples are validated as one
    stack; positivity loss beyond tolerance is reported as one warning naming
    the worst sample rather than as an error.
    """
    _check_state(rho0, gen.dim)
    samples = np.empty((grid.steps + 1, gen.dim, gen.dim), dtype=complex)
    for start, chunk, _ in lindblad_chunks([gen], rho0.matrix[None], grid, heisenberg=False):
        samples[start : start + chunk.shape[1]] = chunk[0]
    return DensityState.from_stack(samples, tol=tol, on_indefinite="warn")


def lindblad_final_state(
    rho0: DensityState,
    gen: LindbladGenerator,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
) -> DensityState:
    """The state rho(T) = exp(T L) rho0 at the end of the grid, with no
    trajectory and no d^2 x d^2 matrix.

    For constant rates, the action of exp(T L) is s equal substeps of a
    degree-m Taylor series summed term by term on the fused generator
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011). With the bound
    ||L|| <= ||A||_2 + ||A'||_2 + sum_k gamma_k ||L_k||_2^2 in the
    Frobenius-induced norm, s = ceil(T ||L|| / theta) for theta = 1/2 and
    m = taylor_degree(T ||L|| / s). When the rates vary, or the series would
    apply L more often than RK4 on the grid (s m > 4 steps, as for stiff
    rates), rho(T) is the last sample of :func:`lindblad_chunks` instead.
    Either way a blow-up is rejected, the trace is verified to 1e-8 and
    rho(T) is validated, positivity loss beyond tolerance being a warning.
    """
    _check_state(rho0, gen.dim)
    f = _fused_form([gen], heisenberg=False)
    order = _action_order(gen, f, grid) if _constant_rates(gen) else None
    if order is None:
        for _, chunk, _ in lindblad_chunks([gen], rho0.matrix[None], grid, heisenberg=False):
            pass
        rho = chunk[0, -1]
    else:
        s, m = order
        h = grid.duration / s
        y = rho0.matrix[None].astype(complex)
        for _ in range(s):
            term, y = y, y.copy()
            for j in range(1, m + 1):
                term = f(0.0, term)
                term *= h / j
                y += term
            _check_stable(y)
        _check_trace(y)
        rho = y[0]
    return DensityState.from_matrix(rho, tol=tol, on_indefinite="warn")


def _action_order(gen: LindbladGenerator, f, grid: TimeGrid):
    """The substeps s and degree m of the Taylor action of exp(T L) for
    constant rates, or None when s m > 4 steps (RK4's generator calls)."""
    A, Ad, _ = f.terms(0.0)
    M = np.stack([A[0], Ad[0], *(L for L, _ in gen.jumps)])
    if not np.isfinite(M).all():  # jumps so large that K overflows
        return None
    theta, budget = 0.5, 4 * grid.steps
    norms = np.linalg.svd(M, compute_uv=False)[:, 0]
    with np.errstate(over="ignore"):
        bound = norms[0] + norms[1] + _rates_at(gen, 0.0)[0] @ norms[2:] ** 2
        x = grid.duration * bound / theta
    if not x <= budget:  # an infinite norm included, before ceil can overflow
        return None
    s = max(math.ceil(x), 1)
    m = taylor_degree(grid.duration * bound / s)
    return None if s * m > budget else (s, m)


# ---------------------------------------------------------------------------
# Kraus dynamics


def evolve_kraus_heisenberg(
    O0: np.ndarray,
    family: Union[DephasingKraus, TabulatedKraus],
    rho: DensityState,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    probes=(),
) -> Trajectory:
    """O(t) = sum_i K_i^dag(t) O(0) K_i(t) on the grid, with the summed
    speeds sum_i ||K_i^dag(t) O(0) dK_i/dt|| that the Kraus-map bound reads,
    through :func:`trajectories`."""
    O0 = checked_hermitian(O0, "observable", tol, family.dim)
    _check_state(rho, family.dim)
    return trajectories([family], O0[None], [rho], grid, [probes], tol)[0]


def _kraus_chunks(families, O0s: np.ndarray, grid: TimeGrid, tol: float):
    """The batch-first Kraus kernel, O0s[b] (shape (B, d, d)) under
    families[b] (one dimension, one number of operators): yields chunks like
    :func:`lindblad_chunks`, the speeds being the summed norms of
    K_i^dag(t) O0 dK_i/dt, after checking sum_i K_i^dag K_i = 1 within
    max(tol, 1e-8). With one more sample on each side of a chunk,
    ``np.gradient`` gives the central difference along the grid, one-sided
    at its ends. :func:`_spans` sizes a chunk by its whole working set: the
    window of K, K^dag O, dK/dt, K^dag O dK/dt and O(t)."""
    times = grid.times()
    B, d = O0s.shape[:2]
    m = families[0].n_ops
    for start, end in _spans(times.size, 16 * B * d * d * (4 * m + 1)):
        lo = max(start - 1, 0)
        window = np.stack([family.operators(times[lo : end + 1]) for family in families])
        own = slice(start - lo, end - lo)
        K = window[:, own]
        defect = np.abs(np.einsum("ntiab,ntiac->ntbc", K.conj(), K) - np.eye(d)).max(axis=(0, 2, 3))
        bad = np.flatnonzero(defect > max(tol, 1e-8))
        if bad.size:
            j = bad[0]
            raise ValidationError(f"Kraus completeness violated at t={times[start + j]!r} (defect {defect[j]:.3e})")
        # one product per batch entry, not one per sample
        KdO = (K.conj().swapaxes(-1, -2).reshape(B, -1, d) @ O0s).reshape(K.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # a subnormal step overflows, and raises below
            M = KdO @ np.gradient(window, grid.h, axis=1)[:, own]
            speeds = np.stack([np.linalg.norm(M, axis=(-2, -1)).sum(axis=2), _op_norms(M).sum(axis=2)], axis=-1)
        bad = np.flatnonzero(~np.isfinite(speeds).all(axis=(0, 2)))
        if bad.size:
            t = float(times[start + bad[0]])
            raise NumericError(f"Kraus speed sum_i ||K_i^dag O dK_i/dt|| is not finite at t={t!r}, step h = {grid.h!r}")
        samples = (KdO @ K).sum(axis=2)
        del window, K, KdO, M  # freed before the reducer reads the chunk
        yield start, samples, speeds


# ---------------------------------------------------------------------------
# convenience constructors


def dephasing_generator(gamma: float, hbar: float = 1.0) -> LindbladGenerator:
    """Rate-gamma pure dephasing of a qubit: jump sigma_z at rate gamma/2."""
    from .linalg import sigma_z

    if not np.isfinite(gamma):
        raise ValidationError(f"non-finite rate {gamma!r} for dephasing")
    if gamma < 0:
        raise ValidationError("dephasing strength must be nonnegative")
    return LindbladGenerator(
        H=np.zeros((2, 2), dtype=complex),
        jumps=((sigma_z, gamma / 2.0),),
        hbar=hbar,
    )
