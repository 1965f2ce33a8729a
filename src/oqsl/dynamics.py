"""Heisenberg-picture observable trajectories and Schrodinger-picture state
trajectories under unitary, Lindblad-adjoint, and Kraus dynamics.

Unitary trajectories are exact and hold no per-sample matrices: H is
diagonalized once, and every expectation, spread, correlation or commutator
expectation along the grid is one phase-matrix product in its eigenbasis.
Their generator speeds are constant, and ``O_samples`` is built only on
demand.

Lindblad trajectories come from one batch-first kernel,
:func:`lindblad_chunks`, which the audit also calls. It yields the grid one
chunk of at most CHUNK_BYTES of samples at a time, and every caller reduces
the chunks as they arrive. A :class:`LindbladTrajectory` keeps <O(t)>,
dO(t), both generator speeds, O(0), O(T) and tr(O(t) M) for the probe
matrices M declared before the evolution; ``O_samples`` is built only on
demand, by rerunning the kernel. Evolving an observable thus holds O(steps)
scalars, one chunk and, on the exact route, the d^4 propagator. With rates
constant in time and d <= EXACT_MAX_DIM each step is one batched mat-vec
with the exact propagator exp(h L); otherwise RK4 on the fused form
A y + y A^dag + sum_k gamma_k left_k y right_k, whose first stage gives the
speeds. Kraus trajectories call the operator family once per grid time and
work on the whole (n_times, n_ops, d, d) stack, with time-derivatives taken
by finite differences along the grid.

The Lindblad state at the end of the grid alone, which DELCAMPO reads, is
the action of exp(T L) on rho0 by a Taylor series on the fused form
(:func:`lindblad_final_state`), with no trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityState,
    NumericError,
    ValidationError,
    as_matrix,
    is_hermitian,
    mat_exp,
    require_finite,
    taylor_degree,
)

INSTABILITY_LIMIT = 1e12
# the largest dimension at which constant-rate Lindblad evolution takes the
# exact route: above it, the d^2 x d^2 propagator costs more than RK4
EXACT_MAX_DIM = 16
# the bytes one chunk of streamed Lindblad samples may take, over the whole
# batch: the kernel's working set besides the propagator
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
        return np.linspace(self.t0, self.t1, self.steps + 1)


# ---------------------------------------------------------------------------
# rates and generators


@dataclass(frozen=True)
class RateTable:
    """Piecewise-linear nonnegative rate gamma(t) tabulated on increasing times."""

    times: np.ndarray = field(compare=False)
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape or t.size < 2:
            raise ValidationError("rate table needs matching 1-D times/values, length >= 2")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValidationError("rate table entries must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("rate table times must be strictly increasing")
        if v.min() < 0:
            raise ValidationError(f"negative rate {v.min()!r} in rate table")
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


def _checked_hamiltonian(H, hbar: float, tol: float) -> np.ndarray:
    """H as a finite matrix, Hermitian within tol, with a positive finite
    hbar, else ValidationError."""
    H = as_matrix(H, "hamiltonian")
    require_finite(H, "hamiltonian")
    if not is_hermitian(H, tol):
        raise ValidationError("hamiltonian is not Hermitian within tolerance")
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
    return H


@dataclass(frozen=True)
class UnitaryGenerator:
    """Closed dynamics generated by a time-independent Hermitian Hamiltonian,
    Hermitian within ``tol``."""

    H: np.ndarray = field(compare=False)
    hbar: float = 1.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "H", _checked_hamiltonian(self.H, self.hbar, self.tol))

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class LindbladGenerator:
    """Markovian open dynamics: a Hamiltonian, Hermitian within ``tol``, plus
    jump operators with rates."""

    H: np.ndarray = field(compare=False)
    jumps: tuple = ()
    hbar: float = 1.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        H = _checked_hamiltonian(self.H, self.hbar, self.tol)
        jumps = []
        for k, (L, rate) in enumerate(self.jumps):
            L = as_matrix(L, f"jump operator {k}")
            require_finite(L, f"jump operator {k}")
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
# Kraus families


class DephasingKraus:
    """Closed-form qubit dephasing family:

    K0(t) = sqrt((1 + e^{-gamma t})/2) * I,  K1(t) = sqrt((1 - e^{-gamma t})/2) * sigma_z.
    """

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 0:
            raise ValidationError("dephasing strength must be a nonnegative real")
        self.gamma = gamma
        self.dim = 2
        self.n_ops = 2

    def operators(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValidationError("dephasing family is defined for t >= 0")
        e = math.exp(-self.gamma * t)
        a = math.sqrt((1.0 + e) / 2.0)
        b = math.sqrt((1.0 - e) / 2.0)
        # K0 = a I and K1 = b Z, from a flat list: the audit calls this per grid time
        return np.array([a, 0.0, 0.0, a, b, 0.0, 0.0, -b], dtype=complex).reshape(2, 2, 2)


class TabulatedKraus:
    """Kraus operators given as matrices on a fixed time grid.

    Evaluation is only defined at the tabulated times; evolution grids must
    therefore line up with the table.
    """

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

    def operators(self, t: float) -> np.ndarray:
        # the nearer of the two table times around t (the lower one on a tie)
        i = int(np.clip(np.searchsorted(self.times, t), 1, self.times.size - 1))
        if t - self.times[i - 1] <= self.times[i] - t:
            i -= 1
        if abs(self.times[i] - t) > 1e-12 * max(1.0, abs(t)):
            raise ValidationError(f"time {t!r} is not on the tabulated Kraus grid")
        return self.ops[i]


class FunctionKraus:
    """Kraus family given by a callable t -> sequence of (d, d) matrices."""

    def __init__(self, fn: Callable[[float], np.ndarray], dim: int, n_ops: int):
        self.fn = fn
        self.dim = int(dim)
        self.n_ops = int(n_ops)

    def operators(self, t: float) -> np.ndarray:
        K = np.asarray(self.fn(t), dtype=complex)
        if K.shape != (self.n_ops, self.dim, self.dim):
            raise ValidationError(f"Kraus callable returned shape {K.shape}")
        return K


KrausFamily = Union[DephasingKraus, TabulatedKraus, FunctionKraus]


@dataclass(frozen=True)
class KrausGenerator:
    """Dynamics given by a completely positive map via its Kraus family."""

    family: KrausFamily

    @property
    def dim(self) -> int:
        return self.family.dim


GeneratorSpec = Union[UnitaryGenerator, LindbladGenerator, KrausGenerator]


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class ObservableTrajectory:
    """A Heisenberg-picture observable O(t) along a time grid, with its
    expectation <O(t)>, spread dO(t) and generator speeds at every grid point.

    ``gen_speed_hs`` / ``gen_speed_op`` hold the Hilbert-Schmidt and operator
    norms of the generator applied to O(t) (for Kraus dynamics: the summed
    norms of K_i^dag(t) O(0) dK_i/dt). Kraus trajectories store O(t) per
    grid point; :class:`UnitaryTrajectory` and :class:`LindbladTrajectory`
    do not. Bounds read O(t) only through :meth:`trace_with` and :meth:`at`.
    """

    kind: str
    grid: TimeGrid
    # left out of repr, which would otherwise build a unitary trajectory's samples
    O_samples: np.ndarray | None = field(repr=False)
    expect: np.ndarray
    stddev: np.ndarray
    gen_speed_hs: np.ndarray
    gen_speed_op: np.ndarray

    @property
    def dim(self) -> int:
        return self.O_samples.shape[1]

    def trace_with(self, M: np.ndarray) -> np.ndarray:
        """tr(O(t) M) at every grid point (complex)."""
        return np.einsum("tab,ba->t", self.O_samples, M)

    def at(self, k: int) -> np.ndarray:
        """O(t_k) at grid index k; a negative k counts from the end."""
        return self.O_samples[k]

    def _prefix_grid(self, k: int) -> TimeGrid:
        if not 2 <= k <= self.grid.steps:
            raise ValidationError(f"prefix length {k} outside [2, {self.grid.steps}]")
        return TimeGrid(self.grid.t0, float(self.grid.times()[k]), k)

    def prefix(self, k: int) -> "ObservableTrajectory":
        """Restriction to the first k grid cells (k >= 2)."""
        per_sample = ("O_samples", "expect", "stddev", "gen_speed_hs", "gen_speed_op")
        return replace(self, grid=self._prefix_grid(k), **{f: getattr(self, f)[: k + 1] for f in per_sample})


class _SamplesOnDemand(ObservableTrajectory):
    """A trajectory that holds no O(t) per grid point: ``O_samples`` is
    built by ``_build_samples`` on first access and cached."""

    @property
    def O_samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = self._build_samples()
        return self._samples

    @O_samples.setter
    def O_samples(self, value) -> None:
        self._samples = value


class UnitaryTrajectory(_SamplesOnDemand):
    """O(t) = U^dag(t) O U(t) under a constant Hamiltonian H = V diag(w) V^dag.

    Holds the frequencies w / hbar, the eigenvectors V, and the observable and
    state in the eigenbasis, O~ = V^dag O V and rho~ = V^dag rho V. With the
    phases E[t, a] = exp(i t w_a / hbar), tr(O(t) M) is the row sum of
    (E @ (O~ * M~^T)) * conj(E), so no per-sample matrix is formed.
    [H, O(t)] = U^dag [H, O] U, so both generator speeds are constant.
    ``O_samples`` is built on first access and cached.
    """

    def __init__(self, grid: TimeGrid, freqs, vectors, O_eig, rho_eig, tol: float):
        self._freqs, self._vectors, self._O_eig, self._rho_eig, self._tol = freqs, vectors, O_eig, rho_eig, tol
        expect, stddev = self._moments(grid.times())
        # [H, O] / hbar in the eigenbasis; both norms are unitarily invariant
        comm = (freqs[:, None] - freqs[None, :]) * O_eig
        speed_hs = np.full(grid.steps + 1, np.linalg.norm(comm))
        speed_op = np.full(grid.steps + 1, np.linalg.svd(comm, compute_uv=False)[0])
        super().__init__("unitary", grid, None, expect, stddev, speed_hs, speed_op)

    def _build_samples(self) -> np.ndarray:
        return self._samples_at(self.grid.times())

    @property
    def dim(self) -> int:
        return self._vectors.shape[0]

    def trace_with(self, M: np.ndarray) -> np.ndarray:
        V = self._vectors
        return self._phase_trace(self._O_eig * (V.conj().T @ M @ V).T, self.grid.times())

    def at(self, k: int) -> np.ndarray:
        return self._samples_at(np.atleast_1d(self.grid.times()[k]))[0]

    def stddev_at(self, times) -> np.ndarray:
        """dO(t) at arbitrary times, from the closed form."""
        return self._moments(np.asarray(times, dtype=float))[1]

    def prefix(self, k: int) -> "UnitaryTrajectory":
        grid = self._prefix_grid(k)
        return UnitaryTrajectory(grid, self._freqs, self._vectors, self._O_eig, self._rho_eig, self._tol)

    def observable(self, O0: np.ndarray) -> "UnitaryTrajectory":
        """The trajectory of another observable under the same Hamiltonian,
        state and grid, over this one's eigenbasis: H is not diagonalized again."""
        O0 = _checked_observable(O0, self.dim, self._tol)
        V = self._vectors
        Vd = V.conj().T
        return UnitaryTrajectory(self.grid, self._freqs, V, Vd @ O0 @ V, self._rho_eig, self._tol)

    def _phase_trace(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        E = np.exp(1j * np.outer(times, self._freqs))
        return np.einsum("ta,ta->t", E @ X, E.conj())

    def _moments(self, times: np.ndarray):
        rho_t = self._rho_eig.T
        mean = self._phase_trace(self._O_eig * rho_t, times).real
        second = self._phase_trace((self._O_eig @ self._O_eig) * rho_t, times).real
        return mean, _spread(mean, second, self._tol)

    def _samples_at(self, times: np.ndarray) -> np.ndarray:
        E = np.exp(1j * np.outer(times, self._freqs))
        Ot = E[:, :, None] * self._O_eig[None] * E.conj()[:, None, :]
        return self._vectors @ Ot @ self._vectors.conj().T


class LindbladTrajectory(_SamplesOnDemand):
    """O(t) under a Lindblad generator, reduced chunk by chunk as the kernel
    streams it (:func:`lindblad_trajectories`).

    Holds <O(t)>, dO(t), both generator speeds, O(0), O(T), and the series
    tr(O(t) M) of each probe matrix M declared before the evolution, so
    ``trace_with`` of a declared M and ``at`` of either end read no sample.
    ``O_samples``, and through it ``trace_with`` of any other M and ``at`` of
    an interior index, reruns the kernel for this one generator (``rerun``
    returns its chunks) and is cached.
    """

    def __init__(self, grid: TimeGrid, expect, stddev, speeds, ends, probes, rerun):
        self._speeds, self._ends, self._probes, self._rerun = speeds, ends, probes, rerun
        super().__init__("lindblad", grid, None, expect, stddev, speeds[:, 0], speeds[:, 1])

    @property
    def dim(self) -> int:
        return self._ends[0].shape[0]

    def trace_with(self, M: np.ndarray) -> np.ndarray:
        for probe, series in self._probes:
            if np.array_equal(probe, M):
                return series
        return super().trace_with(M)

    def at(self, k: int) -> np.ndarray:
        k = range(self.grid.steps + 1)[k]
        if k == 0:
            return self._ends[0]
        if k == self.grid.steps and self._ends[1] is not None:
            return self._ends[1]
        return self.O_samples[k]

    def prefix(self, k: int) -> "LindbladTrajectory":
        grid = self._prefix_grid(k)
        cut = slice(0, k + 1)
        return LindbladTrajectory(
            grid,
            self.expect[cut],
            self.stddev[cut],
            self._speeds[cut],
            (self._ends[0], self._ends[1] if k == self.grid.steps else None),
            tuple((probe, series[cut]) for probe, series in self._probes),
            self._rerun,
        )

    def _build_samples(self) -> np.ndarray:
        """The (steps + 1, d, d) stack of O(t), from a rerun of the kernel."""
        n = self.grid.steps + 1
        out = np.empty((n, self.dim, self.dim), dtype=complex)
        for start, samples, _ in self._rerun():
            if start >= n:
                break
            part = samples[0, : n - start]
            out[start : start + part.shape[0]] = part
        return out


def _spread(mean: np.ndarray, second: np.ndarray, tol: float) -> np.ndarray:
    var = second - mean * mean
    if var.min() < -tol:
        raise NumericError(f"variance {var.min():.3e} below -tolerance along trajectory")
    return np.sqrt(np.clip(var, 0.0, None))


def _batch_expect(Os: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("tab,ba->t", Os, rho).real


def _batch_stddev(Os: np.ndarray, rho: np.ndarray, tol: float) -> np.ndarray:
    second = np.einsum("tab,tba->t", Os, Os @ rho).real
    return _spread(_batch_expect(Os, rho), second, tol)


def _check_state(rho: DensityState, dim: int) -> None:
    if rho.matrix.shape[0] != dim:
        raise ValidationError(f"state dimension {rho.matrix.shape[0]} != {dim}")


def _checked_observable(O0, dim: int, tol: float) -> np.ndarray:
    """O0 as a finite Hermitian (dim, dim) matrix, else ValidationError."""
    O0 = as_matrix(O0, "observable")
    require_finite(O0, "observable")
    if not is_hermitian(O0, tol):
        raise ValidationError("observable is not Hermitian within tolerance")
    if O0.shape != (dim, dim):
        raise ValidationError(f"dimension mismatch: {O0.shape} vs {(dim, dim)}")
    return O0


# ---------------------------------------------------------------------------
# unitary dynamics


def evolve_unitary_heisenberg(
    O0: np.ndarray,
    H: np.ndarray,
    rho: DensityState,
    grid: TimeGrid,
    hbar: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> UnitaryTrajectory:
    """Exact O(t) = U^dag(t) O(0) U(t) on the grid, in the eigenbasis of H."""
    H = _checked_hamiltonian(H, hbar, tol)
    O0 = _checked_observable(O0, H.shape[0], tol)
    _check_state(rho, H.shape[0])

    w, V = np.linalg.eigh(H)
    Vd = V.conj().T
    return UnitaryTrajectory(grid, w / hbar, V, Vd @ O0 @ V, Vd @ rho.matrix @ V, tol)


# ---------------------------------------------------------------------------
# Lindblad dynamics


def lindblad_apply(gen: LindbladGenerator, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Schrodinger-picture generator acting on a state:

    -(i/hbar)[H, rho] + sum_k gamma_k(t) (L_k rho L_k^dag - (1/2){L_k^dag L_k, rho}).
    """
    rho = as_matrix(rho, "state")
    if rho.shape != gen.H.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {gen.H.shape}")
    g = _rates_at(gen, t)
    if (g < 0).any():
        raise ValidationError(f"negative rate {float(g.min())!r} at t={t!r}")
    return _fused_form([gen], heisenberg=False)(t, rho[None])[0]


def _norms(X: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt and operator norms of each matrix in X, shape (..., 2)."""
    hs = np.sqrt(np.einsum("...ab,...ab->...", X.conj(), X).real)
    return np.stack([hs, _op_norms(X)], axis=-1)


def _op_norms(X: np.ndarray) -> np.ndarray:
    """The operator norm of each matrix in X, shape (...), as the square root
    of the largest eigenvalue of X^dag X (clipped at 0, so X = 0 gives 0)."""
    gram = X.conj().swapaxes(-1, -2) @ X
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None))


def _check_stable(y: np.ndarray) -> None:
    if not np.abs(y).max() <= INSTABILITY_LIMIT:
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
    cH = np.stack([(1j if heisenberg else -1j) / gen.hbar * gen.H for gen in gens])
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

    A chunk's samples take at most CHUNK_BYTES, but every chunk holds at
    least two: a one-sample remainder joins the chunk before it, because
    numpy computes a one-row matrix product as a matrix-vector product,
    whose sums run in another order than the exact route's speeds over
    longer chunks.

    When every rate is constant and d <= EXACT_MAX_DIM, each step is one
    batched mat-vec with the exact propagator exp(h L), computed once per
    generator, and the speeds apply L to each chunk. Otherwise the master
    equation is integrated by fixed-step RK4 on the fused generator, whose
    first stage gives the speeds. Both routes reject a blow-up at every step,
    and a state's trace is checked on every chunk.
    """
    times = grid.times()
    for gen in gens:
        bad = np.flatnonzero((_rates_at(gen, times) < 0).any(axis=0))
        if bad.size:
            raise ValidationError(f"jump operator {bad[0]} has negative rate on the grid")
    y0 = np.asarray(y0, dtype=complex)
    B, d = y0.shape[:2]
    starts = list(range(0, times.size, max(2, CHUNK_BYTES // (16 * B * d * d))))
    if times.size - starts[-1] == 1:
        starts.pop()
    spans = list(zip(starts, starts[1:] + [times.size]))
    if all(_takes_exact_route(gen) for gen in gens):
        chunks = _exact_chunks(gens, y0, grid.h, spans, heisenberg)
    else:
        chunks = _rk4_chunks(_fused_form(gens, heisenberg), y0, times, spans, heisenberg)
    for start, samples, speeds in chunks:
        if not heisenberg:
            _check_trace(samples)
        yield start, samples, speeds


def _exact_chunks(gens, y0: np.ndarray, h: float, spans, heisenberg: bool):
    """The chunks of :func:`lindblad_chunks` by the exact propagator."""
    B, d = y0.shape[:2]
    Lv = np.stack([liouvillian(gen, heisenberg) for gen in gens])
    P = mat_exp(h * Lv)
    y = y0.reshape(B, d * d)
    for start, end in spans:
        out = np.empty((B, end - start, d * d), dtype=complex)
        for j in range(end - start):
            if start + j:
                y = np.einsum("bij,bj->bi", P, y)
                _check_stable(y)
            out[:, j] = y
        speeds = None
        if heisenberg:
            speeds = np.empty((B, end - start, 2))
            for b in range(B):
                speeds[b] = _norms((out[b] @ Lv[b].T).reshape(-1, d, d))
        yield start, out.reshape(B, end - start, d, d), speeds


def _rk4_chunks(f, y: np.ndarray, times: np.ndarray, spans, heisenberg: bool):
    """The chunks of :func:`lindblad_chunks` by classical fixed-step RK4 of
    dy/dt = f(t, y). The first stage is f at the sample, so an observable's
    speeds there are the norms of it."""
    h = times[1] - times[0]
    last = times.size - 1
    for start, end in spans:
        out = np.empty((y.shape[0], end - start) + y.shape[1:], dtype=complex)
        speeds = np.empty((y.shape[0], end - start, 2)) if heisenberg else None
        for j, i in enumerate(range(start, end)):
            out[:, j] = y
            if i < last or heisenberg:
                k1 = f(times[i], y)
            if heisenberg:
                speeds[:, j] = _norms(k1)
            if i == last:
                break
            t = times[i]
            k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_stable(y)
        yield start, out, speeds


def lindblad_trajectories(gens, O0s: np.ndarray, rhos, grid: TimeGrid, probes, tol: float = DEFAULT_TOL):
    """The Heisenberg trajectories of O0s[b] under gens[b] in the states
    rhos[b], reduced chunk by chunk as :func:`lindblad_chunks` streams them,
    so no (steps + 1, d, d) stack is held. ``probes[b]`` lists the matrices M
    whose series tr(O_b(t) M) trajectory b keeps.

    <O(t)> and the probe series are contracted one generator at a time: over
    a batch, numpy's einsum runs the sums of these contractions in another
    order. The second moment and the speeds are taken over the whole batch.
    On-demand samples rerun the kernel for one generator, whose propagator
    is scaled alone (:func:`~oqsl.linalg.mat_exp` scales a stack by its
    largest norm), so in a batch of several they can differ from the
    reductions in the last digits.
    """
    B, n = len(gens), grid.steps + 1
    rho = np.stack([r.matrix for r in rhos])
    expect, second, speeds = np.empty((B, n)), np.empty((B, n)), np.empty((B, n, 2))
    series = [np.empty((len(p), n), dtype=complex) for p in probes]
    for start, samples, chunk_speeds in lindblad_chunks(gens, O0s, grid, heisenberg=True):
        cut = slice(start, start + samples.shape[1])
        second[:, cut] = np.einsum("ntab,ntba->nt", samples, samples @ rho[:, None]).real
        speeds[:, cut] = chunk_speeds
        for b, Os in enumerate(samples):
            expect[b, cut] = _batch_expect(Os, rho[b])
            for k, M in enumerate(probes[b]):
                series[b][k, cut] = np.einsum("tab,ba->t", Os, M)
    last = samples[:, -1].copy()
    return [
        LindbladTrajectory(
            grid,
            expect[b],
            _spread(expect[b], second[b], tol),
            speeds[b],
            (O0s[b], last[b]),
            tuple(zip(probes[b], series[b])),
            functools.partial(lindblad_chunks, [gens[b]], O0s[b][None], grid, True),
        )
        for b in range(B)
    ]


def evolve_lindblad_heisenberg(
    O0: np.ndarray,
    gen: LindbladGenerator,
    rho: DensityState,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    probes=(),
) -> LindbladTrajectory:
    """dO/dt = (i/hbar)[H, O] + D[O] on the grid, through
    :func:`lindblad_trajectories`; ``probes`` are the matrices M whose
    series tr(O(t) M) the trajectory keeps."""
    O0 = _checked_observable(O0, gen.dim, tol)
    _check_state(rho, gen.dim)
    return lindblad_trajectories([gen], O0[None], [rho], grid, [probes], tol)[0]


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
    if not np.isfinite(M).all():  # hbar so small that c H overflows
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
    gen: KrausGenerator,
    rho: DensityState,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
) -> ObservableTrajectory:
    """Direct evaluation of O(t) = sum_i K_i^dag(t) O(0) K_i(t) per grid point.

    Also records the summed speeds sum_i ||K_i^dag(t) O(0) dK_i/dt|| used by
    the Kraus-map speed-limit bound.
    """
    family = gen.family
    O0 = _checked_observable(O0, family.dim, tol)
    _check_state(rho, family.dim)

    times = grid.times()
    K = np.array([family.operators(t) for t in times.tolist()])
    defect = np.abs(np.einsum("tiab,tiac->tbc", K.conj(), K) - np.eye(family.dim)).max(axis=(1, 2))
    bad = np.flatnonzero(defect > max(tol, 1e-8))
    if bad.size:
        j = bad[0]
        raise ValidationError(f"Kraus completeness violated at t={times[j]!r} (defect {defect[j]:.3e})")
    KdO = K.conj().swapaxes(-1, -2) @ O0
    Os = (KdO @ K).sum(axis=1)
    # dK/dt by central differences along the grid, one-sided at its two ends
    M = KdO @ np.gradient(K, grid.h, axis=0)
    speed_hs = np.linalg.norm(M, axis=(-2, -1)).sum(axis=1)
    speed_op = _op_norms(M).sum(axis=1)

    return ObservableTrajectory(
        kind="kraus",
        grid=grid,
        O_samples=Os,
        expect=_batch_expect(Os, rho.matrix),
        stddev=_batch_stddev(Os, rho.matrix, tol),
        gen_speed_hs=speed_hs,
        gen_speed_op=speed_op,
    )


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
