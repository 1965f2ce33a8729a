"""Heisenberg-picture observable trajectories and Schrodinger-picture state
trajectories under unitary, Lindblad-adjoint, and Kraus dynamics.

Each input of an evolution is stated once: its generator states the
dynamics and the tolerance ``tol`` of every check, and its :class:`TimeGrid`
runs from t = 0 to the horizon T. Every evolution of an observable returns a
:class:`Trajectory` of reductions, all computed before it returns: <O(t)>,
dO(t) and both generator speeds at every grid point, and tr(O(t) M) for the
probe matrices M declared before the evolution. No O(t) is kept at any time,
the ends included: a bound that reads O(t) declares its probe, and
``trace_with`` of an undeclared M raises.

Unitary trajectories are exact and form no per-sample matrix: H is
diagonalized once, and the moments and probe series along the grid come
from one phase matrix in its eigenbasis. :class:`UnitaryTrajectory` keeps
that eigen data for the spread off the grid and the expectations of another
observable. Its generator speeds are constant.

Lindblad and Kraus kernels are batch-first and stream the grid in chunks of
about CHUNK_BYTES, which one reducer turns into trajectories as they arrive,
so evolving a batch of observables holds O(steps) scalars per entry, one
chunk and, on the exact Lindblad route, the d^4 propagators. Every jump
rate is a constant float, so the route depends on the dimension alone: for
d <= EXACT_MAX_DIM, :func:`lindblad_chunks` steps by one batched BLAS
product with the exact propagator exp(h L); above it one Taylor series on
the fused form A y + y A^dag + sum_k gamma_k left_k y right_k, built once,
gives the samples and L^dag[O(t)] of a cell of grid steps, the cells
tiling the grid whatever the chunks. Both routes take an observable's
speeds, once per chunk, from L^dag[O(t)], which is Hermitian: its operator
norm is its largest |eigenvalue|, in closed form for d = 2. An observable
that is Hermitian only within ``tol`` is read, like ``numpy.linalg.eigvalsh``
reads it, through its lower triangle. The Kraus kernel calls each family on
a chunk's times and one more on each side, so dK/dt is the central
difference along the grid, one-sided at its ends, whatever the chunking.

The Lindblad state at the end of the grid alone, which DELCAMPO reads, is
the last sample of :func:`lindblad_chunks` on the fewest steps of one
series each, n = floor(T beta) + 1 and at least 2, or on the grid itself
where T beta is past its steps (:func:`lindblad_final_state`), beta being
the bound the stepper reads, :attr:`LindbladGenerator.beta`.
"""

from __future__ import annotations

import functools
import math
from typing import Union

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityState,
    NumericError,
    ValidationError,
    as_matrix,
    checked_hermitian,
    hermitian_op_norm,
    hs_norm,
    mat_exp,
    op_norm,
    require_finite,
    require_squarable,
    taylor_degree,
)

INSTABILITY_LIMIT = 1e12
# how far a state's trace may drift from 1 along a Lindblad evolution
TRACE_TOL = 1e-8
# the largest dimension at which Lindblad evolution takes the exact route, the
# stiff route: it computes a step with h beta > THETA, which the Taylor cells
# refuse (tests/test_cli.py::test_bound_stiff_constant_rate_takes_exact_route);
# the cells match or beat its time at every d (scripts/lindblad_routes.py)
EXACT_MAX_DIM = 4
THETA = 1.0  # the Taylor stepper's largest ||tau L|| a series, and so a grid step's
# the bytes one chunk of streamed Lindblad samples, or of the Kraus kernel's
# working set, may take over the whole batch
CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# time grid


class TimeGrid:
    """Uniform grid of ``steps`` cells on [0, T] (steps + 1 sample points):
    every evolution starts at t = 0 and runs to the horizon T."""

    def __init__(self, T: float, steps: int):
        if not 0.0 < T < math.inf:  # NaN fails the comparison
            raise ValidationError(f"the horizon T must be positive and finite, got {float(T)!r}")
        if not (2 <= steps < math.inf and int(steps) == steps):  # NaN and inf fail the comparison
            raise ValidationError("grid requires an integer steps >= 2")
        self.T, self.steps = float(T), int(steps)

    @property
    def h(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        """The steps + 1 sample times, built once per grid and read-only."""
        return self._times

    @functools.cached_property
    def _times(self) -> np.ndarray:
        times = np.linspace(0.0, self.T, self.steps + 1)
        times.flags.writeable = False
        return times


# ---------------------------------------------------------------------------
# generators


class UnitaryGenerator:
    """Closed dynamics generated by a time-independent Hermitian Hamiltonian,
    Hermitian within ``tol``."""

    kind = "unitary"

    def __init__(self, H: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL):
        self.H = checked_hermitian(H, "hamiltonian", tol)
        if not (np.isfinite(hbar) and hbar > 0):
            raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
        self.hbar, self.tol = float(hbar), tol

    @property
    def dim(self) -> int:
        return self.H.shape[0]


class LindbladGenerator:
    """Markovian open dynamics: a Hamiltonian, Hermitian within ``tol``, plus
    jump operators, each with a constant rate held as a checked float."""

    kind = "lindblad"

    def __init__(self, H: np.ndarray, jumps: tuple = (), hbar: float = 1.0, tol: float = DEFAULT_TOL):
        H = UnitaryGenerator(H, hbar, tol).H  # the Hamiltonian part, checked as a closed system's
        checked = []
        for k, (L, rate) in enumerate(jumps):
            L = as_matrix(L, f"jump operator {k}")
            require_finite(L, f"jump operator {k}")
            require_squarable(L, f"jump operator {k}")
            if L.shape != H.shape:
                raise ValidationError(f"jump operator {k} has shape {L.shape}, expected {H.shape}")
            try:
                rate = float(rate)
            except (TypeError, ValueError):
                raise ValidationError(f"non-real rate {rate!r} for jump operator {k}") from None
            if not np.isfinite(rate):
                raise ValidationError(f"non-finite rate {rate!r} for jump operator {k}")
            if rate < 0:
                raise ValidationError(f"negative rate {rate!r} for jump operator {k}")
            checked.append((L, rate))
        self.H, self.jumps, self.hbar, self.tol = H, tuple(checked), float(hbar), tol

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @functools.cached_property
    def beta(self) -> float:
        """beta = ||A||_2 + ||A'||_2 + sum_k gamma_k ||L_k||_2^2 >= ||L|| on the
        terms of :func:`_fused_form`, taken once and read by the Taylor stepper:
        one number for both pictures, whose A and A' swap; inf on overflow."""
        A, Ad, _ = _fused_form([self], heisenberg=True).terms
        M = np.stack([A[0], Ad[0], *(L for L, _ in self.jumps)])
        if not np.isfinite(M).all():  # jumps so large that K overflows
            return math.inf
        norms = op_norm(M)
        with np.errstate(over="ignore"):
            return float(norms[0] + norms[1] + np.array([rate for _, rate in self.jumps]) @ norms[2:] ** 2)


# ---------------------------------------------------------------------------
# Kraus families, each the generator of its own dynamics: like the generators
# above, each holds the tolerance ``tol`` of every check along its evolutions


class DephasingKraus:
    """Closed-form qubit dephasing family:

    K0(t) = sqrt((1 + e^{-gamma t})/2) * I,  K1(t) = sqrt((1 - e^{-gamma t})/2) * sigma_z.
    """

    kind = "kraus"

    def __init__(self, gamma: float, tol: float = DEFAULT_TOL):
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 0:
            raise ValidationError("dephasing strength must be a nonnegative real")
        self.gamma, self.tol = gamma, tol
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

    Evaluation is only defined at the tabulated times; evolution grids, which
    start at t = 0, must therefore line up with the table.
    """

    kind = "kraus"

    def __init__(self, times, ops, tol: float = DEFAULT_TOL):
        t = np.asarray(times, dtype=float)
        K = np.asarray(ops, dtype=complex)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValidationError("tabulated Kraus times must be strictly increasing, length >= 2")
        if K.ndim != 4 or K.shape[0] != t.size or K.shape[2] != K.shape[3]:
            raise ValidationError(
                "tabulated Kraus operators must have shape (n_times, n_ops, d, d)"
            )
        require_finite(K.reshape(-1, K.shape[-1]), "tabulated Kraus operators")
        self.times, self.ops, self.tol = t, K, tol
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


class Trajectory:
    """The reductions of a Heisenberg-picture observable O(t) along a time
    grid, each a series over its grid points: the expectation <O(t)>, the
    spread dO(t), the generator speeds and tr(O(t) M) for each probe matrix
    M declared before the evolution. No O(t) is kept, at any grid point.

    ``gen_speed_hs`` / ``gen_speed_op`` hold the Hilbert-Schmidt and operator
    norms of the generator applied to O(t) (for Kraus dynamics: the summed
    norms of K_i^dag(t) O(0) dK_i/dt). ``dim`` is the dimension of O;
    ``probes`` pairs each declared M with its series. Every kind serves the
    same reads: bounds read O(t) only through :meth:`trace_with`, so a
    :meth:`prefix` serves every bound.
    """

    _EXTRA = ()  # the keyword-only fields of a subclass, which prefix() carries over

    def __init__(self, kind: str, grid: TimeGrid, expect: np.ndarray, stddev: np.ndarray,
                 gen_speed_hs: np.ndarray, gen_speed_op: np.ndarray, dim: int, probes: tuple = ()):
        self.kind, self.grid, self.expect, self.stddev = kind, grid, expect, stddev
        self.gen_speed_hs, self.gen_speed_op, self.dim, self.probes = gen_speed_hs, gen_speed_op, dim, probes

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

    def prefix(self, k: int) -> "Trajectory":
        """Restriction to the first k grid cells (k >= 2)."""
        if not 2 <= k <= self.grid.steps:
            raise ValidationError(f"prefix length {k} outside [2, {self.grid.steps}]")
        cut = slice(0, k + 1)
        return type(self)(
            self.kind,
            TimeGrid(float(self.grid.times()[k]), k),
            *(getattr(self, f)[cut] for f in ("expect", "stddev", "gen_speed_hs", "gen_speed_op")),
            self.dim,
            tuple((M, series[cut]) for M, series in self.probes),
            **{f: getattr(self, f) for f in self._EXTRA},
        )


class UnitaryTrajectory(Trajectory):
    """A :class:`Trajectory` under a constant Hamiltonian H = V diag(w) V^dag,
    with its eigen data: w / hbar, V, O~ = V^dag O V and rho~ = V^dag rho V.
    It keeps the two closed forms that no declared probe replaces: the spread
    off the grid (:meth:`stddev_at`) and another observable's expectation
    (:meth:`expect_of`)."""

    _EXTRA = ("freqs", "vectors", "O_eig", "rho_eig", "tol")

    def __init__(self, kind: str, grid: TimeGrid, expect: np.ndarray, stddev: np.ndarray,
                 gen_speed_hs: np.ndarray, gen_speed_op: np.ndarray, dim: int, probes: tuple = (), *,
                 freqs: np.ndarray, vectors: np.ndarray, O_eig: np.ndarray, rho_eig: np.ndarray, tol: float):
        super().__init__(kind, grid, expect, stddev, gen_speed_hs, gen_speed_op, dim, probes)
        self.freqs, self.vectors, self.O_eig, self.rho_eig, self.tol = freqs, vectors, O_eig, rho_eig, tol

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


def evolve_unitary_heisenberg(O0: np.ndarray, gen: UnitaryGenerator, rho: DensityState, grid: TimeGrid,
                              probes=()) -> UnitaryTrajectory:
    """Exact O(t) = U^dag(t) O(0) U(t) on the grid, in the eigenbasis of
    gen.H, reduced from one phase matrix E[t, a] = exp(i t w_a / hbar):
    tr(O(t) M) is the row sum of (E @ (O~ * M~^T)) * conj(E), so no
    per-sample matrix is formed. [H, O(t)] = U^dag [H, O] U, so both
    generator speeds are constant. ``probes`` are the matrices M whose series
    the trajectory keeps."""
    O0 = checked_hermitian(O0, "observable", gen.tol, gen.dim)
    _check_state(rho, gen.dim)

    w, V = np.linalg.eigh(gen.H)
    Vd = V.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny hbar overflows, and raises below
        freqs, O_eig, rho_eig = w / gen.hbar, Vd @ O0 @ V, Vd @ rho.matrix @ V
        # [H, O] / hbar in the eigenbasis; both norms are unitarily invariant
        comm = (freqs[:, None] - freqs[None, :]) * O_eig
    hs = float(hs_norm(comm)) if np.isfinite(comm).all() else math.inf
    if not math.isfinite(hs):  # else every frequency and the operator norm, at most hs, are finite
        raise NumericError(f"generator speed gen_speed_hs = ||[H, O] / hbar||_HS is {hs} at hbar = {gen.hbar!r}")
    speeds = (np.full(grid.steps + 1, x) for x in (hs, op_norm(comm)))
    E = _phases(freqs, grid.times())
    expect, stddev = _moments(O_eig, rho_eig, E, gen.tol)
    series = tuple((M, _phase_trace(O_eig * (Vd @ M @ V).T, E)) for M in probes)
    return UnitaryTrajectory(
        "unitary", grid, expect, stddev, *speeds, gen.dim, series,
        freqs=freqs, vectors=V, O_eig=O_eig, rho_eig=rho_eig, tol=gen.tol,
    )


# ---------------------------------------------------------------------------
# Lindblad dynamics


def lindblad_apply(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Schrodinger-picture generator acting on a state:

    -(i/hbar)[H, rho] + sum_k gamma_k (L_k rho L_k^dag - (1/2){L_k^dag L_k, rho}).
    """
    rho = as_matrix(rho, "state")
    if rho.shape != gen.H.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {gen.H.shape}")
    return _fused_form([gen], heisenberg=False)(rho[None])[0]


def _norms(X: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt and operator norms of each Hermitian matrix in X
    (read through its lower triangle), shape (..., 2)."""
    return np.stack([hs_norm(X), hermitian_op_norm(X)], axis=-1)


def _check_stable(y: np.ndarray, limit=INSTABILITY_LIMIT) -> None:
    """Reject a blow-up: an entry of y[b] above limit, or limit[b] for one
    limit per batch entry."""
    if not (np.abs(y).reshape(len(y), -1).max(axis=1) <= limit).all():
        raise NumericError("integration became unstable; reduce the step size (increase steps)")


def _check_trace(states: np.ndarray) -> None:
    trace = np.einsum("...aa->...", states.real)  # one temporary of the batch shape
    if max(trace.max() - 1.0, 1.0 - trace.min()) > TRACE_TOL:
        raise NumericError("trace not preserved to 1e-8; reduce the step size")


def liouvillian(gen: LindbladGenerator, heisenberg: bool) -> np.ndarray:
    """The d^2 x d^2 matrix of the adjoint generator (``heisenberg``) or of the
    Schrodinger generator, acting on row-major vec(X): column i d + j is the
    generator applied to the matrix unit E_ij."""
    n = gen.dim * gen.dim
    return _fused_form([gen], heisenberg)(np.eye(n).reshape(n, gen.dim, gen.dim)).reshape(n, n).T


def _fused_form(gens, heisenberg: bool):
    """The generators in fused form, f(y) on a stack y of shape (B, d, d)
    (y[b] under gens[b]; y need not be Hermitian), with 2 + 2J matmuls:
    f(y) = A y + y A' + sum_k gamma_k left_k y right_k, where
    A = c H - K, A' = -c H - K (A^dag for a Hermitian H) and
    K = (1/2) sum_k gamma_k L_k^dag L_k; c = i/hbar and (left, right) =
    (L^dag, L) for observables, c = -i/hbar and (L, L^dag) for states. The
    terms are built once, and ``f.terms`` is (A, A', gamma_k left_k), each
    stacked over the batch."""
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
    g = np.array([[rate for _, rate in gen.jumps] for gen in gens], dtype=float).reshape(len(gens), J)
    K = np.einsum("bk,bkij->bij", g, half_LdL)
    A, Ad, g_left = cH - K, -cH - K, g[:, :, None, None] * left

    def f(y):
        out = A @ y
        out += y @ Ad
        for k in range(J):
            out += g_left[:, k] @ y @ right[:, k]
        return out

    f.terms = A, Ad, g_left
    return f


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

    For d <= EXACT_MAX_DIM each step is one batched BLAS product with the
    exact propagator exp(h L), computed once per generator, and the speeds
    apply L to each chunk. Above it one Taylor series on the fused generator
    gives the samples and speeds of a cell of grid steps, the cells tiling the
    grid and the chunks setting only where samples are written
    (:func:`_taylor_chunks`); a grid whose step h has h beta > THETA, beta
    the batch's largest :attr:`LindbladGenerator.beta`, is refused before the
    first generator call. The exact
    route rejects a blow-up on every chunk and the stepper at the end of every
    series: an entry of y[b] above INSTABILITY_LIMIT times
    max(1, max |y0[b]|), as the Heisenberg flow does not grow an observable's
    norm and a state's entries are at most 1; a state's trace is checked on
    every chunk.
    """
    y0 = np.asarray(y0, dtype=complex)
    B, d = y0.shape[:2]
    spans = _spans(grid.steps + 1, 16 * B * d * d)
    with np.errstate(over="ignore"):  # a huge observable's limit is the largest float
        limit = INSTABILITY_LIMIT * np.abs(y0).reshape(B, -1).max(axis=1)
    limit = np.clip(limit, INSTABILITY_LIMIT, np.finfo(float).max)
    if d <= EXACT_MAX_DIM:
        chunks = _exact_chunks(gens, y0, grid, spans, heisenberg, limit)
    else:
        f = _fused_form(gens, heisenberg)
        gen = max(gens, key=lambda g: g.beta)
        hb = grid.h * gen.beta
        order = _taylor_order(hb, grid.steps)
        if order is None:
            raise NumericError(f"the Taylor stepper needs h beta <= {THETA:g}, and the step h = {grid.h!r} "
                               f"has h beta = {hb:.6g} at hbar = {gen.hbar!r}")
        chunks = _taylor_chunks(f, y0, grid.h, *order, spans, heisenberg, limit)
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


def _exact_chunks(gens, y0: np.ndarray, grid: TimeGrid, spans, heisenberg: bool, limit):
    """The chunks of :func:`lindblad_chunks` by the exact propagator, one
    BLAS product P @ y a step with y held as a column, shape (B, d^2, 1). A
    blow-up beyond ``limit`` is checked once per chunk, on its samples,
    before the speeds, so the steps that overflow on the way there do so
    silently.

    A step h L whose jumps damp less than a factor e within it,
    h sum_k gamma_k ||L_k||_2^2 < 1, is rejected when its largest entry,
    the phase that i H / hbar turns in one step, rounds exp(h L) beyond the
    trace tolerance over the grid: the error grows like
    steps * phase * 2^-53, which for a small hbar no step count fixes. A
    large step that the jumps damp is left to the propagator."""
    B, d = y0.shape[:2]
    h, steps = grid.h, grid.steps
    Lv = np.stack([liouvillian(gen, heisenberg) for gen in gens])
    scale = h * float(np.abs(Lv).max())  # a Python float, which overflows silently
    if not math.isfinite(scale):
        raise NumericError(f"the exact propagator exp(h L) overflows: the step h = {h!r} times the generator L "
                           "is not finite")
    max_phase = TRACE_TOL * 2.0**53 / steps
    if scale > max_phase:
        for gen, L in zip(gens, Lv):
            phase = h * float(np.abs(L).max())
            if phase > max_phase and h * sum(rate * op_norm(Lk) ** 2 for Lk, rate in gen.jumps) < 1.0:
                raise NumericError(f"the Hamiltonian term i H / hbar at hbar = {gen.hbar!r} turns phases of "
                                   f"{phase:.6g} rad in one step h = {h!r}: over {steps} steps, the rounding of "
                                   "exp(h L) exceeds the trace tolerance 1e-8")
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


def _taylor_chunks(f, y: np.ndarray, h: float, m: int, c: int, spans, heisenberg: bool, limit):
    """The chunks of :func:`lindblad_chunks` by degree-m Taylor series of
    exp(tau L) on the fused generator f (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011), each series read at several grid points (Taylor dense
    output: Jorba & Zou, Exp. Math. 14, 2005). Cells of c steps tile the grid
    from step 0, one series each: from its first sample y a cell of k steps
    builds the scaled terms U_n = (tau L)^n y / n!, tau = k h, for n <= m + 1
    (m for states and for k = 1); its samples y(jh) = sum_n (j/k)^n U_n and
    speeds L[y(jh)] = sum_n (j/k)^n (n + 1) / tau U_(n+1), j < k, are two
    products with the Vandermonde rows in a chunk, a cell that crosses chunks
    holding its terms, and the next cell starts from sum_n U_n. A blow-up is
    checked at each cell's end; the last sample's speeds take one more call."""
    B, last = y.shape[0], spans[-1][1] - 1
    terms = np.empty((m + 2 if heisenberg else m + 1,) + y.shape, dtype=complex)
    for start, end in spans:
        out = np.empty((B, end - start) + y.shape[1:], dtype=complex)
        derivs = np.empty_like(out) if heisenberg else None
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises at its cell's end
            for i in range(start - start % c, min(end, last), c):
                k = min(c, last - i)
                tau, lo, hi = k * h, max(i, start), min(i + k, end)
                top = m + 2 if heisenberg and k > 1 else m + 1  # U_(m+1) only for speeds past a cell's first sample
                if i >= start:  # else its terms are held from an earlier chunk
                    terms[0] = y
                    for n in range(1, top):
                        terms[n] = f(terms[n - 1])
                        terms[n] *= tau / n
                    y = terms[: m + 1].sum(axis=0)
                    _check_stable(y, limit)
                V = ((np.arange(lo, hi) - i) / k)[:, None] ** np.arange(m + 1)
                rows = slice(lo - start, hi - start)
                _combine(V, terms[: m + 1], out[:, rows])
                if heisenberg:
                    _combine(V[:, : top - 1] * (np.arange(1, top) / tau), terms[1:top], derivs[:, rows])
            if end - 1 == last:
                out[:, -1] = y
                if heisenberg:
                    derivs[:, -1] = f(y)
        yield start, out, _norms(derivs) if heisenberg else None


def _combine(V: np.ndarray, terms: np.ndarray, out: np.ndarray) -> None:
    """out[b] = sum_n V[:, n] terms[n, b] for each batch entry b, one real
    BLAS product a batch entry on the (re, im) pairs of the complex terms."""
    for b in range(out.shape[0]):
        np.matmul(V, terms[:, b].reshape(len(terms), -1).view(float), out=out[b].reshape(len(V), -1).view(float))


def _taylor_order(hb: float, cap: int):
    """(m, c) for :func:`_taylor_chunks` on steps h with h beta = ``hb``
    (:attr:`LindbladGenerator.beta`): cells of c = min(floor(THETA / h beta),
    cap) steps (the kernel caps c at the grid), one series each, so
    tau beta <= THETA for tau = c h. m is the least degree whose remainder bound
    (tau beta)^(m+1) / (m+1)! e^(tau beta) is 2^-53 a series: the flows
    contract the operator norm (Russo-Dye) and the trace norm, so that bounds
    each sample's error, and each speed's by beta 2^-53, relative to ||y0|| a
    cell. A step with h beta > THETA: None."""
    if not hb <= THETA:  # also NaN
        return None
    c = cap if hb * cap <= THETA else math.floor(THETA / hb)  # THETA / hb may overflow
    return taylor_degree(c * hb), c


def _reduce_chunks(gens, chunks, rhos, grid: TimeGrid, probes) -> list[Trajectory]:
    """The trajectories of a stream of observable chunks (start, samples,
    speeds), shaped as :func:`lindblad_chunks` yields them, each chunk
    reduced as it arrives: batch entry b, under gens[b], is read in the state
    rhos[b] within gens[b].tol and keeps the series tr(O_b(t) M) of the
    matrices M in ``probes[b]``. The variance is taken chunk by chunk, so the
    reducer holds four scalars a sample: <O(t)>, the variance and the two
    speeds.

    <O(t)> and the probe series are contracted one batch entry at a time:
    over a batch, numpy's einsum runs their sums in another order.
    """
    B, n = len(rhos), grid.steps + 1
    rho = np.stack([r.matrix for r in rhos])
    expect, var, speeds = np.empty((B, n)), np.empty((B, n)), np.empty((B, n, 2))
    series = [np.empty((len(p), n), dtype=complex) for p in probes]
    for start, samples, chunk_speeds in chunks:
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
        del samples, rho_products, Os  # freed before the kernel builds the next chunk
    return [
        Trajectory(
            gens[b].kind,
            grid,
            expect[b],
            _spread(var[b], gens[b].tol),
            speeds[b, :, 0],
            speeds[b, :, 1],
            rho.shape[-1],
            tuple(zip(probes[b], series[b])),
        )
        for b in range(B)
    ]


def trajectories(gens, O0s: np.ndarray, rhos, grid: TimeGrid, probes) -> list[Trajectory]:
    """The Heisenberg trajectories of O0s[b] under gens[b] in the states
    rhos[b], keeping the series tr(O_b(t) M) of the M in ``probes[b]``: the
    batch-first kernel of the generators' one kind, :func:`lindblad_chunks`
    for Lindblad generators and :func:`_kraus_chunks` for Kraus families."""
    kinds = sorted({gen.kind for gen in gens})
    if kinds == ["lindblad"]:
        chunks = lindblad_chunks(gens, O0s, grid, heisenberg=True)
    elif kinds == ["kraus"]:
        chunks = _kraus_chunks(gens, np.asarray(O0s, dtype=complex), grid)
    else:
        raise ValidationError(f"a batch of trajectories needs generators of one open kind, got {', '.join(kinds)}")
    return _reduce_chunks(gens, chunks, rhos, grid, probes)


def evolve_lindblad_heisenberg(O0: np.ndarray, gen: LindbladGenerator, rho: DensityState, grid: TimeGrid,
                               probes=()) -> Trajectory:
    """dO/dt = (i/hbar)[H, O] + D[O] on the grid, through
    :func:`trajectories`; ``probes`` are the matrices M whose series
    tr(O(t) M) the trajectory keeps."""
    O0 = checked_hermitian(O0, "observable", gen.tol, gen.dim)
    _check_state(rho, gen.dim)
    return trajectories([gen], O0[None], [rho], grid, [probes])[0]


def evolve_lindblad_schrodinger(rho0: DensityState, gen: LindbladGenerator, grid: TimeGrid) -> list[DensityState]:
    """The state-picture master equation along the grid, the chunks of
    :func:`lindblad_chunks` joined into one stack.

    Trace preservation is verified to 1e-8. The samples are validated as one
    stack within gen.tol; positivity loss beyond it is reported as one
    warning naming the worst sample rather than as an error.
    """
    _check_state(rho0, gen.dim)
    samples = np.empty((grid.steps + 1, gen.dim, gen.dim), dtype=complex)
    for start, chunk, _ in lindblad_chunks([gen], rho0.matrix[None], grid, heisenberg=False):
        samples[start : start + chunk.shape[1]] = chunk[0]
    return DensityState.from_stack(samples, tol=gen.tol, on_indefinite="warn")


def lindblad_final_state(rho0: DensityState, gen: LindbladGenerator, grid: TimeGrid) -> DensityState:
    """The state rho(T) = exp(T L) rho0 at the end of the grid: the last
    sample of :func:`lindblad_chunks` on the fewest steps of one Taylor series
    each, n = floor(T beta) + 1 >= 2 (:attr:`LindbladGenerator.beta`), or on
    the grid itself where T beta >= its steps. T beta rounds below n only
    where the exact T beta / n <= 1 - 2^-54, so the kernel's h beta,
    (T / n) beta rounded twice, is below 1 + 2^-53 and rounds to at most
    THETA = 1: a whole T beta, where ceil(T beta) steps can be refused, is
    not. The kernel picks the
    route and checks the step, stability and trace; rho(T) is validated
    within gen.tol, positivity loss beyond being a warning."""
    _check_state(rho0, gen.dim)
    Tb = grid.T * gen.beta
    n = max(2, math.floor(Tb) + 1) if Tb < grid.steps else grid.steps
    for _, chunk, _ in lindblad_chunks([gen], rho0.matrix[None], TimeGrid(grid.T, n), heisenberg=False):
        rho_T = chunk[0, -1]
    return DensityState.from_matrix(rho_T, tol=gen.tol, on_indefinite="warn")


# ---------------------------------------------------------------------------
# Kraus dynamics


def evolve_kraus_heisenberg(O0: np.ndarray, family: Union[DephasingKraus, TabulatedKraus], rho: DensityState,
                            grid: TimeGrid, probes=()) -> Trajectory:
    """O(t) = sum_i K_i^dag(t) O(0) K_i(t) on the grid, with the summed
    speeds sum_i ||K_i^dag(t) O(0) dK_i/dt|| that the Kraus-map bound reads,
    through :func:`trajectories`."""
    O0 = checked_hermitian(O0, "observable", family.tol, family.dim)
    _check_state(rho, family.dim)
    return trajectories([family], O0[None], [rho], grid, [probes])[0]


def _kraus_chunks(families, O0s: np.ndarray, grid: TimeGrid):
    """The batch-first Kraus kernel, O0s[b] (shape (B, d, d)) under
    families[b] (one dimension, one number of operators): yields chunks like
    :func:`lindblad_chunks`, the speeds being the summed norms of
    K_i^dag(t) O0 dK_i/dt, after checking sum_i K_i^dag K_i = 1 within
    max(tol, 1e-8), tol each family's own. With one more sample on each side
    of a chunk, ``np.gradient`` gives the central difference along the grid,
    one-sided at its ends. :func:`_spans` sizes a chunk by its whole working
    set: the window of K, K^dag O, dK/dt, K^dag O dK/dt and O(t)."""
    times = grid.times()
    B, d = O0s.shape[:2]
    m = families[0].n_ops
    limits = np.array([max(family.tol, 1e-8) for family in families])[:, None]
    for start, end in _spans(times.size, 16 * B * d * d * (4 * m + 1)):
        lo = max(start - 1, 0)
        window = np.stack([family.operators(times[lo : end + 1]) for family in families])
        own = slice(start - lo, end - lo)
        K = window[:, own]
        defect = np.abs(np.einsum("ntiab,ntiac->ntbc", K.conj(), K) - np.eye(d)).max(axis=(2, 3))
        bad_t, bad_b = np.nonzero((defect > limits).T)  # in time order
        if bad_t.size:
            j, b = bad_t[0], bad_b[0]
            raise ValidationError(f"Kraus completeness violated at t={float(times[start + j])!r} "
                                  f"(defect {defect[b, j]:.3e})")
        # one product per batch entry, not one per sample
        KdO = (K.conj().swapaxes(-1, -2).reshape(B, -1, d) @ O0s).reshape(K.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # a subnormal step overflows, and raises below
            M = KdO @ np.gradient(window, grid.h, axis=1)[:, own]
        if not np.isfinite(M).all():
            t = float(times[start + np.flatnonzero(~np.isfinite(M).all(axis=(0, 2, 3, 4)))[0]])
            raise NumericError(f"Kraus speed sum_i ||K_i^dag O dK_i/dt|| is not finite at t={t!r}, step h = {grid.h!r}")
        speeds = np.stack([hs_norm(M).sum(axis=2), op_norm(M).sum(axis=2)], axis=-1)
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
