"""Independent numerical oracles used to cross-check the library routes.

These deliberately avoid the code paths under test: singular values come
from a hand-rolled one-sided Jacobi iteration (not LAPACK's SVD), matrix
exponentials of Hermitian generators from an eigendecomposition and of any
matrix from scipy's Pade scaling and squaring (not the library's Taylor
route, which replaced it), traces from explicit double loops. Unitary
trajectories are checked against the dense per-sample route they replaced,
constant-rate Lindblad trajectories against the batched RK4 integration
that the exact propagator replaced, the streamed Lindblad kernel and its
reductions against the full-stack kernel (:func:`propagate_lindblad`) and
reductions (:func:`stack_expect`, :func:`stack_stddev`) that they replaced,
the exact route's BLAS step against the einsum step that it replaced
(:func:`einsum_exact_samples`),
the streamed Kraus kernel against the whole-grid one
(:func:`kraus_full_stack`) that it replaced and its batch-first chunks
against the per-family ones (:func:`kraus_chunks_per_family`), the unitary
trajectory's declared probe series and ends against the closed forms they
replaced (:func:`unitary_trace_with`, :func:`unitary_at`), and the fused
Lindblad generator and the Liouvillian built from it against the matrix
form and the Kronecker construction they replaced. The per-time
propagator, adjoint generator and Kraus derivative are the references for
the library's eigenbasis, Liouvillian and grid-batched routes, and the three-operand second moment for
the trajectories' spreads. The ``.sys`` literal reader that walks a literal
one character at a time and tries three complex regexes per entry
(:func:`_parse_vector`, :func:`_parse_matrix`, :func:`parse_complex`) is the
reference for ``sysdl``'s reader, which splits each literal once, and the
per-entry reprint (:func:`format_matrix_per_entry`) for its flattened one.
The Gram-matrix Lindblad speeds (:func:`gram_norms`) and a 60-digit 2x2
eigenvalue are the references for the Hermitian operator norms; the
per-time Kraus families (:class:`FunctionKraus`, :func:`dephasing_kraus_at`)
for the grid-vectorized ones. Trajectories keep no O(t) at interior times;
:func:`samples_from_probes` rebuilds it from the probe series of the
matrix units (:func:`matrix_units`) for comparison with these references.
The battery pair's own evaluator (:func:`battery_core`), which recomputed
dH and O H from HB + HC, is the reference for the registry entries that
read them from the evaluation context.
"""

from __future__ import annotations

import decimal
import math
import re
from importlib import resources

import numpy as np
import scipy.linalg

from oqsl.dynamics import (
    TimeGrid,
    Trajectory,
    _check_stable,
    _check_state,
    _check_trace,
    _checked_observable,
    _fused_form,
    _norms,
    _op_norms,
    _rates_at,
    _spans,
    _spread,
    _takes_exact_route,
    liouvillian,
    rate_at,
)
from oqsl.bounds import _mt_integral_core, _ratio, _report
from oqsl.linalg import (
    DEFAULT_TOL,
    DensityState,
    ValidationError,
    as_matrix,
    hs_norm,
    is_hermitian,
    mat_exp,
    op_norm,
    require_finite,
    tr_norm,
    variance,
)
from oqsl.sysdl import Diagnostic, ParseError, _fail


def jacobi_singular_values(M, tol: float = 1e-14, max_sweeps: int = 100) -> np.ndarray:
    """Singular values by one-sided Jacobi column orthogonalization."""
    A = np.array(M, dtype=complex)
    d = A.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                u, v = A[:, p], A[:, q]
                app = float(np.real(np.vdot(u, u)))
                aqq = float(np.real(np.vdot(v, v)))
                apq = complex(np.vdot(u, v))
                scale = np.sqrt(app * aqq)
                if scale == 0.0 or abs(apq) <= tol * scale:
                    continue
                rotated = True
                phase = apq / abs(apq)
                v_aligned = v * np.conj(phase)
                zeta = (aqq - app) / (2.0 * abs(apq))
                if zeta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                new_u = c * u - s * v_aligned
                new_v = s * u + c * v_aligned
                A[:, p] = new_u
                A[:, q] = new_v
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(A) ** 2, axis=0))
    return np.sort(sv)[::-1]


def scipy_expm(A) -> np.ndarray:
    """e^A of a square matrix or of every matrix in a stack, by scipy's Pade
    scaling and squaring: the route the library's Taylor series replaced."""
    return scipy.linalg.expm(np.asarray(A, dtype=complex))


def expm_hermitian_oracle(H, scale: complex) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    return (V * np.exp(scale * w)) @ V.conj().T


def naive_trace_product(A, B) -> complex:
    """tr(A B) by explicit double loop."""
    A = np.asarray(A)
    B = np.asarray(B)
    total = 0.0 + 0.0j
    d = A.shape[0]
    for a in range(d):
        for b in range(d):
            total += A[a, b] * B[b, a]
    return total


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (G + G.conj().T) / 2.0


def random_matrix(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_ket(rng, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(matrix=np.eye(dim, dtype=complex) / dim, purity=1.0 / dim)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ValidationError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def is_unitary(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    M = as_matrix(M)
    return bool(np.abs(M.conj().T @ M - np.eye(M.shape[0])).max() <= tol)


def is_positive_semidefinite(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    M = as_matrix(M)
    return is_hermitian(M, tol) and bool(np.linalg.eigvalsh(M).min() >= -tol)


def builtin_names() -> list[str]:
    """The names of the system files shipped in ``oqsl/systems``."""
    pkg = resources.files("oqsl") / "systems"
    return sorted(p.name[: -len(".sys")] for p in pkg.iterdir() if p.name.endswith(".sys"))


def builtin_text(name: str) -> str:
    path = resources.files("oqsl") / "systems" / f"{name}.sys"
    if not path.is_file():
        raise ValidationError(f"unknown built-in system {name!r}; available: {builtin_names()}")
    return path.read_text(encoding="utf-8")


def dense_unitary_route(O0, H, rho, times, hbar: float = 1.0):
    """The per-sample unitary route that the eigenbasis trajectory replaced.

    O(t) = V (phases * O~) V^dag is formed at every time, the commutator
    [H, O(t)] per sample, and its operator norm by a batched SVD. Returns
    (Os, expect, stddev, speed_hs, speed_op), Os the (n_times, d, d) stack.
    """
    O0, H, rho = (np.asarray(M, dtype=complex) for M in (O0, H, rho))
    w, V = np.linalg.eigh(H)
    Ot = V.conj().T @ O0 @ V
    gaps = (w[:, None] - w[None, :]) / hbar
    phases = np.exp(1j * np.asarray(times)[:, None, None] * gaps[None, :, :])
    Os = V @ (phases * Ot[None, :, :]) @ V.conj().T
    comms = H[None] @ Os - Os @ H[None]
    expect = np.einsum("tab,ba->t", Os, rho).real
    second = np.einsum("tab,tbc,ca->t", Os, Os, rho).real
    stddev = np.sqrt(np.clip(second - expect * expect, 0.0, None))
    speed_hs = np.sqrt(np.einsum("tab,tab->t", comms.conj(), comms).real) / hbar
    speed_op = np.linalg.svd(comms, compute_uv=False)[:, 0] / hbar
    return Os, expect, stddev, speed_hs, speed_op


def matrix_units(d: int) -> np.ndarray:
    """The d^2 matrix units E_ab (1 at row a, column b, else 0), stacked at
    index a d + b, shape (d^2, d, d)."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def samples_from_probes(traj) -> np.ndarray:
    """O(t) at every grid point of ``traj``, shape (steps + 1, d, d), rebuilt
    entry by entry from tr(O(t) E_ba) = O(t)_ab. A unitary trajectory traces
    any matrix; any other must have been evolved with ``matrix_units(d)``
    declared as its probes."""
    d = traj.dim
    units = matrix_units(d)
    out = np.empty((traj.grid.steps + 1, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            out[:, a, b] = traj.trace_with(units[b * d + a])
    return out


def dense_correlation(Os, A0, rho) -> np.ndarray:
    """C(t) = tr(A(t) A(0) rho) - tr(A(t) rho) tr(A(0) rho) from per-sample matrices."""
    first = np.einsum("tab,bc,ca->t", Os, A0, rho)
    return first - np.einsum("tab,ba->t", Os, rho) * np.trace(A0 @ rho)


def dense_commutator_expect(Os, B0, rho) -> np.ndarray:
    """tr([B(0), A(t)] rho) from per-sample matrices."""
    comms = B0[None] @ Os - Os @ B0[None]
    return np.einsum("tab,ba->t", comms, rho)


def rk4_lindblad_route(H, Ls, gammas, y0, times, hbar: float = 1.0, heisenberg: bool = True):
    """The batched RK4 integration of the master equation that the exact
    Lindblad propagator replaced, in matrix form.

    H is (B, d, d), Ls (B, J, d, d), gammas (B, J) constant rates and y0
    (B, d, d) observables (``heisenberg``) or states. Returns the samples at
    every time, shape (B, n_times, d, d).
    """
    H, Ls, y = (np.asarray(M, dtype=complex) for M in (H, Ls, y0))
    gammas = np.asarray(gammas, dtype=float)
    Lds = Ls.conj().swapaxes(-1, -2)
    LdLs = Lds @ Ls

    def rhs(r):
        if heisenberg:
            out = (1j / hbar) * (H @ r - r @ H)
        else:
            out = (-1j / hbar) * (H @ r - r @ H)
        for k in range(Ls.shape[1]):
            g = gammas[:, k, None, None]
            if heisenberg:
                jump = Lds[:, k] @ r @ Ls[:, k]
            else:
                jump = Ls[:, k] @ r @ Lds[:, k]
            out = out + g * (jump - 0.5 * (LdLs[:, k] @ r + r @ LdLs[:, k]))
        return out

    h = times[1] - times[0]
    out = [y]
    for _ in range(len(times) - 1):
        k1 = rhs(y)
        k2 = rhs(y + (0.5 * h) * k1)
        k3 = rhs(y + (0.5 * h) * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.stack(out, axis=1)


def lindblad_matrix_form(gens, y, t, heisenberg: bool = True) -> np.ndarray:
    """The Lindblad generator in matrix form, 2 + 4J matmuls per call: the
    route the fused generator replaced,

    c [H, y] + sum_k gamma_k(t) (left_k y right_k - (1/2){L_k^dag L_k, y}),

    with c = i/hbar, (left, right) = (L^dag, L) for observables
    (``heisenberg``) and c = -i/hbar, (left, right) = (L, L^dag) for states.
    y[b] (shape (B, d, d)) is acted on by gens[b], with every rate evaluated
    at t: one time, or one time per matrix.
    """
    y = np.asarray(y, dtype=complex)
    H = np.stack([gen.H for gen in gens])
    Ls = np.stack([np.array([L for L, _ in gen.jumps], dtype=complex).reshape(-1, gen.dim, gen.dim) for gen in gens])
    hbar = np.array([gen.hbar for gen in gens])[:, None, None]
    times = np.broadcast_to(np.asarray(t, dtype=float), (len(gens),))
    g = np.array([[float(rate_at(rate, tb)) for _, rate in gen.jumps] for gen, tb in zip(gens, times)])
    Lds = Ls.conj().swapaxes(-1, -2)
    LdLs = Lds @ Ls
    left, right = (Lds, Ls) if heisenberg else (Ls, Lds)
    out = (1j if heisenberg else -1j) / hbar * (H @ y - y @ H)
    for k in range(Ls.shape[1]):
        LdL = LdLs[:, k]
        jump = left[:, k] @ y @ right[:, k]
        out = out + g[:, k, None, None] * (jump - 0.5 * (LdL @ y + y @ LdL))
    return out


def kron_liouvillian(gen, heisenberg: bool) -> np.ndarray:
    """The d^2 x d^2 Liouvillian on row-major vec(X) for constant rates, from
    vec(A X B) = (A kron B^T) vec(X): the construction the library's
    matrix-unit route replaced."""
    H, I = gen.H, np.eye(gen.dim)
    out = (1j if heisenberg else -1j) / gen.hbar * (np.kron(H, I) - np.kron(I, H.T))
    for L, rate in gen.jumps:
        LdL = L.conj().T @ L
        anti = np.kron(LdL, I) + np.kron(I, LdL.T)
        jump = np.kron(L.conj().T, L.T) if heisenberg else np.kron(L, L.conj())
        out = out + float(rate_at(rate, 0.0)) * (jump - 0.5 * anti)
    return out


def three_operand_stddev(Os, rho) -> np.ndarray:
    """dO(t) with the second moment tr(O(t) O(t) rho) as one three-operand
    contraction, the form the library's batched matmul replaced."""
    Os, rho = np.asarray(Os), np.asarray(rho)
    mean = np.einsum("tab,ba->t", Os, rho).real
    second = np.einsum("tab,tbc,ca->t", Os, Os, rho).real
    return np.sqrt(np.clip(second - mean * mean, 0.0, None))


def unitary_propagator(H, t: float, hbar: float = 1.0) -> np.ndarray:
    """U(t) = exp(-i H t / hbar) for a Hermitian Hamiltonian, by Pade scaling
    and squaring (:func:`scipy_expm`)."""
    H = as_matrix(H, "hamiltonian")
    require_finite(H, "hamiltonian")
    if not is_hermitian(H):
        raise ValidationError("hamiltonian is not Hermitian within tolerance")
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    return scipy_expm(-1j * float(t) / hbar * H)


def lindblad_adjoint(gen, O, t: float = 0.0) -> np.ndarray:
    """The adjoint generator on one observable, term by term:

    (i/hbar)[H, O] + sum_k gamma_k(t) (L_k^dag O L_k - (1/2){L_k^dag L_k, O}).
    """
    O = np.asarray(O, dtype=complex)
    out = (1j / gen.hbar) * (gen.H @ O - O @ gen.H)
    for L, rate in gen.jumps:
        Ld = L.conj().T
        out = out + float(rate_at(rate, t)) * (Ld @ O @ L - 0.5 * (Ld @ L @ O + O @ Ld @ L))
    return out


class FunctionKraus:
    """Kraus family given by a callable t -> sequence of (d, d) matrices,
    called once per time: the per-time reference for the library's
    grid-vectorized families."""

    def __init__(self, fn, dim: int, n_ops: int):
        self.fn = fn
        self.dim = int(dim)
        self.n_ops = int(n_ops)

    def _at(self, t: float) -> np.ndarray:
        K = np.asarray(self.fn(t), dtype=complex)
        if K.shape != (self.n_ops, self.dim, self.dim):
            raise ValidationError(f"Kraus callable returned shape {K.shape}")
        return K

    def operators(self, times) -> np.ndarray:
        """The operators at each of the given times, shape times.shape + (n_ops, d, d)."""
        t = np.asarray(times, dtype=float)
        K = np.array([self._at(s) for s in t.ravel().tolist()], dtype=complex)
        return K.reshape(t.shape + (self.n_ops, self.dim, self.dim))


def dephasing_kraus_at(gamma: float, t: float) -> np.ndarray:
    """DephasingKraus's (K0, K1) at one time, from math.exp and math.sqrt:
    the per-time route that the grid-vectorized family replaced."""
    e = math.exp(-gamma * t)
    a, b = math.sqrt((1.0 + e) / 2.0), math.sqrt((1.0 - e) / 2.0)
    return np.array([a, 0.0, 0.0, a, b, 0.0, 0.0, -b], dtype=complex).reshape(2, 2, 2)


def largest_abs_eigenvalue_2x2(X) -> float:
    """The largest |eigenvalue| of a Hermitian 2x2 matrix, read through its
    lower triangle, in 60-digit decimal arithmetic, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, c = decimal.Decimal(X[0, 0].real), decimal.Decimal(X[1, 1].real)
        re, im = decimal.Decimal(X[1, 0].real), decimal.Decimal(X[1, 0].imag)
        return float(abs((a + c) / 2) + (((a - c) / 2) ** 2 + re * re + im * im).sqrt())


def gram_norms(X: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt and operator norms of each matrix in X, shape
    (..., 2), the operator norm as the square root of the largest
    ``eigvalsh`` eigenvalue of X^dag X: the form the library's Lindblad
    speeds took, once per trial, before they read L^dag[O] as Hermitian."""
    hs = np.sqrt(np.einsum("...ab,...ab->...", X.conj(), X).real)
    gram = X.conj().swapaxes(-1, -2) @ X
    return np.stack([hs, np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None))], axis=-1)


def kraus_derivative(family, i: int, t: float, h: float, t_min: float = 0.0, t_max: float = np.inf) -> np.ndarray:
    """Finite-difference dK_i/dt: central in the interior, one-sided at the
    domain endpoints. The choice allows a few ulps of slack at both ends, so
    a grid time whose t + h rounds just past t_max keeps the central
    difference."""
    if h <= 0:
        raise ValidationError("finite-difference step h must be positive")
    slack = 4 * np.spacing(abs(t) + h)
    if t - h >= t_min - slack and t + h <= t_max + slack:
        return (family.operators(t + h)[i] - family.operators(t - h)[i]) / (2.0 * h)
    if t - h < t_min - slack:
        return (family.operators(t + h)[i] - family.operators(t)[i]) / h
    return (family.operators(t)[i] - family.operators(t - h)[i]) / h


# ---------------------------------------------------------------------------
# the full-stack Lindblad kernel that the streamed one replaced


def propagate_lindblad(gens, y0: np.ndarray, grid: TimeGrid, heisenberg: bool):
    """The batch-first Lindblad kernel: evolves y0[b] (shape (B, d, d)) under
    gens[b], observables when ``heisenberg`` else states. The generators
    share one dimension and one number of jumps. Returns the samples at every
    grid time, shape (B, steps + 1, d, d), and for observables the
    Hilbert-Schmidt and operator norms of L^dag[O(t)] there, shape
    (B, steps + 1, 2) (for states, None).

    When every rate is constant and d <= EXACT_MAX_DIM, each step is one
    batched mat-vec with the exact propagator exp(h L), computed once per
    generator, and the speeds apply L to the samples. Otherwise the master
    equation is integrated by fixed-step RK4 on the fused generator, whose
    first stage gives the speeds. Both routes reject a blow-up, and a
    state's trace is checked at every sample.
    """
    times = grid.times()
    for gen in gens:
        bad = np.flatnonzero((_rates_at(gen, times) < 0).any(axis=0))
        if bad.size:
            raise ValidationError(f"jump operator {bad[0]} has negative rate on the grid")
    y0 = np.asarray(y0, dtype=complex)
    B, d = y0.shape[:2]
    speeds = np.empty((B, times.size, 2)) if heisenberg else None
    if all(_takes_exact_route(gen) for gen in gens):
        Lv = np.stack([liouvillian(gen, heisenberg) for gen in gens])
        P = mat_exp(grid.h * Lv)
        out = np.empty((B, times.size, d * d), dtype=complex)
        y = out[:, 0] = y0.reshape(B, d * d)
        for i in range(1, times.size):
            y = out[:, i] = (P @ y[..., None])[..., 0]  # the kernel's product
            _check_stable(y)
        out = out.reshape(B, times.size, d, d)
        if heisenberg:
            for b in range(B):
                speeds[b] = _norms((out[b].reshape(-1, d * d) @ Lv[b].T).reshape(-1, d, d))
    else:
        out = _rk4(_fused_form(gens, heisenberg), y0, times, speeds)
    if not heisenberg:
        _check_trace(out)
    return out, speeds


def einsum_exact_samples(gens, y0: np.ndarray, grid: TimeGrid, heisenberg: bool) -> np.ndarray:
    """The exact Lindblad route's samples at every grid time, shape
    (B, steps + 1, d, d), stepped by the einsum mat-vec that the kernel's
    BLAS product replaced."""
    y0 = np.asarray(y0, dtype=complex)
    B, d = y0.shape[:2]
    P = mat_exp(grid.h * np.stack([liouvillian(gen, heisenberg) for gen in gens]))
    out = np.empty((B, grid.steps + 1, d * d), dtype=complex)
    y = out[:, 0] = y0.reshape(B, d * d)
    for i in range(1, grid.steps + 1):
        y = out[:, i] = np.einsum("bij,bj->bi", P, y)
    return out.reshape(B, grid.steps + 1, d, d)


def _rk4(f, y0: np.ndarray, times: np.ndarray, speeds: np.ndarray | None) -> np.ndarray:
    """Classical fixed-step RK4 of dy/dt = f(t, y) on a batch y0 of shape
    (B, d, d); returns the samples at every grid time, shape (B, n_times, d, d).
    The first stage is f at the sample, so ``speeds`` (shape (B, n_times, 2)),
    when given, takes the norms of f at every sample from it."""
    n = times.size - 1
    h = times[1] - times[0]
    out = np.empty((y0.shape[0], n + 1) + y0.shape[1:], dtype=complex)
    out[:, 0] = y0
    y = y0
    for i in range(n):
        t = times[i]
        k1 = f(t, y)
        if speeds is not None:
            speeds[:, i] = _norms(k1)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_stable(y)
        out[:, i + 1] = y
    if speeds is not None:
        speeds[:, n] = _norms(f(times[n], y))
    return out


def stack_expect(Os: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<O(t)> from a (n_times, d, d) stack in one contraction: the full-stack
    reduction that the streamed reducer replaced."""
    return np.einsum("tab,ba->t", Os, rho).real


def stack_stddev(Os: np.ndarray, rho: np.ndarray, tol: float) -> np.ndarray:
    """dO(t) from a (n_times, d, d) stack in one contraction: the full-stack
    reduction that the streamed reducer replaced."""
    mean, second = stack_expect(Os, rho), np.einsum("tab,tba->t", Os, Os @ rho).real
    return _spread(second - mean * mean, tol)


# ---------------------------------------------------------------------------
# the whole-grid Kraus kernel that the streamed one replaced


def kraus_full_stack(O0, family, rho, grid: TimeGrid, tol: float = DEFAULT_TOL) -> Trajectory:
    """O(t) = sum_i K_i^dag(t) O(0) K_i(t) with the family called once, on
    the whole grid, the (steps + 1, n_ops, d, d) stacks of K, K^dag O and
    O(t) built and then reduced; dK/dt is ``np.gradient`` along the grid,
    central inside and one-sided at its two ends."""
    O0 = _checked_observable(O0, family.dim, tol)
    _check_state(rho, family.dim)
    times = grid.times()
    K = family.operators(times)
    defect = np.abs(np.einsum("tiab,tiac->tbc", K.conj(), K) - np.eye(family.dim)).max(axis=(1, 2))
    bad = np.flatnonzero(defect > max(tol, 1e-8))
    if bad.size:
        j = bad[0]
        raise ValidationError(f"Kraus completeness violated at t={times[j]!r} (defect {defect[j]:.3e})")
    KdO = K.conj().swapaxes(-1, -2) @ O0
    Os = (KdO @ K).sum(axis=1)
    M = KdO @ np.gradient(K, grid.h, axis=0)
    speed_hs = np.linalg.norm(M, axis=(-2, -1)).sum(axis=1)
    speed_op = _op_norms(M).sum(axis=1)
    return Trajectory(
        kind="kraus",
        grid=grid,
        expect=stack_expect(Os, rho.matrix),
        stddev=stack_stddev(Os, rho.matrix, tol),
        gen_speed_hs=speed_hs,
        gen_speed_op=speed_op,
        ends=(Os[0].copy(), Os[-1].copy()),
    )


def kraus_chunks_per_family(family, O0: np.ndarray, grid: TimeGrid, tol: float = DEFAULT_TOL):
    """The Kraus kernel for one family, chunked by :func:`_spans` on its
    operators alone: yields (start, O(t), speeds) with a batch of one, the
    speeds being the summed norms of K_i^dag(t) O0 dK_i/dt, after checking
    sum_i K_i^dag K_i = 1 within max(tol, 1e-8). The per-family kernel that
    the batch-first one replaced; with one more sample on each side of the
    chunk, ``np.gradient`` gives the central difference along the grid."""
    times = grid.times()
    for start, end in _spans(times.size, 16 * family.n_ops * family.dim**2):
        lo = max(start - 1, 0)
        window = family.operators(times[lo : end + 1])
        own = slice(start - lo, end - lo)
        K = window[own]
        defect = np.abs(np.einsum("tiab,tiac->tbc", K.conj(), K) - np.eye(family.dim)).max(axis=(1, 2))
        bad = np.flatnonzero(defect > max(tol, 1e-8))
        if bad.size:
            j = bad[0]
            raise ValidationError(f"Kraus completeness violated at t={times[start + j]!r} (defect {defect[j]:.3e})")
        KdO = K.conj().swapaxes(-1, -2) @ O0
        M = KdO @ np.gradient(window, grid.h, axis=0)[own]
        speeds = np.stack([np.linalg.norm(M, axis=(-2, -1)).sum(axis=1), _op_norms(M).sum(axis=1)], axis=-1)
        yield start, (KdO @ K).sum(axis=1)[None], speeds[None]


# ---------------------------------------------------------------------------
# the character-walking literal reader that sysdl's single-split reader replaced

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SIGNED = rf"[+-]?{_UNSIGNED}"
_RE_REAL = re.compile(rf"^({_SIGNED})$")
_RE_FULL = re.compile(rf"^({_SIGNED})([+-](?:{_UNSIGNED})?)i$")
_RE_IMAG = re.compile(rf"^([+-]?(?:{_UNSIGNED})?)i$")


def parse_complex(literal: str) -> complex:
    """Parse ``a``, ``a+bi``, ``a-bi``, ``bi``, ``-bi`` (decimal a, b) to a complex."""
    s = literal.strip()
    m = _RE_REAL.match(s)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_FULL.match(s)
    if m:
        re_part = float(m.group(1))
        imag = m.group(2)
        im_part = float(imag) if imag not in ("+", "-") else float(imag + "1")
        return complex(re_part, im_part)
    m = _RE_IMAG.match(s)
    if m:
        imag = m.group(1)
        im_part = float(imag) if imag not in ("", "+", "-") else float((imag or "+") + "1")
        return complex(0.0, im_part)
    raise ParseError([Diagnostic(1, 1, f"malformed complex literal {literal.strip()!r}")])


def _split_top_level(body: str, base_col: int, line: int) -> list[tuple[str, int]]:
    """Split a bracket body on top-level commas, keeping column offsets."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                _fail(line, base_col + i, "unbalanced ']' in literal")
        elif ch == "," and depth == 0:
            parts.append((body[start:i], base_col + start))
            start = i + 1
    if depth != 0:
        _fail(line, base_col, "unbalanced '[' in literal")
    parts.append((body[start:], base_col + start))
    return parts


def _parse_bracketed(text: str, line: int, col: int) -> tuple[str, int]:
    s = text.strip()
    offset = col + (len(text) - len(text.lstrip()))
    if not (s.startswith("[") and s.endswith("]")):
        _fail(line, offset, "expected a bracketed literal")
    return s[1:-1], offset + 1


def _parse_vector(text: str, line: int, col: int) -> np.ndarray:
    body, base = _parse_bracketed(text, line, col)
    entries = []
    for part, pcol in _split_top_level(body, base, line):
        if not part.strip():
            _fail(line, pcol, "empty entry in vector literal")
        try:
            entries.append(parse_complex(part))
        except ParseError as exc:
            _fail(line, pcol, exc.diagnostics[0].message)
    return np.array(entries, dtype=complex)


def _parse_matrix(text: str, line: int, col: int) -> np.ndarray:
    body, base = _parse_bracketed(text, line, col)
    rows = []
    width = None
    for part, pcol in _split_top_level(body, base, line):
        stripped = part.strip()
        if not stripped:
            _fail(line, pcol, "empty row in matrix literal")
        row = _parse_vector(part, line, pcol)
        if width is None:
            width = row.size
        elif row.size != width:
            _fail(line, pcol, f"matrix row has {row.size} entries, expected {width}")
        rows.append(row)
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _fail(line, base, f"matrix literal is {M.shape[0]}x{width}, expected square")
    return M


def format_matrix_per_entry(M) -> str:
    """The matrix literal of M with one ``format_complex`` call per entry, two
    ``repr`` calls each: the reprint that ``sysdl._format_matrix`` replaced."""

    def entry(z: complex) -> str:
        im = repr(float(z.imag))
        return f"{float(z.real)!r}{'' if im.startswith('-') else '+'}{im}i"

    rows = ", ".join("[" + ", ".join(entry(z) for z in row) + "]" for row in M)
    return f"[{rows}]"


# ---------------------------------------------------------------------------
# the unitary closed forms that the declared probes and ends replaced


def unitary_trace_with(traj, M) -> np.ndarray:
    """tr(O(t) M) at every grid point of a unitary trajectory, for any M,
    from its eigen data and phases built for this one call: the closed form
    that series of probes declared before the evolution replaced."""
    V = traj.vectors
    E = np.exp(1j * np.outer(traj.grid.times(), traj.freqs))
    return np.einsum("ta,ta->t", E @ (traj.O_eig * (V.conj().T @ M @ V).T), E.conj())


def unitary_at(traj, k: int) -> np.ndarray:
    """O(t_k) of a unitary trajectory at any grid index k, from its eigen
    data: the closed form that the kept ends (O(0), O(T)) replaced."""
    E = np.exp(1j * np.outer(np.atleast_1d(traj.grid.times()[k]), traj.freqs))
    Ot = E[:, :, None] * traj.O_eig[None] * E.conj()[:, None, :]
    return (traj.vectors @ Ot @ traj.vectors.conj().T)[0]


# ---------------------------------------------------------------------------
# the battery pair's own evaluator, which the registry entries replaced


def battery_core(traj, HB, HC, rho, hbar, tol):
    """CT1 and CT2 on ``traj``, the unitary trajectory of HB under HB + HC."""
    HT = HB + HC
    T = traj.grid.duration

    delta_HT = float(np.sqrt(variance(HT, rho, tol)))
    if delta_HT <= tol:
        # rho is an eigenstate of the drive: nothing evolves.
        ct1 = _report(
            "BATTERY_CT1",
            T,
            0.0,
            (traj.expect, delta_HT, hbar),
            {"delta_H_total": delta_HT, "integral": 0.0, "stationary": 1},
        )
    else:
        ct1 = _mt_integral_core("BATTERY_CT1", traj, delta_HT, hbar)

    if not rho.is_pure():
        raise ValidationError("BATTERY_CT2 requires a pure initial state")
    prod = HB @ HT
    norms = {"op": op_norm(prod), "hs": hs_norm(prod), "tr": tr_norm(prod)}
    num = abs(float(traj.expect[-1] - traj.expect[0]))
    tqsl2 = hbar / 2.0 * _ratio("BATTERY_CT2", num, min(norms.values()), "min norm of HB(0)(HB+HC)")
    details2 = {
        "expect0": float(traj.expect[0]),
        "expectT": float(traj.expect[-1]),
        **{f"hbht_{k}": v for k, v in norms.items()},
    }
    ct2 = _report("BATTERY_CT2", T, tqsl2, (HB, HC, rho.matrix, T, hbar), details2)
    return ct1, ct2
