"""Dense complex linear algebra substrate: the operator and Hilbert-Schmidt
norms, matrix exponential, expectation values, and density-state validation.

All functions are pure and operate on square ``complex128`` numpy arrays.
Intended scale is dimension <= a few hundred; everything is dense.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

DEFAULT_TOL = 1e-9

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": sigma_x,
    "Y": sigma_y,
    "Z": sigma_z,
}


class ValidationError(ValueError):
    """An input violates a structural precondition (shape, Hermiticity, ...)."""


class NumericError(ArithmeticError):
    """A computation left the trustworthy numeric regime."""


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix or raise ValidationError."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {A.shape}")
    return A


def require_finite(M: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} has non-finite entries")


def require_squarable(M: np.ndarray, name: str = "matrix") -> None:
    """Reject a d x d matrix with an entry above sqrt(float max) / d. Below
    it ||M||_op <= ||M||_HS <= sqrt(float max), so no entry of M @ M or
    M^dag M, and no <M>^2 or <M^2>, overflows; at sqrt(float max / d) the
    square of <M> still can."""
    limit = math.sqrt(np.finfo(float).max) / M.shape[-1]
    top = float(np.abs(M).max(initial=0.0))
    if top > limit:
        raise ValidationError(f"{name} has an entry of magnitude {top:.6g} above sqrt(float max) / d = {limit:.6g}")


def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    M = as_matrix(M)
    return bool(np.abs(M - M.conj().T).max() <= tol)


def checked_hermitian(M, name: str, tol: float, dim: int | None = None) -> np.ndarray:
    """M as a finite square complex matrix whose square cannot overflow,
    Hermitian within ``tol`` and, when ``dim`` is given, of shape (dim, dim);
    else a ValidationError that names it ``name``."""
    M = as_matrix(M, name)
    require_finite(M, name)
    require_squarable(M, name)
    if not is_hermitian(M, tol):
        raise ValidationError(f"{name} is not Hermitian within tolerance")
    if dim is not None and M.shape != (dim, dim):
        raise ValidationError(f"dimension mismatch: {M.shape} vs {(dim, dim)}")
    return M


def hermitian_op_norm(X: np.ndarray) -> np.ndarray:
    """The operator norm of each Hermitian matrix in X, shape (...): its
    largest |eigenvalue|, from the lower triangle as ``eigvalsh`` reads it.
    For d = 2 that is |m| + hypot((a - c) / 2, |b|) with m = (a + c) / 2,
    for the diagonal a, c and the lower corner b, with no LAPACK call."""
    if X.shape[-1] == 2:
        a, c = X[..., 0, 0].real, X[..., 1, 1].real
        return np.abs((a + c) / 2) + np.hypot((a - c) / 2, np.abs(X[..., 1, 0]))
    w = np.linalg.eigvalsh(X)
    return np.maximum(-w[..., 0], w[..., -1])


def _square_stack(X) -> np.ndarray:
    """X as a complex square matrix or stack (..., n, n), else a ValidationError."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValidationError(f"matrix must be square, got shape {X.shape}")
    return X


def _scaled(X: np.ndarray, axes=(-2, -1), message: str = "matrix has non-finite entries"):
    """(Y, k): X times 2^-k over ``axes``, k the exponent of its largest |re|
    or |im| there, so that Y's largest is in [1/2, 1): exact, and no square
    of Y overflows. A non-finite entry is a ValidationError with ``message``."""
    parts = np.ascontiguousarray(X, dtype=complex).view(float)
    top = np.abs(parts).max(axis=axes, initial=0.0)
    if not np.isfinite(top).all():
        raise ValidationError(message)
    k = np.frexp(top)[1]
    return np.ldexp(parts, -np.expand_dims(k, axes)).view(complex), k


def op_norm(X) -> np.ndarray:
    """The operator (spectral) norm of a square matrix, or of each matrix in
    a stack (..., n, n), shape (...): the square root of the largest eigenvalue
    of Y^dag Y, for Y = :func:`_scaled` X, which neither overflows nor underflows."""
    Y, k = _scaled(_square_stack(X))
    return np.ldexp(np.sqrt(hermitian_op_norm(Y.conj().swapaxes(-1, -2) @ Y)), k)


def hs_norm(X) -> np.ndarray:
    """The Hilbert-Schmidt norm sqrt(tr(X^dag X)) of a square matrix, or of
    each matrix in a stack (..., n, n), shape (...): unscaled where the sum of
    squares is in [2^-900, float max], else from :func:`_scaled` matrices, so
    no square overflows or loses digits (Blue, ACM TOMS 4, 1978)."""
    X = _square_stack(X)
    squares = np.einsum("...ab,...ab->...", X.conj(), X).real
    bad = ~((squares >= 2.0**-900) & (squares <= np.finfo(float).max))
    norms = np.sqrt(squares, out=np.empty(np.shape(squares)))  # an array also for one matrix
    if bad.any():
        Y, k = _scaled(X[bad])
        with np.errstate(over="ignore"):  # a norm above float max is inf
            norms[bad] = np.ldexp(np.sqrt(np.einsum("...ab,...ab->...", Y.conj(), Y).real), k)
    return norms


def taylor_degree(theta: float, target: float = 2.0**-53) -> int:
    """The least degree m whose Taylor remainder bound for e^X with
    ||X|| <= theta, theta^(m+1) / (m+1)! e^theta, is at most ``target``."""
    m, remainder = 0, theta * np.exp(theta)
    while remainder > target:
        m += 1
        remainder *= theta / (m + 1)
    return m


def mat_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A of a square matrix, or of every matrix in a
    stack of shape (..., n, n), by scaling and squaring a truncated Taylor
    series.

    s is the least integer with theta = ||A||_1 / 2^s <= 1/2, where ||A||_1
    is the largest 1-norm over the stack, and m = taylor_degree(theta). The
    degree-m series of A / 2^s is summed by Horner's rule and squared s times.
    """
    A = _square_stack(A)
    require_finite(A)
    norm = float(np.abs(A).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(norm):
        raise NumericError("matrix exponential overflowed")
    s, theta = 0, norm
    while theta > 0.5:
        s, theta = s + 1, theta / 2.0
    m = taylor_degree(theta)
    if s > 1023:  # 2.0**s overflows
        raise NumericError(f"matrix exponential out of range: the 1-norm {norm:.6g} of its argument is above 2^1022")
    X = A / 2.0**s
    eye = np.eye(A.shape[-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        E = eye + X / max(m, 1)  # the innermost Horner factor, of degree at least 1
        for k in range(m - 1, 0, -1):
            E = X @ E
            E /= k
            E += eye
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise NumericError("matrix exponential overflowed")
    return E


class DensityState:
    """A validated density operator together with its cached purity tr(rho^2)."""

    def __init__(self, matrix: np.ndarray, purity: float):
        self.matrix, self.purity = matrix, purity

    @classmethod
    def from_matrix(
        cls,
        rho,
        tol: float = DEFAULT_TOL,
        on_indefinite: str = "raise",
    ) -> "DensityState":
        """Validate Hermiticity, unit trace and positivity, then wrap.

        ``on_indefinite='warn'`` downgrades a positivity failure to a warning,
        which integrators use for states that drift slightly indefinite.
        """
        return cls.from_stack(as_matrix(rho, "state")[None], tol, on_indefinite)[0]

    @classmethod
    def from_stack(
        cls,
        stack,
        tol: float = DEFAULT_TOL,
        on_indefinite: str = "raise",
    ) -> "list[DensityState]":
        """Validate a stack of states, shape (n, d, d), at once and wrap each.

        The checks are those of :meth:`from_matrix`, made with one eigvalsh
        call over the stack; a positivity failure reports the worst sample.
        """
        stack = np.asarray(stack, dtype=complex)
        require_finite(stack, "state")
        if np.abs(stack - stack.conj().swapaxes(-1, -2)).max() > tol:
            raise ValidationError("state is not Hermitian within tolerance")
        tr = np.einsum("taa->t", stack).real
        k = int(np.abs(tr - 1.0).argmax())
        if abs(tr[k] - 1.0) > tol:
            raise ValidationError(f"state trace {float(tr[k])!r} differs from 1 beyond tolerance")
        w = np.linalg.eigvalsh(stack)
        wmin = w.min(axis=1)
        k = int(wmin.argmin())
        if wmin[k] < -tol:
            where = f" at sample {k}" if len(stack) > 1 else ""
            if on_indefinite == "warn":
                warnings.warn(
                    f"state{where} has negative eigenvalue {wmin[k]:.3e} beyond tolerance",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                raise ValidationError(f"state{where} not positive semidefinite (min eig {wmin[k]:.3e})")
        # tr(rho^2) as the sum of the squared eigenvalues
        purity = (w * w).sum(axis=1)
        return [cls(matrix=rho, purity=float(p)) for rho, p in zip(stack, purity)]

    @classmethod
    def pure(cls, ket) -> "DensityState":
        """Density operator |psi><psi| of a ket, normalized first, after
        :func:`_scaled`, so its norm neither overflows nor underflows."""
        psi = _scaled(np.reshape(ket, -1), -1, "ket must be a nonzero finite vector")[0]
        if not psi.any():
            raise ValidationError("ket must be a nonzero finite vector")
        psi = psi / np.linalg.norm(psi)
        return cls(matrix=np.outer(psi, psi.conj()), purity=1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_pure(self) -> bool:
        return self.purity >= 1.0 - 1e-7


def expectation(O: np.ndarray, rho: DensityState, tol: float = DEFAULT_TOL) -> float:
    """<O> = Re tr(O rho) for a Hermitian observable."""
    O = checked_hermitian(O, "observable", tol, rho.dim)
    val = complex(np.trace(O @ rho.matrix))
    if abs(val.imag) > max(tol, tol * abs(val.real)):
        raise NumericError(f"expectation has imaginary part {val.imag:.3e} beyond tolerance")
    return float(val.real)


def variance(O: np.ndarray, rho: DensityState, tol: float = DEFAULT_TOL) -> float:
    """<O^2> - <O>^2, clamping rounding negatives in [-tol, 0] to zero."""
    O = as_matrix(O, "observable")
    mean = expectation(O, rho, tol)
    second = float(np.trace(O @ O @ rho.matrix).real)
    var = second - mean * mean
    if var < -tol:
        raise NumericError(f"variance {var:.3e} below -tolerance; inputs are inconsistent")
    return max(var, 0.0)
