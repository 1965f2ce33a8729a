"""Dense complex linear algebra substrate: Schatten norms, matrix exponential,
expectation values, and density-state validation.

All functions are pure and operate on square ``complex128`` numpy arrays.
Intended scale is dimension <= a few hundred; everything is dense.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    M = as_matrix(M)
    return bool(np.abs(M - M.conj().T).max() <= tol)


def op_norm(M: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value."""
    M = as_matrix(M)
    require_finite(M)
    return float(np.linalg.svd(M, compute_uv=False)[0])


def hs_norm(M: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(tr(M^dag M)), i.e. the Frobenius norm."""
    M = as_matrix(M)
    require_finite(M)
    return float(np.linalg.norm(M))


def tr_norm(M: np.ndarray) -> float:
    """Trace norm: the sum of singular values."""
    M = as_matrix(M)
    require_finite(M)
    return float(np.linalg.svd(M, compute_uv=False).sum())


def taylor_degree(theta: float) -> int:
    """The least degree m whose Taylor remainder bound for e^X with
    ||X|| <= theta, theta^(m+1) / (m+1)! e^theta, is at most 2^-53."""
    m, remainder = 0, theta * np.exp(theta)
    while remainder > 2.0**-53:
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
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValidationError(f"matrix must be square, got shape {A.shape}")
    require_finite(A)
    norm = float(np.abs(A).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(norm):
        raise NumericError("matrix exponential overflowed")
    s, theta = 0, norm
    while theta > 0.5:
        s, theta = s + 1, theta / 2.0
    m = taylor_degree(theta)
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


@dataclass(frozen=True, eq=False)
class DensityState:
    """A validated density operator together with its cached purity tr(rho^2)."""

    matrix: np.ndarray
    purity: float

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
        """Density operator |psi><psi| of a ket, normalized first. Before its
        norm is taken the ket is scaled by the power of two at its largest
        |re| or |im|, which is exact, so the norm neither overflows nor
        underflows."""
        parts = np.ascontiguousarray(ket, dtype=complex).reshape(-1).view(float)
        top = np.abs(parts).max(initial=0.0)
        if not (np.isfinite(top) and top > 0.0):
            raise ValidationError("ket must be a nonzero finite vector")
        psi = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
        psi = psi / np.linalg.norm(psi)
        return cls(matrix=np.outer(psi, psi.conj()), purity=1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_pure(self, tol: float = 1e-7) -> bool:
        return self.purity >= 1.0 - tol


def expectation(O: np.ndarray, rho: DensityState, tol: float = DEFAULT_TOL) -> float:
    """<O> = Re tr(O rho) for a Hermitian observable."""
    O = as_matrix(O, "observable")
    require_finite(O, "observable")
    if not is_hermitian(O, tol):
        raise ValidationError("observable is not Hermitian within tolerance")
    if O.shape != rho.matrix.shape:
        raise ValidationError(f"dimension mismatch: {O.shape} vs {rho.matrix.shape}")
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
