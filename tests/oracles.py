"""Independent numerical oracles used to cross-check the library routes.

These deliberately avoid the code paths under test: singular values come
from a hand-rolled one-sided Jacobi iteration (not LAPACK's SVD), matrix
exponentials of Hermitian generators from an eigendecomposition (not the
Pade scaling-and-squaring route), traces from explicit double loops. Unitary
trajectories are checked against the dense per-sample route they replaced.
"""

from __future__ import annotations

import numpy as np


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


def dense_unitary_route(O0, H, rho, times, hbar: float = 1.0):
    """The per-sample unitary route that the eigenbasis trajectory replaced.

    O(t) = V (phases * O~) V^dag is formed at every time, the commutator
    [H, O(t)] per sample, and its operator norm by a batched SVD. Returns
    (O_samples, expect, stddev, speed_hs, speed_op).
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


def dense_correlation(Os, A0, rho) -> np.ndarray:
    """C(t) = tr(A(t) A(0) rho) - tr(A(t) rho) tr(A(0) rho) from per-sample matrices."""
    first = np.einsum("tab,bc,ca->t", Os, A0, rho)
    return first - np.einsum("tab,ba->t", Os, rho) * np.trace(A0 @ rho)


def dense_commutator_expect(Os, B0, rho) -> np.ndarray:
    """tr([B(0), A(t)] rho) from per-sample matrices."""
    comms = B0[None] @ Os - Os @ B0[None]
    return np.einsum("tab,ba->t", comms, rho)
