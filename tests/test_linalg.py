import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsl import audit
from oqsl import linalg as la
from oqsl.dynamics import LindbladGenerator, liouvillian
from oqsl.linalg import (
    DensityState,
    NumericError,
    ValidationError,
    expectation,
    hermitian_op_norm,
    hs_norm,
    is_hermitian,
    mat_exp,
    op_norm,
    sigma_x,
    sigma_y,
    sigma_z,
    variance,
)
from oqsl.sysdl import parse_system

import oracles
from oracles import builtin_text, commutator, identity, is_positive_semidefinite, is_unitary

PLUS = DensityState.pure([1.0, 1.0])


# ---------------------------------------------------------------------------
# norms


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_op_norm_identity(d):
    assert op_norm(identity(d)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_unitary_product():
    assert op_norm(sigma_x @ sigma_z) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_matches_jacobi_oracle(rng):
    for _ in range(10):
        M = oracles.random_matrix(rng, 4)
        assert op_norm(M) == pytest.approx(oracles.jacobi_singular_values(M)[0], abs=1e-10)


def test_op_norm_rejects_non_finite():
    M = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
    for bad in (M, np.stack([np.eye(2), M.conj()])):
        with pytest.raises(ValidationError):
            op_norm(bad)
    with pytest.raises(ValidationError):
        hs_norm(M)


def test_hs_norm_examples():
    assert hs_norm(identity(2)) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert hs_norm(sigma_x @ sigma_z) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert hs_norm(np.zeros((3, 3))) == 0.0


def _norm_cases(rng, n):
    """(name, matrix, Hermitian) of each shape the operator norms must cover,
    n x n and of order one."""
    G = oracles.random_matrix(rng, n)
    H = oracles.random_hermitian(rng, n)
    u, v = oracles.random_ket(rng, n), oracles.random_ket(rng, n)
    return [
        ("hermitian", H, True),
        ("anti-hermitian", 1j * H, False),
        ("non-normal", np.triu(G), False),
        ("general", G, False),
        ("rank-one", np.outer(u, v.conj()), False),
        ("hermitian rank-one", np.outer(u, u.conj()), True),
        ("zero", np.zeros((n, n), dtype=complex), True),
    ]


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_norm_routines_match_the_jacobi_oracle_at_every_scale(rng, n, scale):
    # n = 2 takes the closed form; at 1e-160 the unscaled Gram matrix
    # underflows, at 1e160 it overflows. The reference is the oracle on the
    # matrix of order one, times the scale: rounding the scaled entries moves
    # the norm by at most sqrt(n) ulp
    for name, M, hermitian in _norm_cases(rng, n):
        ref = scale * oracles.jacobi_singular_values(M)[0]
        routines = (op_norm, hermitian_op_norm) if hermitian else (op_norm,)
        for norm in routines:
            got = norm(scale * M)
            assert got.shape == () and abs(got - ref) <= 1e-14 * ref, (name, norm.__name__)


def test_op_norms_of_a_stack_are_per_matrix(rng):
    # a (2, 3, n, n) stack whose matrices span 320 decades: each is scaled on its own
    scales = np.array([[1e-160, 1.0, 1e160], [3.0, 0.0, 1e-100]])
    for n in (2, 5):
        R = np.array([[oracles.random_matrix(rng, n) for _ in row] for row in scales])
        Rh = (R + R.conj().swapaxes(-1, -2)) / 2
        for norm, base in ((op_norm, R), (op_norm, Rh), (hermitian_op_norm, Rh)):
            got = norm(scales[..., None, None] * base)
            assert got.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                ref = scales[idx] * oracles.jacobi_singular_values(base[idx])[0]
                assert abs(got[idx] - ref) <= 1e-14 * ref, (n, norm.__name__, idx)


def _hs_oracle(M) -> float:
    """sqrt(sum sigma^2) from the Jacobi singular values of M."""
    return float(np.sqrt((oracles.jacobi_singular_values(M) ** 2).sum()))


# 1e300 squares to inf, 1e-160 and 1e-300 to below 2^-1022 or to 0
HS_SCALES = [1.0, 2.0**400, 2.0**-400, 1e-160, 1e-300, 1e300]


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("scale", HS_SCALES, ids=["1", "2^400", "2^-400", "1e-160", "1e-300", "1e300"])
def test_hs_norm_matches_the_jacobi_oracle_at_every_scale(rng, n, scale):
    # the reference is the oracle on the matrix of order one, times the scale
    for name, M, _ in _norm_cases(rng, n):
        ref = scale * _hs_oracle(M)
        got = hs_norm(scale * M)
        assert got.shape == () and abs(got - ref) <= 1e-14 * ref, name


def test_hs_norms_of_a_stack_are_per_matrix(rng):
    # a (2, 3, n, n) stack whose matrices span 600 decades, each scaled on its own
    scales = np.array([[1e-300, 1.0, 1e300], [2.0**400, 0.0, 1e-160]])
    for n in (2, 5):
        cases = [M for _, M, _ in _norm_cases(rng, n)]
        base = np.array([[cases[(3 * i + j) % len(cases)] for j in range(3)] for i in range(2)])
        got = hs_norm(scales[..., None, None] * base)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            ref = scales[idx] * _hs_oracle(base[idx])
            assert abs(got[idx] - ref) <= 1e-14 * ref, (n, idx)


def test_hs_norm_of_subnormal_entries(rng):
    # integer multiples of 2^-1074 are exact: their squares underflow to 0
    for n in (2, 3, 4):
        M = rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))
        ref = np.ldexp(_hs_oracle(M), -1074)
        got = hs_norm(np.ldexp(M.real, -1074) + 1j * np.ldexp(M.imag, -1074))
        assert abs(got - ref) <= 1e-14 * ref
        assert hs_norm(np.full((n, n), 5e-324)) == n * 5e-324


def test_hs_norm_is_the_unscaled_sum_where_no_square_leaves_the_range(rng):
    # matrices of order 2^-396 to 2^396 keep the bits of the plain sum of squares
    X = np.stack([oracles.random_matrix(rng, 4, 2.0**k) for k in range(-396, 397, 36)])
    ref = np.sqrt(np.einsum("...ab,...ab->...", X.conj(), X).real)
    assert np.array_equal(hs_norm(X), ref)
    assert all(hs_norm(M) == r for M, r in zip(X, ref))


def test_op_norm_of_subnormal_entries():
    # 5e-324 is the least subnormal: an unscaled Gram matrix underflows to zero
    for n in (2, 3, 4):
        assert op_norm(np.full((n, n), 5e-324, dtype=complex)) == n * 5e-324
        assert op_norm(np.diag([5e-324j] + [0.0] * (n - 1))) == 5e-324


def test_rectangular_rejected():
    for M in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 3))):
        with pytest.raises(ValidationError):
            op_norm(M)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
def test_norm_ordering(dim, seed):
    r = np.random.default_rng(seed)
    M = oracles.random_matrix(r, dim)
    assert op_norm(M) <= hs_norm(M) + 1e-12
    assert hs_norm(M) <= oracles.trace_norm(M) + 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**31 - 1))
def test_op_norm_unitary_invariance(dim, seed):
    r = np.random.default_rng(seed)
    M = oracles.random_matrix(r, dim)
    A = oracles.random_hermitian(r, dim)
    U = mat_exp(1j * A)
    assert abs(op_norm(U.conj().T @ M @ U) - op_norm(M)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**31 - 1))
def test_hoelder_and_cauchy_schwarz(dim, seed):
    r = np.random.default_rng(seed)
    A = oracles.random_matrix(r, dim)
    B = oracles.random_matrix(r, dim)
    tr_ab = abs(np.trace(A @ B))
    assert tr_ab <= op_norm(A) * oracles.trace_norm(B) + 1e-10
    assert tr_ab <= hs_norm(A) * hs_norm(B) + 1e-10


# ---------------------------------------------------------------------------
# matrix exponential


def test_mat_exp_zero():
    assert np.allclose(mat_exp(np.zeros((3, 3))), identity(3), atol=1e-15)


def test_mat_exp_diagonal_phase():
    E = mat_exp(-1j * (np.pi / 2) * sigma_z)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.abs(E - expected).max() <= 1e-12


def test_mat_exp_matches_eigendecomposition_oracle(rng):
    for _ in range(8):
        H = oracles.random_hermitian(rng, 4)
        t = rng.uniform(0.1, 3.0)
        E = mat_exp(-1j * t * H)
        assert np.abs(E - oracles.expm_hermitian_oracle(H, -1j * t)).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 50.0))
def test_mat_exp_unitarity(dim, seed, scale):
    r = np.random.default_rng(seed)
    H = oracles.random_hermitian(r, dim)
    t = scale / op_norm(H)
    assert is_unitary(mat_exp(-1j * t * H), 1e-10)


def _liouvillian_steps(gens, h):
    """h L and h L^dag of each generator, stacked."""
    return np.stack([h * liouvillian(gen, heisenberg) for gen in gens for heisenberg in (False, True)])


def _builtin_lindblad():
    # the CLI's default 1000 steps over the README horizons
    return [
        _liouvillian_steps([parse_system(builtin_text(name)).generator], T / 1000)
        for name, T in (("dephasing", 1.5708), ("qutrit_decay", 1.0))
    ]


def _audit_stacks():
    h = audit.LINDBLAD_T / audit.LINDBLAD_STEPS
    blocks = []
    for dim, count in ((2, 100), (3, 50)):
        trials = [audit._sample_trial(1, dim, i) for i in range(count)]
        blocks.append(_liouvillian_steps([LindbladGenerator(H=t.H, jumps=t.jumps) for t in trials], h))
    return blocks


def _dense_lindblad_16():
    # a random H and two random jumps of operator norm 1/2, as the
    # benchmark's generated Lindblad systems, over 1000 steps of T = 1
    rng = np.random.default_rng(16)
    H = oracles.random_hermitian(rng, 16)
    jumps = []
    for _ in range(2):
        L = oracles.random_matrix(rng, 16)
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0))))
    return [_liouvillian_steps([LindbladGenerator(H=H / op_norm(H), jumps=tuple(jumps))], 1e-3)]


def _qubit_decay():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gens = [LindbladGenerator(H=sigma_z, jumps=((lower, rate),)) for rate in (1e3, 1e6, 1e9)]
    return [_liouvillian_steps([gen], 1e-3) for gen in gens]


def _non_normal():
    # upper-triangular dominated, so far from normal
    rng = np.random.default_rng(7)
    out = []
    for dim in (2, 3, 5, 8):
        for norm in np.logspace(-8, 1, 10):
            A = oracles.random_matrix(rng, dim) + np.triu(oracles.random_matrix(rng, dim, 20.0), 1)
            out.append(norm * A / np.abs(A).sum(axis=0).max())
    return out


def _stack():
    rng = np.random.default_rng(8)
    norms = np.array([[1e-6, 1e-2, 0.4], [1.0, 3.0, 10.0]])[..., None, None]
    A = np.array([[oracles.random_matrix(rng, 4) for _ in range(3)] for _ in range(2)])
    return [norms * A / np.abs(A).sum(axis=-2).max(axis=-1)[..., None, None]]


@pytest.mark.parametrize(
    "inputs",
    [_builtin_lindblad, _audit_stacks, _dense_lindblad_16, _qubit_decay, _non_normal, lambda: [np.zeros((3, 3))]]
    + [_stack],
    ids=["builtin-lindblad", "audit-stacks", "dense-lindblad-16", "qubit-decay", "non-normal", "zero", "stack"],
)
def test_mat_exp_matches_scipy_expm(inputs):
    # |e^A - expm(A)|_max <= 1e-13 max(1, |A|_1) |expm(A)|_max for each matrix
    for A in inputs():
        E, R = mat_exp(A), oracles.scipy_expm(A)
        assert E.shape == R.shape == A.shape
        norm = np.abs(A).sum(axis=-2).max(axis=-1)
        err = np.abs(E - R).max(axis=(-2, -1))
        assert (err <= 1e-13 * np.maximum(1.0, norm) * np.abs(R).max(axis=(-2, -1))).all()


def test_mat_exp_overflow():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        mat_exp(np.full((2, 2), 2e3, dtype=complex))
    # finite entries whose 1-norm overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        mat_exp(np.full((2, 2), 1e308, dtype=complex))


# ---------------------------------------------------------------------------
# commutators


def test_commutator_pauli_algebra():
    assert np.abs(commutator(sigma_x, sigma_y) - 2j * sigma_z).max() <= 1e-15
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.abs(commutator(A, A)).max() == 0.0


def test_commutator_dim_mismatch():
    with pytest.raises(ValidationError):
        commutator(identity(2), identity(3))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**31 - 1))
def test_commutator_norm_inequality(dim, seed):
    r = np.random.default_rng(seed)
    A = oracles.random_matrix(r, dim)
    B = oracles.random_matrix(r, dim)
    assert op_norm(commutator(A, B)) <= 2.0 * op_norm(A) * op_norm(B) + 1e-10


# ---------------------------------------------------------------------------
# expectation and variance


def test_expectation_plus_state():
    assert expectation(sigma_x, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_expectation_maximally_mixed():
    assert expectation(sigma_z, oracles.maximally_mixed(2)) == pytest.approx(0.0, abs=1e-15)


def test_expectation_matches_naive_trace(rng):
    for _ in range(10):
        O = oracles.random_hermitian(rng, 3)
        rho = DensityState.pure(oracles.random_ket(rng, 3))
        want = oracles.naive_trace_product(O, rho.matrix)
        assert expectation(O, rho) == pytest.approx(want.real, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        expectation(np.array([[0, 1], [0, 0]], dtype=complex), PLUS)


def test_variance_examples():
    assert variance(sigma_z, PLUS) == pytest.approx(1.0, abs=1e-12)
    assert variance(sigma_z, DensityState.pure([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_variance_self_inverse_identity(rng):
    # O^2 = I forces variance = 1 - <O>^2 on any state
    G = oracles.random_matrix(rng, 3)
    Q, _ = np.linalg.qr(G)
    O = (Q * np.array([1.0, -1.0, 1.0])) @ Q.conj().T
    rho = DensityState.pure(oracles.random_ket(rng, 3))
    assert variance(O, rho) == pytest.approx(1.0 - expectation(O, rho) ** 2, abs=1e-10)


def test_variance_rejects_large_negative():
    bogus = DensityState(matrix=np.diag([2.0, -1.0]).astype(complex), purity=5.0)
    with pytest.raises(NumericError):
        variance(sigma_z, bogus)


# ---------------------------------------------------------------------------
# predicates and density states


def test_predicates():
    assert is_hermitian(sigma_y)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_unitary(mat_exp(-1j * 0.7 * sigma_x), 1e-10)
    assert not is_unitary(2.0 * identity(2))
    assert is_positive_semidefinite(PLUS.matrix)
    assert not is_positive_semidefinite(sigma_z)


def test_density_state_validation():
    with pytest.raises(ValidationError):
        DensityState.from_matrix(np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValidationError):
        DensityState.from_matrix(identity(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityState.from_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.warns(RuntimeWarning):
        DensityState.from_matrix(
            np.diag([1.0 + 5e-6, -5e-6]).astype(complex), tol=1e-6, on_indefinite="warn"
        )


def test_density_state_purity_cache(rng):
    rho = DensityState.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert rho.purity == pytest.approx(np.trace(rho.matrix @ rho.matrix).real, abs=1e-15)
    assert not rho.is_pure()
    assert DensityState.pure(oracles.random_ket(rng, 4)).is_pure()
    assert oracles.maximally_mixed(4).purity == pytest.approx(0.25)


def test_density_state_pure_normalizes():
    rho = DensityState.pure([2.0, 0.0])
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        DensityState.pure([0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ket", [[1e200, 1e200], [1e-200, 1e-200]], ids=["norm-overflows", "norm-underflows"])
def test_pure_normalizes_huge_and_tiny_kets_without_warnings(ket):
    assert np.abs(DensityState.pure(ket).matrix - 0.5).max() <= 4e-16


def test_pure_scaling_leaves_an_ordinary_ket_unchanged(rng):
    # a power-of-two scaling is exact, so it gives the bits of psi / ||psi||
    for scale in (1e-30, 1e-3, 1.0, 7.0, 1e30):
        psi = scale * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        psi_n = psi / np.linalg.norm(psi)
        assert np.array_equal(DensityState.pure(psi).matrix, np.outer(psi_n, psi_n.conj()))
    with pytest.raises(ValidationError, match="nonzero finite"):
        DensityState.pure([np.inf, 0.0])
