"""The eigenbasis unitary trajectory against the dense per-sample route it
replaced and against the closed forms its declared probes replaced
(tests/oracles.py), the reads it no longer serves, and the memory that the
dense route no longer needs."""

import tracemalloc

import numpy as np
import pytest

from oqsl.bounds import (
    EvalContext,
    commutator_probe,
    commutator_qsl,
    corr_qsl,
    correlation_probe,
    oqsl_generator_hs,
    oqsl_state_independent,
    rate_audit,
    two_time_correlation,
)
from oqsl.dynamics import TimeGrid, UnitaryGenerator, evolve_unitary_heisenberg
from oqsl.linalg import DensityState, ValidationError, hs_norm, op_norm, sigma_z

import oracles


def _random_case(dim, hbar, degenerate=False, seed=0):
    rng = np.random.default_rng([seed, dim])
    if degenerate:
        # sigma_z (x) 1: two eigenvalues, each (dim / 2)-fold degenerate
        H = np.kron(sigma_z, np.eye(dim // 2))
    else:
        H = oracles.random_hermitian(rng, dim)
    A = oracles.random_hermitian(rng, dim)
    B = oracles.random_hermitian(rng, dim)
    rho = DensityState.pure(oracles.random_ket(rng, dim))
    return H, A, B, rho, hbar


CASES = {
    "d2": _random_case(2, 1.0),
    "d3": _random_case(3, 1.0),
    "d8": _random_case(8, 1.0),
    "d32": _random_case(32, 1.0),
    "degenerate-d8": _random_case(8, 1.0, degenerate=True),
    "hbar-d8": _random_case(8, 2.5),
    "hbar-degenerate-d4": _random_case(4, 0.4, degenerate=True),
}
GRID = TimeGrid(1.3, 60)


def _close(a, b, scale, tol=1e-11):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= tol * scale


def _context(A, H, B, rho, hbar):
    """The context of A whose probes are those of its bounds and its rate audit."""
    return EvalContext(UnitaryGenerator(H, hbar=hbar), GRID, A, rho, None, B=B, rates=True)


@pytest.fixture(params=sorted(CASES), ids=sorted(CASES))
def case(request):
    H, A, B, rho, hbar = CASES[request.param]
    # the probes of the bounds and the rate audit, B rho, and the matrix units
    probes = (*_context(A, H, B, rho, hbar).probes, B @ rho.matrix, *oracles.matrix_units(A.shape[0]))
    traj = evolve_unitary_heisenberg(A, UnitaryGenerator(H, hbar=hbar), rho, GRID, probes=probes)
    ref = oracles.dense_unitary_route(A, H, rho.matrix, GRID.times(), hbar)
    return H, A, B, rho, hbar, traj, ref


def test_moments_and_speeds_match_dense_route(case):
    H, A, B, rho, hbar, traj, (Os, expect, stddev, speed_hs, speed_op) = case
    scale = op_norm(A) ** 2
    _close(traj.expect, expect, scale)
    # the spread is only sqrt(eps)-accurate where it vanishes: compare variances
    _close(traj.stddev**2, stddev**2, scale)
    _close(traj.gen_speed_hs, speed_hs, scale * op_norm(H) / hbar)
    _close(traj.gen_speed_op, speed_op, scale * op_norm(H) / hbar)
    assert np.ptp(traj.gen_speed_hs) == 0.0 and np.ptp(traj.gen_speed_op) == 0.0


def test_samples_are_built_on_demand_and_match(case):
    _, A, _, _, _, traj, (Os, *_) = case
    assert not any(isinstance(v, np.ndarray) and v.ndim == 3 for v in vars(traj).values())
    samples = oracles.samples_from_probes(traj)
    _close(samples[0], A, op_norm(A))
    _close(samples, Os, op_norm(A))


def test_declared_probes_and_ends_equal_the_closed_forms(case):
    _, A, *_, traj, _ = case
    for M, series in traj.probes:
        assert np.array_equal(series, oracles.unitary_trace_with(traj, M))
    # O(0) and O(T), rebuilt from the matrix units, against the matrix closed form
    samples = oracles.samples_from_probes(traj)
    for k in (0, -1):
        _close(samples[k], oracles.unitary_at(traj, k), op_norm(A))


def test_undeclared_probes_and_interior_samples_raise(case):
    H, A, B, rho, hbar, traj, _ = case
    with pytest.raises(ValidationError, match="declared as a probe"):
        traj.trace_with(B)
    # with only its bounds' probes declared, no entry of any O(t_k) can be read
    bare = evolve_unitary_heisenberg(A, UnitaryGenerator(H, hbar=hbar), rho, GRID,
                                     probes=_context(A, H, B, rho, hbar).probes)
    for unit in oracles.matrix_units(A.shape[0])[:2]:
        with pytest.raises(ValidationError, match="declared as a probe"):
            bare.trace_with(unit)


def test_trace_with_finds_a_probe_by_value():
    rho, grid = DensityState.pure([1.0, 1.0]), TimeGrid(1.0, 10)
    declared = np.diag([1.0, -1.0])  # real entries, two of them zero
    traj = evolve_unitary_heisenberg(sigma_z, UnitaryGenerator(sigma_z), rho, grid, probes=(declared,))
    series = traj.trace_with(declared)
    # a complex copy whose zeros carry the other sign is the same matrix
    assert traj.trace_with(np.array([[1.0, -0.0], [-0.0, -1.0]], dtype=complex)) is series
    # the same entries in another shape are not
    with pytest.raises(ValidationError, match="declared as a probe"):
        traj.trace_with(declared.reshape(1, 4))


def test_prefix_matches_dense_route(case):
    H, A, _, _, hbar, traj, (Os, expect, stddev, speed_hs, _) = case
    sub = traj.prefix(17)
    assert sub.grid.steps == 17 and sub.kind == "unitary"
    scale = op_norm(A) ** 2
    _close(sub.expect, expect[:18], scale)
    _close(sub.stddev**2, stddev[:18] ** 2, scale)
    _close(sub.gen_speed_hs, speed_hs[:18], scale * op_norm(H) / hbar)
    _close(oracles.samples_from_probes(sub), Os[:18], op_norm(A))


def test_trace_with_and_midpoint_spread(case):
    H, A, B, rho, hbar, traj, (Os, _, stddev, _, _) = case
    M = B @ rho.matrix
    _close(traj.trace_with(M), np.einsum("tab,ba->t", Os, M), op_norm(A) * op_norm(B))
    _close(traj.stddev_at(GRID.times()) ** 2, traj.stddev**2, op_norm(A) ** 2, tol=1e-13)
    mid = GRID.times()[:-1] + 0.5 * GRID.h
    mid_std = oracles.dense_unitary_route(A, H, rho.matrix, mid, hbar)[2]
    _close(traj.stddev_at(mid) ** 2, mid_std**2, op_norm(A) ** 2)
    assert np.array_equal(traj.mid_stddev, traj.stddev_at(mid))


def test_correlation_and_commutator_match_dense_route(case):
    H, A, B, rho, hbar, traj, (Os, *_) = case
    scale = op_norm(A) * op_norm(B)
    C = two_time_correlation(A, traj, rho)
    _close(C, oracles.dense_correlation(Os, A, rho.matrix), op_norm(A) ** 2)
    corr = corr_qsl(C, traj, op_norm(A))
    assert corr.T_qsl >= 0.0

    rep = commutator_qsl(B, traj, rho)
    ref = oracles.dense_commutator_expect(Os, B, rho.matrix)
    assert rep.details["comm_expect_0"] == pytest.approx(abs(ref[0]), abs=1e-11 * scale)
    assert rep.details["comm_expect_T"] == pytest.approx(abs(ref[-1]), abs=1e-11 * scale)


def test_state_independent_and_rate_audit_match_dense_route(case):
    H, A, _, rho, hbar, traj, (Os, expect, *_) = case
    rep = oqsl_state_independent(A, traj)
    ref_change = abs(np.trace(A @ (Os[-1] - A)))
    assert rep.details["overlap_change"] == pytest.approx(ref_change, abs=1e-11 * hs_norm(A) ** 2)

    ctx = _context(A, H, None, rho, hbar)
    ctx.traj = traj
    violations = rate_audit(ctx)
    # d<A>/dt = tr((i/hbar)[H, A(t)] rho) at every grid point
    lhs = np.abs(np.einsum("tab,ba->t", 1j / hbar * (H[None] @ Os - Os @ H[None]), rho.matrix))
    holder = 2.0 / hbar * np.linalg.svd(H[None] @ Os, compute_uv=False)[:, 0]
    scale = op_norm(H) * op_norm(A) / hbar
    assert violations["RATE_HOLDER_OP"] == pytest.approx(float((lhs - holder).max()), abs=1e-10 * scale)


def test_unitary_bounds_stay_far_below_one_sample_stack():
    # d = 64 at 1000 steps: one (1001, 64, 64) complex array is 65.6 MB
    dim, steps = 64, 1000
    H, A, B, rho, _ = _random_case(dim, 1.0, seed=5)
    grid = TimeGrid(1.0, steps)
    tracemalloc.start()
    try:
        traj = evolve_unitary_heisenberg(
            A, UnitaryGenerator(H), rho, grid, probes=(correlation_probe(A, rho), commutator_probe(B, rho))
        )
        oqsl_generator_hs(traj, rho)
        C = two_time_correlation(A, traj, rho)
        corr_qsl(C, traj, op_norm(A))
        commutator_qsl(B, traj, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = (steps + 1) * dim * dim * np.dtype(complex).itemsize
    assert peak < stack / 8, f"peak traced memory {peak / 1e6:.1f} MB"
