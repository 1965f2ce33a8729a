"""The eigenbasis unitary trajectory against the dense per-sample route it
replaced (tests/oracles.py), and the memory that route no longer needs."""

import tracemalloc

import numpy as np
import pytest

from oqsl.bounds import (
    EvalContext,
    commutator_qsl,
    corr_qsl,
    oqsl_generator_hs,
    oqsl_state_independent,
    rate_audit,
    two_time_correlation,
)
from oqsl.dynamics import TimeGrid, evolve_unitary_heisenberg
from oqsl.linalg import DensityState, hs_norm, op_norm, sigma_z

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
GRID = TimeGrid(0.0, 1.3, 60)


def _close(a, b, scale, tol=1e-11):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= tol * scale


@pytest.fixture(params=sorted(CASES), ids=sorted(CASES))
def case(request):
    H, A, B, rho, hbar = CASES[request.param]
    traj = evolve_unitary_heisenberg(A, H, rho, GRID, hbar=hbar)
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
    assert "O_samples" not in vars(traj)
    _close(traj.at(0), A, op_norm(A))
    _close(traj.at(-1), Os[-1], op_norm(A))
    _close(traj.O_samples, Os, op_norm(A))
    assert traj.O_samples is traj.O_samples


def test_prefix_matches_dense_route(case):
    H, A, _, _, hbar, traj, (Os, expect, stddev, speed_hs, _) = case
    sub = traj.prefix(17)
    assert sub.grid.steps == 17 and sub.kind == "unitary"
    scale = op_norm(A) ** 2
    _close(sub.expect, expect[:18], scale)
    _close(sub.stddev**2, stddev[:18] ** 2, scale)
    _close(sub.gen_speed_hs, speed_hs[:18], scale * op_norm(H) / hbar)
    _close(sub.O_samples, Os[:18], op_norm(A))


def test_trace_with_and_midpoint_spread(case):
    H, A, B, rho, hbar, traj, (Os, _, stddev, _, _) = case
    M = B @ rho.matrix
    _close(traj.trace_with(M), np.einsum("tab,ba->t", Os, M), op_norm(A) * op_norm(B))
    _close(traj.stddev_at(GRID.times()) ** 2, traj.stddev**2, op_norm(A) ** 2, tol=1e-13)
    mid = GRID.times()[:-1] + 0.5 * GRID.h
    mid_std = oracles.dense_unitary_route(A, H, rho.matrix, mid, hbar)[2]
    _close(traj.stddev_at(mid) ** 2, mid_std**2, op_norm(A) ** 2)


def test_correlation_and_commutator_match_dense_route(case):
    H, A, B, rho, hbar, traj, (Os, *_) = case
    scale = op_norm(A) * op_norm(B)
    trace = two_time_correlation(A, traj, rho)
    _close(trace.C_samples, oracles.dense_correlation(Os, A, rho.matrix), op_norm(A) ** 2)
    corr = corr_qsl(trace, op_norm(A), traj.gen_speed_op * hbar, hbar=hbar, kind="closed")
    assert corr.T_qsl >= 0.0

    rep = commutator_qsl(B, traj, rho, hbar=hbar, kind="closed")
    ref = oracles.dense_commutator_expect(Os, B, rho.matrix)
    assert rep.details["comm_expect_0"] == pytest.approx(abs(ref[0]), abs=1e-11 * scale)
    assert rep.details["comm_expect_T"] == pytest.approx(abs(ref[-1]), abs=1e-11 * scale)


def test_state_independent_and_rate_audit_match_dense_route(case):
    H, A, _, rho, hbar, traj, (Os, expect, *_) = case
    rep = oqsl_state_independent(A, traj)
    ref_change = abs(np.trace(A @ (Os[-1] - A)))
    assert rep.details["overlap_change"] == pytest.approx(ref_change, abs=1e-11 * hs_norm(A) ** 2)

    audit = rate_audit(EvalContext("unitary", GRID, A, rho, lambda: traj, H=H, hbar=hbar))
    lhs = np.abs(expect[2:] - expect[:-2]) / (2.0 * GRID.h)
    holder = 2.0 / hbar * np.linalg.svd(H[None] @ Os[1:-1], compute_uv=False)[:, 0]
    scale = op_norm(H) * op_norm(A) / hbar
    assert audit.violations["RATE_HOLDER_OP"] == pytest.approx(float((lhs - holder).max()), abs=1e-10 * scale)


def test_unitary_bounds_stay_far_below_one_sample_stack():
    # d = 64 at 1000 steps: one (1001, 64, 64) complex array is 65.6 MB
    dim, steps = 64, 1000
    H, A, B, rho, _ = _random_case(dim, 1.0, seed=5)
    grid = TimeGrid(0.0, 1.0, steps)
    tracemalloc.start()
    try:
        traj = evolve_unitary_heisenberg(A, H, rho, grid)
        oqsl_generator_hs(traj, rho)
        trace = two_time_correlation(A, traj, rho)
        corr_qsl(trace, op_norm(A), traj.gen_speed_op, kind="closed")
        commutator_qsl(B, traj, rho, kind="closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = (steps + 1) * dim * dim * np.dtype(complex).itemsize
    assert peak < stack / 8, f"peak traced memory {peak / 1e6:.1f} MB"
