"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions enforce the stated tolerances either way.
"""

import time

import numpy as np
import pytest

from oqsl.audit import run_audit
from oqsl.bounds import (
    oqsl_mt_integral,
    oqsl_self_inverse,
    qsl_delcampo,
    oqsl_generator_hs,
    state_qsl_projector,
    battery_bounds,
)
from oqsl.dynamics import (
    DephasingKraus,
    TimeGrid,
    UnitaryGenerator,
    dephasing_generator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    evolve_unitary_heisenberg,
    lindblad_apply,
)
from oqsl.linalg import (
    DensityState,
    hs_norm,
    op_norm,
    sigma_x,
    sigma_z,
    variance,
)
from oqsl.sysdl import parse_system, serialize_system

import oracles
from oracles import builtin_names, builtin_text
from test_sysdl import run_mutation_fuzz, spec_matrices_equal

PLUS = DensityState.pure([1.0, 1.0])


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} ({name}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def fuzz_summary():
    start = time.perf_counter()
    summary = run_audit(n_qubit=100, n_qutrit=50, seed=42)
    elapsed = time.perf_counter() - start
    return summary, elapsed


def test_criterion_1_tight_example():
    start = time.perf_counter()
    T = np.pi / 2.0
    grid = TimeGrid(T, 4000)
    traj = evolve_unitary_heisenberg(sigma_x, UnitaryGenerator(sigma_z), PLUS, grid)
    delta_H = float(np.sqrt(variance(sigma_z, PLUS)))
    mt = oqsl_mt_integral(traj, delta_H).T_qsl
    si = oqsl_self_inverse(float(traj.expect[0]), float(traj.expect[-1]), delta_H, T).T_qsl
    elapsed = time.perf_counter() - start
    ok = abs(mt - T) <= 1e-4 and abs(si - T) <= 1e-4 and elapsed < 1.0
    report(
        1,
        "tight-example reproduction",
        ok,
        f"MT err {abs(mt - T):.2e}, arcsine err {abs(si - T):.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_dephasing_figure_data():
    start = time.perf_counter()
    gamma, t_max, steps, n_points = 1.0, np.pi / 2.0, 3200, 64
    gen = dephasing_generator(gamma)
    grid = TimeGrid(t_max, steps)
    traj = evolve_lindblad_heisenberg(sigma_x, gen, PLUS, grid)
    states = evolve_lindblad_schrodinger(PLUS, gen, grid)
    l_hs = float(hs_norm(lindblad_apply(gen, PLUS.matrix)))
    stride = steps // n_points
    worst_oqsl = worst_qsl = 0.0
    dominance = True
    for k in range(1, n_points + 1):
        sub = traj.prefix(k * stride)
        T = sub.grid.T
        oqsl = oqsl_generator_hs(sub, PLUS).T_qsl
        qsl = qsl_delcampo(PLUS, states[k * stride], l_hs, T).T_qsl
        worst_oqsl = max(worst_oqsl, abs(oqsl - T / np.sqrt(2.0)))
        worst_qsl = max(worst_qsl, abs(qsl - (1.0 - np.exp(-T)) / np.sqrt(2.0)))
        dominance = dominance and (oqsl >= qsl)
    elapsed = time.perf_counter() - start
    ok = worst_oqsl <= 1e-6 and worst_qsl <= 1e-6 and dominance and elapsed < 5.0
    report(
        2,
        "figure-data reproduction",
        ok,
        f"max observable-bound err {worst_oqsl:.2e}, max state-bound err {worst_qsl:.2e}, "
        f"dominance {dominance}, {elapsed:.2f}s",
    )


def test_criterion_3_dephasing_dynamics():
    grid = TimeGrid(np.pi / 2.0, 1000)
    times = grid.times()
    units = oracles.matrix_units(2)
    traj = evolve_lindblad_heisenberg(sigma_x, dephasing_generator(1.0), PLUS, grid, probes=tuple(units))
    Os = oracles.samples_from_probes(traj)
    lindblad_err = max(
        float(np.linalg.norm(Os[i] - np.exp(-times[i]) * sigma_x))
        for i in range(len(times))
    )
    # <O(t)> in |+> is e^{-t}, and O(0), O(T) are rebuilt from the matrix units
    ktraj = evolve_kraus_heisenberg(sigma_x, DephasingKraus(1.0), PLUS, grid, probes=tuple(units))
    kOs = oracles.samples_from_probes(ktraj)
    kraus_err = max(
        float(np.abs(ktraj.expect - np.exp(-times)).max()),
        *(float(np.linalg.norm(kOs[k] - np.exp(-times[k]) * sigma_x)) for k in (0, -1)),
    )
    ok = lindblad_err <= 1e-8 and kraus_err <= 1e-9
    report(
        3,
        "dephasing dynamics closed form",
        ok,
        f"Lindblad err {lindblad_err:.2e} <= 1e-8, Kraus err {kraus_err:.2e} <= 1e-9",
    )


def test_criterion_4_validity_fuzz(fuzz_summary):
    summary, elapsed = fuzz_summary
    bound_rows = [r for r in summary.rows if not r.check.startswith("RATE_") and r.check != "DUALITY"]
    rate_rows = [r for r in summary.rows if r.check.startswith("RATE_")]
    worst_bound = max(r.max_violation for r in bound_rows)
    worst_rate = max(r.max_violation for r in rate_rows)
    ok = worst_bound <= 1e-6 and worst_rate <= 1e-6 and elapsed < 60.0
    report(
        4,
        "validity fuzz (100 qubit + 50 qutrit)",
        ok,
        f"worst bound violation {worst_bound:.2e}, worst rate violation {worst_rate:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_duality(fuzz_summary):
    summary, _ = fuzz_summary
    dual = [r for r in summary.rows if r.check == "DUALITY"]
    worst = max(r.max_violation for r in dual)
    ok = bool(dual) and worst <= 1e-6
    report(5, "Heisenberg/Schrodinger duality", ok, f"max deviation {worst:.2e}")


def test_criterion_6_battery_degenerate():
    grid = TimeGrid(np.pi / 4.0, 500)
    ct1, ct2 = battery_bounds(sigma_z, sigma_z, PLUS, grid)
    HT = 2.0 * sigma_z
    ptraj = evolve_unitary_heisenberg(PLUS.matrix.copy(), UnitaryGenerator(HT), PLUS, grid)
    pT = float(np.clip(ptraj.expect[-1], 0.0, 1.0))
    smt = state_qsl_projector(
        1.0, pT, float(np.sqrt(variance(HT, PLUS))), grid.T
    ).T_qsl
    ok = ct1.T_qsl == 0.0 and ct2.T_qsl == 0.0 and smt >= 0.5
    report(
        6,
        "degenerate battery charging",
        ok,
        f"CT1 {ct1.T_qsl!r}, CT2 {ct2.T_qsl!r}, state bound {smt:.4f} >= 0.5",
    )


def test_criterion_7_projector_reduction():
    worst = 0.0
    for pT in (0.0, 0.25, 0.5, 1.0):
        got = state_qsl_projector(1.0, pT, 1.0, 2.0).T_qsl
        worst = max(worst, abs(got - float(np.arccos(np.sqrt(pT)))))
    ok = worst == 0.0
    report(7, "projector-bound reduction identity", ok, f"max deviation {worst!r}")


def test_criterion_8_norm_inequalities():
    rng = np.random.default_rng(2026)
    worst_order = worst_hoelder = worst_cs = -np.inf
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        A = oracles.random_matrix(rng, dim)
        B = oracles.random_matrix(rng, dim)
        op_a, hs_a, tr_a = op_norm(A), hs_norm(A), oracles.trace_norm(A)
        worst_order = max(worst_order, op_a - hs_a, hs_a - tr_a)
        t = abs(np.trace(A @ B))
        worst_hoelder = max(worst_hoelder, t - op_a * oracles.trace_norm(B))
        worst_cs = max(worst_cs, t - hs_a * hs_norm(B))
    ok = worst_order <= 1e-10 and worst_hoelder <= 1e-10 and worst_cs <= 1e-10
    report(
        8,
        "norm ordering / Hoelder / Cauchy-Schwarz",
        ok,
        f"worst ordering {worst_order:.2e}, Hoelder {worst_hoelder:.2e}, CS {worst_cs:.2e}",
    )


def test_criterion_9_parser_round_trip_and_fuzz():
    bit_exact = True
    for name in builtin_names():
        spec = parse_system(builtin_text(name))
        again = parse_system(serialize_system(spec))
        bit_exact = bit_exact and spec_matrices_equal(spec, again)
    diagnostics_seen = run_mutation_fuzz(10_000, seed=424242)
    ok = bit_exact and diagnostics_seen > 0
    report(
        9,
        "parser round-trip and 10k mutation fuzz",
        ok,
        f"corpus bit-exact {bit_exact}, {diagnostics_seen} mutants diagnosed, 0 crashes",
    )
