"""Built-in, parameter-free reproductions of the worked qubit examples,
emitting machine-readable tables checked against closed forms.

Each scenario fixes its grid and parameters, so repeated runs produce
bit-identical CSV/JSON output. The default parameters double as the golden
regression suite for the bound evaluators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .dynamics import (
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
from .linalg import DensityState, ValidationError, hs_norm, sigma_x, sigma_z

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    columns: tuple
    rows: list = field(compare=False)
    tolerance: float = 0.0
    passed: bool = False

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema": "oqsl.scenario/v1",
            "scenario": self.scenario_id,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "columns": list(self.columns),
            "rows": self.rows,
        }
        return json.dumps(payload, sort_keys=True) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def scenario_tight_qubit(steps: int = 4000) -> ScenarioResult:
    """Qubit precession where the arcsine bound is tight: the observable's
    expectation swings from +1 to -1 in exactly the minimal time pi/2."""
    T = np.pi / 2.0
    rho = DensityState.pure(PLUS)
    grid = TimeGrid(0.0, T, steps)
    refs = {"MT_INTEGRAL": T, "SELF_INVERSE": T, "STATE_MT": T, "PURITY_HS": 1.0 / np.sqrt(2.0), "MIN_NORM": 1.0}
    ctx = bounds.EvalContext(
        UnitaryGenerator(sigma_z),
        grid,
        sigma_x,
        rho,
        evolve_unitary_heisenberg,
        self_inverse=sigma_x,
        # survival probability of the initial state through its projector
        projector=rho.matrix,
        ids=tuple(refs),
    )
    rows = [
        {"bound": r.bound_id, "value": r.T_qsl, "reference": refs[r.bound_id], "abs_err": abs(r.T_qsl - refs[r.bound_id])}
        for r in bounds.evaluate_all(ctx)
    ]
    tol = 1e-4
    passed = all(r["abs_err"] <= tol for r in rows)
    return ScenarioResult(
        scenario_id="tight-qubit",
        columns=("bound", "value", "reference", "abs_err"),
        rows=rows,
        tolerance=tol,
        passed=passed,
    )


def scenario_dephasing(
    gamma: float = 1.0,
    t_max: float = np.pi / 2.0,
    steps: int = 3200,
    n_points: int = 64,
) -> ScenarioResult:
    """Pure qubit dephasing: the observable-speed bound against the
    relative-purity state bound on a grid of horizons T in (0, t_max].

    Closed forms at strength gamma: the observable bound equals T / sqrt(2)
    for every horizon, the state bound (1 - e^{-gamma T}) / (sqrt(2) gamma),
    so the former dominates pointwise.
    """
    if gamma <= 0:
        raise ValidationError("dephasing strength gamma must be positive")
    if steps % n_points != 0:
        raise ValidationError(f"steps={steps} must be a multiple of n_points={n_points}")
    rho = DensityState.pure(PLUS)
    gen = dephasing_generator(gamma)
    grid = TimeGrid(0.0, t_max, steps)
    traj = evolve_lindblad_heisenberg(sigma_x, gen, rho, grid)
    states = evolve_lindblad_schrodinger(rho, gen, grid)
    lrho0_hs2 = hs_norm(lindblad_apply(gen, rho.matrix, 0.0)) ** 2

    stride = steps // n_points
    rows = []
    for k in range(1, n_points + 1):
        idx = k * stride
        sub = traj.prefix(idx)
        T = sub.grid.duration
        oqsl = bounds.oqsl_generator_hs(sub, rho).T_qsl
        qsl = bounds.qsl_delcampo(rho, states[idx], lrho0_hs2, T).T_qsl
        ref_oqsl = T / np.sqrt(2.0)
        ref_qsl = (1.0 - np.exp(-gamma * T)) / (np.sqrt(2.0) * gamma)
        rows.append(
            {
                "T": T,
                "oqsl": oqsl,
                "qsl": qsl,
                "ref_oqsl": ref_oqsl,
                "ref_qsl": ref_qsl,
                "err_oqsl": abs(oqsl - ref_oqsl),
                "err_qsl": abs(qsl - ref_qsl),
            }
        )
    tol = 1e-6
    passed = all(
        r["err_oqsl"] <= tol and r["err_qsl"] <= tol and r["oqsl"] >= r["qsl"] for r in rows
    )
    return ScenarioResult(
        scenario_id="dephasing",
        columns=("T", "oqsl", "qsl", "ref_oqsl", "ref_qsl", "err_oqsl", "err_qsl"),
        rows=rows,
        tolerance=tol,
        passed=passed,
    )


def scenario_battery_degenerate(steps: int = 2000) -> ScenarioResult:
    """Battery with degenerate stored energy: a pure phase drive moves the
    state to an orthogonal one while the stored energy never changes, so both
    charging-time bounds are exactly zero while the state bound is not."""
    a = b = 1.0 / np.sqrt(2.0)
    psi0 = np.array([a, b], dtype=complex)
    rho = DensityState.pure(psi0)
    HB = sigma_z.copy()
    HC = sigma_z.copy()  # phase drive: relative phase pi at T = pi/4 under HB + HC
    T = np.pi / 4.0
    grid = TimeGrid(0.0, T, steps)
    ct1, ct2 = bounds.battery_bounds(HB, HC, rho, grid)

    # survival probability of the initial state under the same drive
    P = rho.matrix
    ctx = bounds.EvalContext(
        UnitaryGenerator(HB + HC), grid, P, rho, evolve_unitary_heisenberg, projector=P, ids=("STATE_MT",)
    )
    [smt] = bounds.evaluate_all(ctx)

    rows = [
        {"quantity": "BATTERY_CT1", "value": ct1.T_qsl, "reference": 0.0, "abs_err": abs(ct1.T_qsl)},
        {"quantity": "BATTERY_CT2", "value": ct2.T_qsl, "reference": 0.0, "abs_err": abs(ct2.T_qsl)},
        {
            "quantity": "STATE_MT",
            "value": smt.T_qsl,
            "reference": np.pi / 4.0,
            "abs_err": abs(smt.T_qsl - np.pi / 4.0),
        },
    ]
    tol = 1e-6
    passed = (
        ct1.T_qsl == 0.0
        and ct2.T_qsl == 0.0
        and abs(smt.T_qsl - np.pi / 4.0) <= tol
        and smt.T_qsl >= 0.5
    )
    return ScenarioResult(
        scenario_id="battery-degenerate",
        columns=("quantity", "value", "reference", "abs_err"),
        rows=rows,
        tolerance=tol,
        passed=passed,
    )


def scenario_kraus_dephasing(gamma: float = 1.0, t_max: float = np.pi / 2.0, steps: int = 1000) -> ScenarioResult:
    """Dephasing through its closed-form Kraus family: the direct map
    evaluation must match the master-equation solution e^{-gamma t} sigma_x,
    and the KRAUS bound its closed form T / sqrt(2) at every gamma."""
    if gamma <= 0:
        raise ValidationError("dephasing strength gamma must be positive")
    rho = DensityState.pure(PLUS)
    grid = TimeGrid(0.0, t_max, steps)
    traj = evolve_kraus_heisenberg(sigma_x, DephasingKraus(gamma), rho, grid)
    times = grid.times()
    analytic = np.exp(-gamma * times)
    max_err = float(np.abs(traj.expect - analytic).max())
    kb = bounds.oqsl_kraus(traj, rho)
    ref = grid.duration / np.sqrt(2.0)
    rows = [
        {"quantity": "max_expect_err", "value": max_err, "reference": 0.0, "abs_err": max_err},
        {"quantity": "KRAUS", "value": kb.T_qsl, "reference": ref, "abs_err": abs(kb.T_qsl - ref)},
        {"quantity": "KRAUS_valid", "value": float(kb.valid), "reference": 1.0, "abs_err": float(not kb.valid)},
    ]
    tol = 1e-9
    passed = max_err <= tol and abs(kb.T_qsl - ref) <= tol and kb.valid
    return ScenarioResult(
        scenario_id="kraus-dephasing",
        columns=("quantity", "value", "reference", "abs_err"),
        rows=rows,
        tolerance=tol,
        passed=passed,
    )


SCENARIOS = {
    "tight-qubit": scenario_tight_qubit,
    "dephasing": scenario_dephasing,
    "battery-degenerate": scenario_battery_degenerate,
    "kraus-dephasing": scenario_kraus_dephasing,
}


def run_scenario(name: str) -> ScenarioResult:
    if name not in SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
    return SCENARIOS[name]()
