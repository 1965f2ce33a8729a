"""Command-line surface: parse system files, evolve observables, evaluate
bounds, run built-in scenarios, and drive the randomized audit.

Exit codes: 0 on success (and all validity/pass flags true), 2 on input or
parse errors, 3 on numeric failures (including failed validity checks).
Results go to stdout as CSV or JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import bounds, scenarios
from .dynamics import (
    TimeGrid,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    evolve_unitary_heisenberg,
    lindblad_apply,
)
from .linalg import (
    DEFAULT_TOL,
    NumericError,
    ValidationError,
    hs_norm,
    op_norm,
    tr_norm,
    variance,
)
from .sysdl import ParseError, SystemSpec, parse_system, serialize_system

BOUND_CSV_HEADER = "bound_id,T,T_qsl,valid"
EVOLVE_CSV_HEADER = "t,expect,stddev,gen_speed_hs,gen_speed_op"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    command: str
    system_path: str | None = None
    observable: str | None = None
    observable_b: str | None = None
    t_max: float = 1.0
    steps: int = 1000
    bounds: list = field(default_factory=lambda: ["ALL"])
    fmt: str = "csv"
    seed: int = 42
    hbar: float | None = None
    tol: float = DEFAULT_TOL
    trials: int = 100
    scenario: str | None = None
    workers: int | None = None


def _f12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# bound evaluation on a parsed system


def _is_self_inverse(O: np.ndarray, tol: float) -> bool:
    return bool(np.abs(O @ O - np.eye(O.shape[0])).max() <= max(tol, 1e-9))


def _is_projector(O: np.ndarray, tol: float) -> bool:
    return bool(np.abs(O @ O - O).max() <= max(tol, 1e-9))


def _candidate_bounds(spec: SystemSpec, cfg: RunConfig, O: np.ndarray) -> list[str]:
    pure = spec.initial_state.is_pure()
    if spec.kind == "unitary":
        delta_H = float(np.sqrt(variance(spec.hamiltonian, spec.initial_state, cfg.tol)))
        ids = ["PURITY_HS", "GENERATOR_HS", "STATE_INDEP"]
        if delta_H > 1e-9:
            ids.insert(0, "MT_INTEGRAL")
            if _is_self_inverse(O, cfg.tol):
                ids.insert(1, "SELF_INVERSE")
            if _is_projector(O, cfg.tol):
                ids.insert(1, "STATE_MT")
        if pure:
            ids += ["MIN_NORM", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED"]
            if cfg.observable_b:
                ids.append("COMM_CLOSED")
        return ids
    if spec.kind == "lindblad":
        ids = ["GENERATOR_HS", "DELCAMPO", "STATE_INDEP"]
        if pure:
            ids.append("CORR_OPEN")
            if cfg.observable_b:
                ids.append("COMM_OPEN")
        return ids
    return ["KRAUS"]


def _effective_hbar(spec: SystemSpec, cfg: RunConfig) -> float:
    if cfg.hbar is None:
        return spec.hbar
    if spec.kind == "kraus":
        raise ValidationError("--hbar does not apply to a kraus system: its Kraus family has no hbar")
    return cfg.hbar


def _evolve(spec: SystemSpec, cfg: RunConfig, O: np.ndarray, hbar: float):
    rho = spec.initial_state
    grid = TimeGrid(0.0, cfg.t_max, cfg.steps)
    if spec.kind == "unitary":
        return evolve_unitary_heisenberg(O, spec.hamiltonian, rho, grid, hbar=hbar, tol=cfg.tol)
    if spec.kind == "lindblad":
        return evolve_lindblad_heisenberg(O, spec.generator(hbar), rho, grid, tol=cfg.tol)
    return evolve_kraus_heisenberg(O, spec.generator(), rho, grid, tol=cfg.tol)


def _evaluate_bounds(spec: SystemSpec, cfg: RunConfig, requested: list[str]) -> list[bounds.BoundReport]:
    O = spec.observable(cfg.observable)
    hbar = _effective_hbar(spec, cfg)
    rho = spec.initial_state
    candidates = _candidate_bounds(spec, cfg, O)

    if requested == ["ALL"]:
        wanted = candidates
    else:
        unknown = [b for b in requested if b not in bounds.BOUND_IDS]
        if unknown:
            raise ValidationError(f"unknown bound id(s): {', '.join(unknown)}")
        bad = [b for b in requested if b not in candidates]
        if bad:
            raise ValidationError(
                f"bound(s) not applicable to this {spec.kind} system/observable: {', '.join(bad)}"
            )
        wanted = requested

    traj = _evolve(spec, cfg, O, hbar)
    grid = traj.grid
    e0, eT = float(traj.expect[0]), float(traj.expect[-1])
    T = grid.duration
    battery = None
    reports = []
    for bid in wanted:
        if bid == "MT_INTEGRAL":
            delta_H = float(np.sqrt(variance(spec.hamiltonian, rho, cfg.tol)))
            reports.append(bounds.oqsl_mt_integral(traj, delta_H, hbar=hbar))
        elif bid == "SELF_INVERSE":
            delta_H = float(np.sqrt(variance(spec.hamiltonian, rho, cfg.tol)))
            reports.append(bounds.oqsl_self_inverse(e0, eT, delta_H, T, hbar=hbar, tol=cfg.tol))
        elif bid == "STATE_MT":
            delta_H = float(np.sqrt(variance(spec.hamiltonian, rho, cfg.tol)))
            p0 = float(np.clip(e0, 0.0, 1.0))
            pT = float(np.clip(eT, 0.0, 1.0))
            reports.append(bounds.state_qsl_projector(p0, pT, delta_H, T, hbar=hbar, tol=cfg.tol))
        elif bid == "PURITY_HS":
            reports.append(
                bounds.oqsl_purity_hs(e0, eT, rho, hs_norm(O @ spec.hamiltonian), T, hbar=hbar)
            )
        elif bid == "MIN_NORM":
            prod = O @ spec.hamiltonian
            reports.append(
                bounds.oqsl_min_norm(e0, eT, op_norm(prod), tr_norm(prod), T, hbar=hbar)
            )
        elif bid == "GENERATOR_HS":
            reports.append(bounds.oqsl_generator_hs(traj, rho))
        elif bid == "DELCAMPO":
            gen = spec.generator(hbar)
            states = evolve_lindblad_schrodinger(rho, gen, grid, tol=cfg.tol)
            lrho0_hs2 = hs_norm(lindblad_apply(gen, rho.matrix, 0.0)) ** 2
            reports.append(bounds.qsl_delcampo(rho, states[-1], lrho0_hs2, T))
        elif bid == "KRAUS":
            reports.append(bounds.oqsl_kraus(traj, rho))
        elif bid == "STATE_INDEP":
            reports.append(bounds.oqsl_state_independent(O, traj))
        elif bid in ("BATTERY_CT1", "BATTERY_CT2"):
            if battery is None:
                # the named observable is the battery Hamiltonian and the file Hamiltonian
                # the total drive: traj is the battery's trajectory, their difference the field
                battery = bounds._battery_core(traj, O, spec.hamiltonian - O, rho, hbar, cfg.tol)
            reports.append(battery[0] if bid == "BATTERY_CT1" else battery[1])
        elif bid == "CORR_CLOSED":
            trace = bounds.two_time_correlation(O, traj, rho, tol=cfg.tol)
            reports.append(
                bounds.corr_qsl(trace, op_norm(O), traj.gen_speed_op * hbar, hbar=hbar, kind="closed")
            )
        elif bid == "CORR_OPEN":
            trace = bounds.two_time_correlation(O, traj, rho, tol=cfg.tol)
            reports.append(
                bounds.corr_qsl(trace, op_norm(O), traj.gen_speed_op, hbar=hbar, kind="open")
            )
        elif bid in ("COMM_CLOSED", "COMM_OPEN"):
            B = spec.observable(cfg.observable_b)
            kind = "closed" if bid == "COMM_CLOSED" else "open"
            reports.append(bounds.commutator_qsl(B, traj, rho, hbar=hbar, kind=kind))
        else:
            raise ValidationError(f"unknown bound id {bid!r}")
    return reports


# ---------------------------------------------------------------------------
# commands


def _read_system(cfg: RunConfig) -> SystemSpec:
    if not cfg.system_path:
        raise ValidationError("missing --system file path")
    path = Path(cfg.system_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read system file: {exc}") from exc
    try:
        return parse_system(text, tol=cfg.tol)
    except ParseError as exc:
        raise ParseError(exc.diagnostics) from exc


def cmd_bound(cfg: RunConfig, out, err) -> int:
    try:
        spec = _read_system(cfg)
    except ParseError as exc:
        print(exc.render(cfg.system_path or "<sysdl>"), file=err)
        return EXIT_INPUT
    if not cfg.observable:
        print("bound: missing --observable name", file=err)
        return EXIT_INPUT
    if cfg.observable not in spec.observables:
        print(
            f"bound: unknown observable {cfg.observable!r}; "
            f"declared: {', '.join(sorted(spec.observables)) or 'none'}",
            file=err,
        )
        return EXIT_INPUT
    if cfg.observable_b and cfg.observable_b not in spec.observables:
        print(f"bound: unknown observable {cfg.observable_b!r}", file=err)
        return EXIT_INPUT
    reports = _evaluate_bounds(spec, cfg, cfg.bounds)
    if cfg.fmt == "json":
        payload = {
            "schema": "oqsl.bound/v1",
            "system": spec.metadata.get("source_digest", ""),
            "observable": cfg.observable,
            "kind": spec.kind,
            "T": cfg.t_max,
            "steps": cfg.steps,
            "reports": [
                {
                    "bound_id": r.bound_id,
                    "T": r.T,
                    "T_qsl": r.T_qsl,
                    "valid": r.valid,
                    "inputs_digest": r.inputs_digest,
                    "details": r.details,
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(BOUND_CSV_HEADER, file=out)
        for r in reports:
            print(f"{r.bound_id},{_f12(r.T)},{_f12(r.T_qsl)},{str(r.valid).lower()}", file=out)
    return EXIT_OK if all(r.valid for r in reports) else EXIT_NUMERIC


def cmd_evolve(cfg: RunConfig, out, err) -> int:
    try:
        spec = _read_system(cfg)
    except ParseError as exc:
        print(exc.render(cfg.system_path or "<sysdl>"), file=err)
        return EXIT_INPUT
    if not cfg.observable or cfg.observable not in spec.observables:
        print(f"evolve: unknown or missing observable {cfg.observable!r}", file=err)
        return EXIT_INPUT
    traj = _evolve(spec, cfg, spec.observable(cfg.observable), _effective_hbar(spec, cfg))
    times = traj.grid.times()
    if cfg.fmt == "json":
        payload = {
            "schema": "oqsl.evolve/v1",
            "system": spec.metadata.get("source_digest", ""),
            "observable": cfg.observable,
            "kind": spec.kind,
            "t": times.tolist(),
            "expect": traj.expect.tolist(),
            "stddev": traj.stddev.tolist(),
            "gen_speed_hs": traj.gen_speed_hs.tolist(),
            "gen_speed_op": traj.gen_speed_op.tolist(),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(EVOLVE_CSV_HEADER, file=out)
        for i, t in enumerate(times):
            row = (times[i], traj.expect[i], traj.stddev[i], traj.gen_speed_hs[i], traj.gen_speed_op[i])
            print(",".join(_f12(float(v)) for v in row), file=out)
    return EXIT_OK


def cmd_scenario(cfg: RunConfig, out, err) -> int:
    if cfg.scenario not in scenarios.SCENARIOS:
        print(
            f"scenario: unknown scenario {cfg.scenario!r}; "
            f"available: {', '.join(sorted(scenarios.SCENARIOS))}",
            file=err,
        )
        return EXIT_INPUT
    result = scenarios.run_scenario(cfg.scenario)
    print(result.to_json() if cfg.fmt == "json" else result.to_csv(), end="", file=out)
    return EXIT_OK if result.passed else EXIT_NUMERIC


def cmd_audit(cfg: RunConfig, out, err) -> int:
    if cfg.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {cfg.trials}")
    summary = audit_mod.run_audit(
        n_qubit=cfg.trials,
        n_qutrit=cfg.trials // 2,
        seed=cfg.seed,
        tol=1e-6,
        max_workers=cfg.workers,
    )
    print(summary.to_json() if cfg.fmt == "json" else summary.to_csv(), end="", file=out)
    return EXIT_OK if summary.passed else EXIT_NUMERIC


def cmd_parse(cfg: RunConfig, out, err) -> int:
    try:
        spec = _read_system(cfg)
    except ParseError as exc:
        print(exc.render(cfg.system_path or "<sysdl>"), file=err)
        return EXIT_INPUT
    print(serialize_system(spec), end="", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oqsl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, system=True):
        if system:
            sp.add_argument("--system", required=True, help="path to a .sys description")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL, help="validation tolerance")

    sp = sub.add_parser("bound", help="evaluate speed-limit bounds for an observable")
    add_common(sp)
    sp.add_argument("--observable", required=True, help="observable name from the file")
    sp.add_argument("--observable-b", default=None, help="second observable for commutator bounds")
    sp.add_argument("--tmax", type=float, required=True, help="evolution horizon T")
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--bounds", default="ALL", help="comma-separated bound ids or ALL")
    sp.add_argument("--hbar", type=float, default=None, help="override the file hbar (not for kraus systems)")

    sp = sub.add_parser("evolve", help="emit the observable trajectory")
    add_common(sp)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--hbar", type=float, default=None)

    sp = sub.add_parser("scenario", help="run a built-in worked example")
    sp.add_argument("name", help="scenario name")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("audit", help="randomized validity and rate-inequality sweep")
    sp.add_argument("--trials", type=int, default=100, help="qubit trials (qutrit trials = half)")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--workers", type=int, default=None, help="worker threads (or OQSL_THREADS)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("parse", help="parse and reprint a system file canonically")
    add_common(sp)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for src, dst in (
        ("system", "system_path"),
        ("observable", "observable"),
        ("observable_b", "observable_b"),
        ("tmax", "t_max"),
        ("steps", "steps"),
        ("format", "fmt"),
        ("seed", "seed"),
        ("hbar", "hbar"),
        ("tol", "tol"),
        ("trials", "trials"),
        ("name", "scenario"),
        ("workers", "workers"),
    ):
        if hasattr(args, src) and getattr(args, src) is not None:
            setattr(cfg, dst, getattr(args, src))
    if hasattr(args, "bounds"):
        cfg.bounds = [b.strip() for b in str(args.bounds).split(",") if b.strip()]
        if not cfg.bounds:
            raise ValidationError("--bounds must name at least one bound id or ALL")
        if "ALL" in cfg.bounds:
            cfg.bounds = ["ALL"]
        else:
            unknown = [b for b in cfg.bounds if b not in bounds.BOUND_IDS]
            if unknown:
                raise ValidationError(f"unknown bound id(s): {', '.join(unknown)}")
    return cfg


COMMANDS = {
    "bound": cmd_bound,
    "evolve": cmd_evolve,
    "scenario": cmd_scenario,
    "audit": cmd_audit,
    "parse": cmd_parse,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return COMMANDS[cfg.command](cfg, out, err)
    except ParseError as exc:
        print(exc.render(), file=err)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=err)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
