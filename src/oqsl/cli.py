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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import bounds, scenarios
from .dynamics import (
    LindbladGenerator,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,  # not called here, but bench/layers.py wraps it in this module
    evolve_unitary_heisenberg,
    lindblad_final_state,
)
from .linalg import DEFAULT_TOL, NumericError, ValidationError
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


def _f12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# bound evaluation on a parsed system


def _effective_hbar(spec: SystemSpec, cfg: RunConfig) -> float:
    if cfg.hbar is None:
        return spec.hbar
    if spec.kind == "kraus":
        raise ValidationError("--hbar does not apply to a kraus system: its Kraus family has no hbar")
    return cfg.hbar


def _evolve(gen, O: np.ndarray, rho, grid: TimeGrid, tol: float, probes=()):
    """The Heisenberg trajectory of O under the generator gen; a Lindblad
    one keeps the series tr(O(t) M) of the probe matrices M."""
    if isinstance(gen, UnitaryGenerator):
        return evolve_unitary_heisenberg(O, gen.H, rho, grid, hbar=gen.hbar, tol=tol)
    if isinstance(gen, LindbladGenerator):
        return evolve_lindblad_heisenberg(O, gen, rho, grid, tol=tol, probes=probes)
    return evolve_kraus_heisenberg(O, gen, rho, grid, tol=tol)


def _context(spec: SystemSpec, cfg: RunConfig) -> bounds.EvalContext:
    """The evaluation context of the named observable; nothing evolves yet."""
    O = spec.observable(cfg.observable)
    hbar = _effective_hbar(spec, cfg)
    gen = spec.generator(hbar, cfg.tol)
    rho = spec.initial_state
    grid = TimeGrid(0.0, cfg.t_max, cfg.steps)
    B = spec.observable(cfg.observable_b) if cfg.observable_b else None
    OO, slot_tol = O @ O, max(cfg.tol, 1e-9)
    final_state, probes = None, ()
    if spec.kind == "lindblad":
        probes = bounds.declared_probes(O, B, rho)

        def final_state():
            return lindblad_final_state(rho, gen, grid, tol=cfg.tol)

    return bounds.EvalContext(
        kind=spec.kind,
        grid=grid,
        O=O,
        rho=rho,
        evolve=lambda: _evolve(gen, O, rho, grid, cfg.tol, probes),
        H=spec.hamiltonian,
        hbar=hbar,
        tol=cfg.tol,
        B=B,
        self_inverse=O if np.abs(OO - np.eye(spec.dim)).max() <= slot_tol else None,
        projector=O if np.abs(OO - O).max() <= slot_tol else None,
        final_state=final_state,
        generator=gen,
    )


def _evaluate_bounds(spec: SystemSpec, cfg: RunConfig, requested: list[str]) -> list[bounds.BoundReport]:
    ctx = _context(spec, cfg)
    if ctx.B is not None and not any("B" in s.needs for s in bounds.select(ctx)):
        state = "pure" if ctx.rho.is_pure() else "mixed"
        raise ValidationError(
            "--observable-b feeds only COMM_CLOSED/COMM_OPEN, which need a pure state under unitary "
            f"or lindblad dynamics; neither applies to this {spec.kind} system with a {state} state"
        )
    return bounds.evaluate_all(ctx, None if requested == ["ALL"] else requested)


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
    return parse_system(text, tol=cfg.tol)


def cmd_bound(cfg: RunConfig, out, err) -> int:
    spec = _read_system(cfg)
    reports = _evaluate_bounds(spec, cfg, cfg.bounds)
    if cfg.fmt == "json":
        payload = {
            "schema": "oqsl.bound/v1",
            "system": spec.metadata.get("source_digest", ""),
            "observable": cfg.observable,
            "kind": spec.kind,
            "T": cfg.t_max,
            "steps": cfg.steps,
            "reports": [asdict(r) for r in reports],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(BOUND_CSV_HEADER, file=out)
        for r in reports:
            print(f"{r.bound_id},{_f12(r.T)},{_f12(r.T_qsl)},{str(r.valid).lower()}", file=out)
    return EXIT_OK if all(r.valid for r in reports) else EXIT_NUMERIC


def cmd_evolve(cfg: RunConfig, out, err) -> int:
    spec = _read_system(cfg)
    O = spec.observable(cfg.observable)
    gen = spec.generator(_effective_hbar(spec, cfg), cfg.tol)
    traj = _evolve(gen, O, spec.initial_state, TimeGrid(0.0, cfg.t_max, cfg.steps), cfg.tol)
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
    result = scenarios.run_scenario(cfg.scenario)
    print(result.to_json() if cfg.fmt == "json" else result.to_csv(), end="", file=out)
    return EXIT_OK if result.passed else EXIT_NUMERIC


def cmd_audit(cfg: RunConfig, out, err) -> int:
    if cfg.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {cfg.seed}")
    summary = audit_mod.run_audit(n_qubit=cfg.trials, n_qutrit=cfg.trials // 2, seed=cfg.seed, tol=1e-6)
    print(summary.to_json() if cfg.fmt == "json" else summary.to_csv(), end="", file=out)
    return EXIT_OK if summary.passed else EXIT_NUMERIC


def cmd_parse(cfg: RunConfig, out, err) -> int:
    spec = _read_system(cfg)
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
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("parse", help="parse and reprint a system file canonically")
    add_common(sp)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    renamed = {"system": "system_path", "tmax": "t_max", "format": "fmt", "name": "scenario"}
    cfg = RunConfig(**{renamed.get(k, k): v for k, v in vars(args).items() if v is not None and k != "bounds"})
    if not (np.isfinite(cfg.tol) and cfg.tol >= 0):
        raise ValidationError(f"--tol must be a nonnegative finite number, got {cfg.tol!r}")
    if hasattr(args, "bounds"):
        cfg.bounds = [b.strip() for b in str(args.bounds).split(",") if b.strip()]
        if not cfg.bounds:
            raise ValidationError("--bounds must name at least one bound id or ALL")
        unknown = [b for b in cfg.bounds if b != "ALL" and b not in bounds.BOUND_IDS]
        if unknown:
            raise ValidationError(f"unknown bound id(s): {', '.join(unknown)}")
        if "ALL" in cfg.bounds:
            cfg.bounds = ["ALL"]
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return COMMANDS[cfg.command](cfg, out, err)
    except ParseError as exc:
        print(exc.render(getattr(args, "system", "<sysdl>")), file=err)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=err)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
