"""Command-line surface: parse system files, evolve observables, evaluate
bounds, run built-in scenarios, and drive the randomized audit.

Exit codes: 0 on success (and all validity/pass flags true), 2 on input or
parse errors, 3 on numeric failures (including failed validity checks), and
1 from the process entry when stdout is closed before the output is written.
Results go to stdout as CSV or JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .dynamics import (
    TimeGrid,
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
# the smallest --tol accepted: checks against a tolerance of 0 fail on 1-ulp rounding
TOL_FLOOR = 1e-12


def _f12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# bound evaluation on a parsed system


def _effective_hbar(spec: SystemSpec, args: argparse.Namespace) -> float:
    if args.hbar is None:
        return spec.hbar
    if spec.kind == "kraus":
        raise ValidationError("--hbar does not apply to a kraus system: its Kraus family has no hbar")
    return args.hbar


def _evolve(O: np.ndarray, gen, rho, grid: TimeGrid, tol: float, probes=()):
    """The Heisenberg trajectory of O under the generator gen, keeping the
    series tr(O(t) M) of the probe matrices M: the evolution of gen's kind,
    each of which takes these arguments."""
    if gen.kind == "unitary":
        return evolve_unitary_heisenberg(O, gen, rho, grid, tol, probes=probes)
    if gen.kind == "lindblad":
        return evolve_lindblad_heisenberg(O, gen, rho, grid, tol, probes=probes)
    return evolve_kraus_heisenberg(O, gen, rho, grid, tol, probes=probes)


def _context(spec: SystemSpec, args: argparse.Namespace, ids: list[str] | None) -> bounds.EvalContext:
    """The evaluation context of the named observable and the bound selection
    ``ids``, --observable-b checked against it; nothing evolves yet."""
    O = spec.observable(args.observable)
    gen = spec.generator(_effective_hbar(spec, args), args.tol)
    B = spec.observable(args.observable_b) if args.observable_b else None
    OO, slot_tol = O @ O, max(args.tol, 1e-9)
    ctx = bounds.EvalContext(
        gen,
        TimeGrid(0.0, args.tmax, args.steps),
        O,
        spec.initial_state,
        _evolve,
        tol=args.tol,
        B=B,
        self_inverse=O if np.abs(OO - np.eye(spec.dim)).max() <= slot_tol else None,
        projector=O if np.abs(OO - O).max() <= slot_tol else None,
        final_state=lindblad_final_state if gen.kind == "lindblad" else None,
        ids=ids,
    )
    if B is not None and not any(s.applies(ctx) for s in bounds.REGISTRY if "B" in s.needs):
        state = "pure" if ctx.rho.is_pure() else "mixed"
        raise ValidationError(
            "--observable-b feeds only COMM_CLOSED/COMM_OPEN, which need a pure state under unitary "
            f"or lindblad dynamics; neither applies to this {ctx.kind} system with a {state} state"
        )
    if B is not None and not any("B" in s.needs for s in bounds.select(ctx)):
        raise ValidationError("--observable-b feeds only COMM_CLOSED/COMM_OPEN, and --bounds selects neither")
    return ctx


def _bound_ids(text: str) -> list[str] | None:
    """The bound ids that --bounds names, in order, or None for ALL."""
    ids = [b.strip() for b in text.split(",") if b.strip()]
    if not ids:
        raise ValidationError("--bounds must name at least one bound id or ALL")
    unknown = [b for b in ids if b != "ALL" and b not in bounds.BOUND_IDS]
    if unknown:
        raise ValidationError(f"unknown bound id(s): {', '.join(unknown)}")
    return None if "ALL" in ids else ids


# ---------------------------------------------------------------------------
# commands


def _read_system(args: argparse.Namespace) -> SystemSpec:
    if not args.system:
        raise ValidationError("missing --system file path")
    try:
        text = Path(args.system).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read system file: {exc}") from exc
    return parse_system(text, tol=args.tol)


def cmd_bound(args: argparse.Namespace, out, err) -> int:
    ids = _bound_ids(args.bounds)
    spec = _read_system(args)
    reports = bounds.evaluate_all(_context(spec, args, ids))
    if args.format == "json":
        payload = {
            "schema": "oqsl.bound/v1",
            "system": spec.metadata.get("source_digest", ""),
            "observable": args.observable,
            "kind": spec.kind,
            "T": args.tmax,
            "steps": args.steps,
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


def cmd_evolve(args: argparse.Namespace, out, err) -> int:
    spec = _read_system(args)
    O = spec.observable(args.observable)
    gen = spec.generator(_effective_hbar(spec, args), args.tol)
    traj = _evolve(O, gen, spec.initial_state, TimeGrid(0.0, args.tmax, args.steps), args.tol)
    times = traj.grid.times()
    if args.format == "json":
        payload = {
            "schema": "oqsl.evolve/v1",
            "system": spec.metadata.get("source_digest", ""),
            "observable": args.observable,
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


def cmd_scenario(args: argparse.Namespace, out, err) -> int:
    from . import scenarios  # here, so that no other command imports it

    result = scenarios.run_scenario(args.name)
    print(result.to_json() if args.format == "json" else result.to_csv(), end="", file=out)
    return EXIT_OK if result.passed else EXIT_NUMERIC


def cmd_audit(args: argparse.Namespace, out, err) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    from . import audit as audit_mod  # here, so that no other command imports it

    summary = audit_mod.run_audit(n_qubit=args.trials, n_qutrit=args.trials // 2, seed=args.seed, tol=1e-6)
    print(summary.to_json() if args.format == "json" else summary.to_csv(), end="", file=out)
    return EXIT_OK if summary.passed else EXIT_NUMERIC


def cmd_parse(args: argparse.Namespace, out, err) -> int:
    spec = _read_system(args)
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
        tol = getattr(args, "tol", DEFAULT_TOL)  # scenario and audit take no --tol
        if not (np.isfinite(tol) and tol >= TOL_FLOOR):
            raise ValidationError(f"--tol must be a finite number of at least {TOL_FLOOR!r}, got {tol!r}")
        return COMMANDS[args.command](args, out, err)
    except ParseError as exc:
        print(exc.render(getattr(args, "system", "<sysdl>")), file=err)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=err)
        return EXIT_NUMERIC

