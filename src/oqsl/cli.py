"""Command-line surface: parse system files, evolve observables, evaluate
bounds, run built-in scenarios, and drive the randomized audit.

Exit codes: 0 on success (and all validity/pass flags true), 2 on input or
parse errors and on an input too large for the memory at hand, 3 on numeric
failures (including failed validity checks), and 1 from the process entry
when stdout is closed before the output is written.
Results go to stdout, as CSV or JSON through :func:`write_result` (``parse``
reprints the system instead); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds
from .dynamics import (
    READS,
    LindbladGenerator,
    TimeGrid,
    UnitaryGenerator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,  # not called here, but bench/layers.py wraps it in this module
    evolve_unitary_heisenberg,
)
from .linalg import DEFAULT_TOL, NumericError, ValidationError, op_norm
from .sysdl import ParseError, SystemSpec, parse_system, serialize_system

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
# the smallest --tol accepted: checks against a tolerance of 0 fail on 1-ulp rounding
TOL_FLOOR = 1e-12


def write_result(out, fmt: str, columns, rows, /, **payload) -> None:
    """Print a command's result to ``out``: for ``fmt`` csv, the header
    ``columns`` over one line per row, a mapping read at the columns, whose
    booleans print in lower case and floats as ``.12g``; for json,
    ``payload`` on one line with sorted keys."""
    if fmt == "json":
        import json  # here, so that a CSV run does not load it

        print(json.dumps(payload, sort_keys=True), file=out)
        return
    print(",".join(columns), file=out)
    for row in rows:
        cells = (row[c] for c in columns)
        print(",".join(str(v).lower() if isinstance(v, bool) else f"{v:.12g}" if isinstance(v, float) else str(v)
                       for v in cells), file=out)


# ---------------------------------------------------------------------------
# bound evaluation on a parsed system


def _generator(spec: SystemSpec, args: argparse.Namespace):
    """The system's generator, with --hbar in place of the file's when given."""
    gen = spec.generator
    if args.hbar is None:
        return gen
    if gen.kind == "kraus":
        raise ValidationError("--hbar does not apply to a kraus system: its Kraus family has no hbar")
    if gen.kind == "unitary":
        return UnitaryGenerator(gen.H, args.hbar, gen.tol)
    return LindbladGenerator(gen.H, gen.jumps, args.hbar, gen.tol)


def _evolve(O: np.ndarray, gen, rho, grid: TimeGrid, probes=(), reads=READS):
    """The Heisenberg trajectory of O under the generator gen, keeping the
    series tr(O(t) M) of the probe matrices M and the series ``reads`` (by
    default every one, as ``evolve`` prints). The three names are one
    function, ``dynamics.evolve``, which reads the dynamics from gen; this
    dispatch on gen's kind only calls it under its kind's name, which the
    traced benchmark wraps in this module (bench/layers.py) to time each
    kind on its own."""
    if gen.kind == "unitary":
        return evolve_unitary_heisenberg(O, gen, rho, grid, probes=probes, reads=reads)
    if gen.kind == "lindblad":
        return evolve_lindblad_heisenberg(O, gen, rho, grid, probes=probes, reads=reads)
    return evolve_kraus_heisenberg(O, gen, rho, grid, probes=probes, reads=reads)


def _context(spec: SystemSpec, args: argparse.Namespace, ids: list[str] | None) -> bounds.EvalContext:
    """The evaluation context of the named observable and the bound selection
    ``ids``, --observable-b checked against it; nothing evolves yet."""
    O = spec.observable(args.observable)
    gen = _generator(spec, args)
    B = spec.observable(args.observable_b) if args.observable_b else None
    OO, slot_tol = O @ O, max(args.tol, 1e-9)
    ctx = bounds.EvalContext(
        gen,
        TimeGrid(args.tmax, args.steps),
        O,
        spec.initial_state,
        _evolve,
        B=B,
        self_inverse=O if np.abs(OO - np.eye(spec.dim)).max() <= slot_tol else None,
        projector=O if np.abs(OO - O).max() <= slot_tol * op_norm(O) else None,
        final_state=True,
        ids=ids,
    )
    if B is not None and not any(s.applies(ctx) for s in bounds.REGISTRY if "B" in s.needs):
        state = "pure" if ctx.rho.is_pure() else "mixed"
        raise ValidationError(
            "--observable-b feeds only COMM_CLOSED/COMM_OPEN, which need a pure state under unitary "
            f"or lindblad dynamics; neither applies to this {ctx.kind} system with a {state} state"
        )
    if B is not None and not any("B" in s.needs for s in ctx.selected):
        raise ValidationError("--observable-b feeds only COMM_CLOSED/COMM_OPEN, and --bounds selects neither")
    return ctx


def _note_unresolved(traj, err) -> None:
    """A stderr note when a unitary grid's samples alias: h * (max w - min w)
    >= pi for its step h and the frequencies w of H / hbar."""
    spread = float(traj.freqs[-1] - traj.freqs[0]) if traj.kind == "unitary" else 0.0
    if traj.grid.h * spread >= np.pi:
        print(f"note: the step h = {traj.grid.h:.6g} does not resolve the dynamics: h times the frequency "
              f"spread {spread:.6g} of H / hbar is at least pi, so the samples alias", file=err)


def _bound_ids(text: str) -> list[str] | None:
    """The bound ids that --bounds names, in order, or None for ALL."""
    ids = [b.strip() for b in text.split(",") if b.strip()]
    if not ids:
        raise ValidationError("--bounds must name at least one bound id or ALL")
    unknown = [b for b in ids if b != "ALL" and b not in bounds.BOUND_IDS]
    if unknown:
        raise ValidationError(f"unknown bound id(s): {', '.join(unknown)}")
    if "ALL" in ids and len(ids) > 1:
        raise ValidationError("--bounds ALL names every bound: name no bound id beside it")
    return None if "ALL" in ids else ids


# ---------------------------------------------------------------------------
# commands


def _read_system(args: argparse.Namespace) -> SystemSpec:
    if not args.system:
        raise ValidationError("missing --system file path")
    try:
        with open(args.system, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError
        raise ValidationError(f"cannot read system file: {exc}") from exc
    return parse_system(text, tol=args.tol)


def cmd_bound(args: argparse.Namespace, out, err) -> int:
    ids = _bound_ids(args.bounds)
    spec = _read_system(args)
    ctx = _context(spec, args, ids)
    if ctx.kind == "unitary":
        _note_unresolved(ctx.traj, err)
    reports = bounds.evaluate_all(ctx)
    rows = [{"bound_id": r.bound_id, "T": r.T, "T_qsl": r.T_qsl, "valid": r.valid} for r in reports]
    if args.format == "json":  # only JSON hashes the inputs that each bound read
        for row, r in zip(rows, reports):
            row.update(inputs_digest=r.inputs_digest, details=r.details)
    write_result(
        out, args.format, ("bound_id", "T", "T_qsl", "valid"), rows, schema="oqsl.bound/v1",
        system=spec.metadata.get("source_digest", ""), observable=args.observable, kind=ctx.kind,
        T=args.tmax, steps=args.steps, reports=rows,
    )
    return EXIT_OK if all(r.valid for r in reports) else EXIT_NUMERIC


def cmd_evolve(args: argparse.Namespace, out, err) -> int:
    spec = _read_system(args)
    O = spec.observable(args.observable)
    gen = _generator(spec, args)
    traj = _evolve(O, gen, spec.initial_state, TimeGrid(args.tmax, args.steps))
    _note_unresolved(traj, err)
    series = {name: getattr(traj, name).tolist() for name in ("expect", "stddev", "gen_speed_hs", "gen_speed_op")}
    series = {"t": traj.grid.times().tolist(), **series}
    rows = (dict(zip(series, row)) for row in zip(*series.values()))
    write_result(
        out, args.format, tuple(series), rows, schema="oqsl.evolve/v1",
        system=spec.metadata.get("source_digest", ""), observable=args.observable, kind=gen.kind, **series,
    )
    return EXIT_OK


def cmd_scenario(args: argparse.Namespace, out, err) -> int:
    from . import scenarios  # here, so that no other command imports it

    result = scenarios.run_scenario(args.name)
    write_result(
        out, args.format, result.columns, result.rows, schema="oqsl.scenario/v1", scenario=result.scenario_id,
        tolerance=result.tolerance, passed=result.passed, columns=result.columns, rows=result.rows,
    )
    return EXIT_OK if result.passed else EXIT_NUMERIC


def cmd_audit(args: argparse.Namespace, out, err) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    from . import audit as audit_mod  # here, so that no other command imports it

    summary = audit_mod.run_audit(n_qubit=args.trials, n_qutrit=args.trials // 2, seed=args.seed)
    rows = [vars(r) for r in summary.rows]
    write_result(
        out, args.format, ("check", "kind", "max_violation", "trials"), rows, schema="oqsl.audit/v1",
        seed=summary.seed, tolerance=audit_mod.TOL, n_qubit=summary.n_qubit, n_qutrit=summary.n_qutrit,
        passed=summary.passed, rows=rows,
    )
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

    def add_common(sp):
        sp.add_argument("--system", required=True, help="path to a .sys description")
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

    sp = sub.add_parser("audit", help="randomized validity and rate-inequality sweep")
    sp.add_argument("--trials", type=int, default=100, help="qubit trials (qutrit trials = half)")
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("parse", help="parse and reprint a system file canonically")
    add_common(sp)
    for name, sp in sub.choices.items():  # parse prints the system itself, not a table
        if name != "parse":
            sp.add_argument("--format", choices=("csv", "json"), default="csv", help="csv or json output")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=err)
        return EXIT_INPUT

