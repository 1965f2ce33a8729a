"""The benchmark's workloads: the `oqsl` operations each one runs, and the
inputs it generates from the seed.

An operation is one `python -m oqsl ...` process. Each workload runs whole
rounds of the same operations, so the share of failed operations is the same
in every run, whatever the seed and however many rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SYSTEMS = Path("src/oqsl/systems")
AUDIT_TRIALS = 100
TINY_AUDIT_TRIALS = 4

# (kind, dim, bipartition of dim for the observables A and B)
DENSE_SYSTEMS = (
    ("unitary", 32, (4, 8)),
    ("unitary", 64, (8, 8)),
    ("lindblad", 16, (4, 4)),
    ("lindblad", 32, (4, 8)),
)
TINY_DENSE_SYSTEMS = (("unitary", 4, (2, 2)), ("lindblad", 4, (2, 2)))


@dataclass
class Op:
    """One `oqsl` invocation and what its checker needs to know."""

    name: str
    argv: list
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    # wall time of one round on the reference host, used only to turn
    # --seconds into a fixed number of rounds
    nominal_round_s: float
    ops: list
    warmup_argv: list


# ---------------------------------------------------------------------------
# builtin-cli: every built-in system and scenario, one process each


# (file, observable, second observable, horizon); the dephasing and
# tight-qubit horizons are the README's, the others use the CLI's default T = 1
BUILTIN_BOUNDS = (
    ("dephasing.sys", "O", None, 1.5708),
    ("kraus_dephasing.sys", "O", None, 1.5708),
    ("battery.sys", "HB", None, 1.0),
    ("qutrit_decay.sys", "N", None, 1.0),
    ("two_qubit.sys", "A", "B", 1.0),
    # exits 3 today: MT_INTEGRAL and BATTERY_CT1 overshoot T by 1.28e-6
    ("tight_qubit.sys", "O", None, 1.5707963),
)
SCENARIOS = ("tight-qubit", "dephasing", "battery-degenerate", "kraus-dephasing")


def builtin_cli(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    ops = []
    for fname, obs, obs_b, tmax in BUILTIN_BOUNDS:
        argv = ["bound", "--system", str(SYSTEMS / fname), "--observable", obs]
        if obs_b:
            argv += ["--observable-b", obs_b]
        argv += ["--tmax", repr(tmax), "--bounds", "ALL", "--format", "json"]
        ops.append(Op(f"bound:{fname}", argv, "builtin_bound", {"system": fname, "T": tmax}))
    for name in SCENARIOS:
        ops.append(Op(f"scenario:{name}", ["scenario", name, "--format", "json"], "scenario", {"scenario": name}))
    # the seed only orders the operations; the inputs are fixed files
    random.Random(seed).shuffle(ops)
    return Workload(8.0, ops, _warmup(SYSTEMS / "two_qubit.sys"))


# ---------------------------------------------------------------------------
# dense-bound: generated matrix-literal systems at the sizes the kernels feel


def _random_hermitian(rng, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (G + G.conj().T) / 2.0
    return H / np.linalg.norm(H, 2)


def _literal(z: complex) -> str:
    z = complex(z)  # numpy scalars repr with their type name
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _matrix_literal(M: np.ndarray) -> str:
    return "[" + ", ".join("[" + ", ".join(_literal(z) for z in row) + "]" for row in M) + "]"


def dense_system(rng, kind: str, dim: int, split: tuple) -> dict:
    """A random system whose observables A = a (x) 1 and B = 1 (x) b act on
    different factors of dim = n * m, so [A, B] = 0 at t = 0 as the
    commutator bounds require. The state is pure."""
    n, m = split
    H = _random_hermitian(rng, dim)
    A = np.kron(_random_hermitian(rng, n), np.eye(m))
    B = np.kron(np.eye(n), _random_hermitian(rng, m))
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ket /= np.linalg.norm(ket)
    jumps = []
    if kind == "lindblad":
        for _ in range(2):
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            jumps.append((0.5 * G / np.linalg.norm(G, 2), float(rng.uniform(0.1, 1.0))))
    return {"kind": kind, "dim": dim, "H": H, "A": A, "B": B, "ket": ket, "jumps": jumps}


def sys_text(system: dict) -> str:
    lines = [
        "[system]",
        f"dim = {system['dim']}",
        f"kind = {system['kind']}",
        "",
        "[hamiltonian]",
        f"matrix = {_matrix_literal(system['H'])}",
        "",
        "[state]",
        "ket = [" + ", ".join(_literal(z) for z in system["ket"]) + "]",
    ]
    for L, rate in system["jumps"]:
        lines += ["", "[jump]", f"matrix = {_matrix_literal(L)}", f"rate = {rate!r}"]
    for name in ("A", "B"):
        lines += ["", f"[observable {name}]", f"matrix = {_matrix_literal(system[name])}"]
    return "\n".join(lines) + "\n"


def dense_bound(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    ops = []
    rng = np.random.default_rng(seed)
    for kind, dim, split in TINY_DENSE_SYSTEMS if tiny else DENSE_SYSTEMS:
        system = dense_system(rng, kind, dim, split)
        path = workdir / f"{kind}_{dim}.sys"
        path.write_text(sys_text(system), encoding="utf-8")
        argv = [
            "bound", "--system", str(path), "--bounds", "ALL", "--observable", "A",
            "--observable-b", "B", "--tmax", "1", "--format", "json",
        ]
        ops.append(Op(f"bound:{kind}_{dim}", argv, "dense_bound", {"system": system, "T": 1.0}))
    largest = max(workdir.glob("*.sys"), key=lambda p: p.stat().st_size)
    return Workload(15.0, ops, _warmup(largest))


# ---------------------------------------------------------------------------
# audit-sweep: thousands of tiny kernel calls behind one command


def audit_sweep(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    trials = TINY_AUDIT_TRIALS if tiny else AUDIT_TRIALS
    argv = ["audit", "--trials", str(trials), "--seed", str(seed), "--format", "json"]
    ops = [Op("audit", argv, "audit", {"trials": trials, "seed": seed})]
    return Workload(20.0, ops, _warmup(SYSTEMS / "two_qubit.sys"))


def _warmup(path: Path) -> list:
    # imports oqsl.cli (writing its .pyc files) and reads the largest input
    return ["parse", "--system", str(path)]


WORKLOADS = {"builtin-cli": builtin_cli, "dense-bound": dense_bound, "audit-sweep": audit_sweep}
