#!/usr/bin/env python3
"""Print the sha256 of the CLI's output for a fixed set of commands: the
``--format json`` output of ``bound --bounds ALL`` on the six built-in
systems, of the four scenarios, of ``audit --trials 100 --seed 1`` and of
``evolve`` on ``qutrit_decay.sys`` and on ``kraus_dephasing.sys`` (whose
per-sample Kraus speeds no bound prints), the latter also at KRAUS_STEPS, so
that the Kraus kernel streams several chunks and a change at their
boundaries shows, the canonical reprint of ``parse`` on
the six built-in systems, and the ``--format json`` output of
``bound --bounds ALL`` and ``evolve`` and the reprint of ``parse`` on a
d = 17 Lindblad system, and its ``evolve`` at ``--hbar`` STEPPER_HBAR. Of
the built-in Lindblad commands, the trajectories of ``dephasing.sys``, the
dephasing scenario and the audit take the Lindblad kernel's Taylor cells
too, but at d = 2 and 3 on grids whose cells run across no chunk boundary,
so this one is written from a fixed seed into a temporary directory;
``evolve`` prints every sample, so a change at the kernel's chunk
boundaries shows, and ``parse`` reads and reprints its ~1,500 random matrix
entries. At 1000 steps its cells of 461 steps each run across two or three
of the kernel's chunks of 226 samples, so a cell reads later rows from the
terms it holds; at STEPPER_HBAR (h beta = 0.2) they are 4 steps long, and
the chunks that start at samples 226 and 678 start inside one, so that a
change to how the stepper picks, sums or holds its terms shows. Then the ``--format json`` output of ``bound --bounds ALL`` on
a d = 12 Lindblad system (CELLS_FILE), also generated: a mid-sized d
between the built-in systems and d = 17.
Last, the ``--format json`` output of ``evolve`` on a d = 3 Kraus system
whose operators are tabulated on the evolve grid, also written from a fixed
seed: only a tabulated family shows how the Kraus kernel stacks operators
that it reads from a table, and its 1,000 steps span two chunks. Last, two
``bound`` runs that select a subset (SUBSETS), one unitary and one on the
d = 17 Lindblad system, so that a change to what a selection declares,
evolves or evaluates shows, and ``bound --bounds ALL`` at ``--hbar 2`` on
three systems (HBAR_FILES): every built-in file has hbar = 1, so only these
show a bound that reads the wrong hbar. Two are built in, one unitary and
one Lindblad; on the Lindblad one CORR_OPEN is 0 and B is missing, so only
the third, the d = 17 Lindblad system (with ``--observable-b B``), whose
H is nonzero and whose C(t) moves, shows a wrong hbar in the open
correlation and commutator bounds. Last, ``bound --bounds ALL`` at
``--hbar 2`` on a qubit whose A = X and B = Y do not commute, written like
the generated systems once as a unitary and once as a Lindblad system
(PAIR_FILES): every other B commutes with its A at t = 0, so only these show
a commutator bound that takes <[B, A](T)> for its change. Last,
``bound --bounds ALL`` on a random d = 4 unitary system with a pure state
(UNITARY_FILE), also written from a fixed seed: in every built-in file
H - O + O == H holds exactly, so only this one shows a battery row that
reads the charging field H - O in place of H. Last, two ``bound`` runs at
``--tol 1e-6`` (TOL_FILES) on systems that pass only at that tolerance: a
qubit whose H and O are Hermitian only within 5e-8 (``--bounds ALL``), and
a tabulated Kraus family whose completeness defect is 2e-7. Every other
command runs at the default tolerance, so only these show a check that
``--tol`` no longer reaches: its exit code turns from 0 to 2. Last, ``bound --bounds ALL`` on a random pure
unitary system whose observable is the projector of its state
(PROJECTOR_FILE), also written from a fixed seed: its O H is rank one, the
one shape where rounding can put the Hilbert-Schmidt norm of O H below its
operator norm, so that a battery row dividing by the smaller of the two
would leave MIN_NORM; and STATE_MT reads p0 = 1. Last,
``bound --bounds ALL`` on ``tight_qubit.sys`` and ``dephasing.sys`` with H
and every rate times 2^RESCALE_EXP and the horizon times 2^-RESCALE_EXP
(RESCALED), written into the temporary directory: every T_qsl / T but
those that compare dH with an absolute tolerance is that of the built-in
run, and only these show a norm whose squares underflow. Last,
``bound --bounds DELCAMPO`` on the d = 17 Lindblad system at ``--hbar``
STEPPER_HBAR: there T beta = 200.2, so rho(T) is the last sample of the
Taylor stepper on 201 steps of one series each, where every other
command's rho(T) takes a few steps. Last, ``bound --bounds ALL`` and
``evolve`` on ``qutrit_decay.sys`` on a stiff grid, ``--tmax 100 --steps
10``: its step h = 10 has h beta = 23.2, past the one series of
tau beta <= 1 that a Taylor cell takes, so only these reach the exact
propagator exp(h L) by the route of a stiff step; the other built-in
Lindblad commands reach it by cells shorter than dynamics.CELL_MIN_STEPS, on
``qutrit_decay.sys`` (430 steps) and at every rho(T) (one step).

Run it from two checkouts and diff the lines to show that a refactor leaves
every output byte-identical:

    python scripts/output_digests.py > digests.txt

A change that reorders floating-point sums moves the digests but not the
values. For it, save the outputs of each checkout and compare every number
in them to a relative tolerance:

    python scripts/output_digests.py --save old/     # in the parent checkout
    python scripts/output_digests.py --save new/     # in the changed checkout
    python scripts/output_digests.py --compare old/ new/

``--compare`` prints, per command, the largest difference of any number,
|a - b| / max(|a|, |b|, ATOL / RTOL): relative for ordinary values and
absolute (scaled by 1 / RTOL) near zero, and infinite where a NaN or an
infinity meets anything else. It exits 1 when one exceeds RTOL = 1e-12 or
when anything but a number differs. JSON outputs are compared
number by number, except their ``inputs_digest`` fields, which hash the
floats a bound read and so move with any last-digit change. The ``parse``
reprints must be identical. A key that only one output has, as after a
rename, is named on its command's line (``-`` in OLD only, ``+`` in NEW
only) and fails it, while the numbers under the keys both share are still
compared.

Each command runs as its own ``python -m oqsl`` process against the ``src/``
tree next to this script, on one BLAS thread, so that a saved output does
not depend on the host's cores.

The outputs of the committed tree are kept in ``tests/digests`` (written by
``--save tests/digests``), and ``tests/test_digests.py`` runs every command
in-process through ``oqsl.cli.main`` and compares it with them as
``--compare`` does, so a change that moves a number saves them again in the
same commit. No CSV table is saved: the test runs each command that takes
``--format`` again with ``--format csv``, in the same process, and requires
exactly the table of its JSON output.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "src" / "oqsl" / "systems"

# (file, observable, second observable, horizon)
BUILTIN_BOUNDS = (
    ("dephasing.sys", "O", None, 1.5708),
    ("kraus_dephasing.sys", "O", None, 1.5708),
    ("battery.sys", "HB", None, 1.0),
    ("qutrit_decay.sys", "N", None, 1.0),
    ("two_qubit.sys", "A", "B", 1.0),
    ("tight_qubit.sys", "O", None, 1.5707963),
)
SCENARIOS = ("tight-qubit", "dephasing", "battery-degenerate", "kraus-dephasing")
# a Lindblad system whose Taylor cells run across the kernel's chunks, above the
# exact route's largest dimension (dynamics.EXACT_MAX_DIM = 4), and an hbar at
# which its cells are shorter
STEPPER_FILE, STEPPER_DIM, STEPPER_SEED, STEPPER_HBAR = "lindblad_17.sys", 17, 17, 0.01
# a mid-sized Lindblad system, between d = 5 and 16
CELLS_FILE, CELLS_DIM, CELLS_SEED = "lindblad_12.sys", 12, 12
# at least three chunks of dynamics.CHUNK_BYTES on kraus_dephasing.sys
KRAUS_STEPS = 40000
# a tabulated Kraus family on the evolve grid: --tmax TABLE_T at the default 1000 steps
TABLE_FILE, TABLE_DIM, TABLE_SEED, TABLE_T, TABLE_STEPS = "kraus_table_3.sys", 3, 3, 1.0, 1000
# (file, observable, --bounds) of the subset runs, each with --observable-b B; STEPPER_FILE is the generated one
SUBSETS = (("two_qubit.sys", "A", "COMM_CLOSED,GENERATOR_HS"), (STEPPER_FILE, "A", "COMM_OPEN,GENERATOR_HS"))
# the systems run again at --hbar HBAR: built-in ones with their BUILTIN_BOUNDS arguments
HBAR, HBAR_FILES = 2.0, ("two_qubit.sys", "dephasing.sys", STEPPER_FILE)
# a qubit pair A = X, B = Y that does not commute, as a unitary and as a
# Lindblad system with the jump Z at PAIR_RATE, each run at --hbar HBAR
PAIR_FILES, PAIR_RATE = {"pair_unitary.sys": "unitary", "pair_lindblad.sys": "lindblad"}, 0.3
# a random pure unitary system whose H - A + A differs from H in the last digits
UNITARY_FILE, UNITARY_DIM, UNITARY_SEED = "unitary_4.sys", 4, 4
# a random pure unitary system whose observable P is the projector of its state
PROJECTOR_FILE, PROJECTOR_DIM, PROJECTOR_SEED = "projector_3.sys", 3, 3
# (file, extra bound arguments) of the systems run at --tol TOL, each with --observable O
TOL, TOL_FILES = 1e-6, (("loose_qubit.sys", ("--bounds", "ALL", "--tmax", "1")),
                        ("kraus_defect.sys", ("--tmax", "1", "--steps", "2")))
# built-in systems run again with H and every rate times 2^RESCALE_EXP, and T times 2^-RESCALE_EXP
RESCALE_EXP, RESCALED = -540, ("tight_qubit.sys", "dephasing.sys")
# JSON keys whose values hash floating-point inputs
DIGEST_KEYS = {"inputs_digest"}
# --compare passes a number within RTOL relative, or ATOL absolute near zero
RTOL, ATOL = 1e-12, 1e-14


def _vector_literal(v) -> str:
    return "[" + ", ".join(f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i" for z in map(complex, v)) + "]"


def _matrix_literal(M) -> str:
    return "[" + ", ".join(_vector_literal(row) for row in M) + "]"


def _hermitian(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (G + G.conj().T) / 2.0
    return H / np.linalg.norm(H, 2)


def lindblad_system_text(d: int, seed: int) -> str:
    """A random d-dimensional Lindblad system with two jumps at constant
    rates, a pure state, an observable A and B = A^2, which commutes with it."""
    rng = np.random.default_rng(seed)
    H, A = _hermitian(rng, d), _hermitian(rng, d)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lines = ["[system]", f"dim = {d}", "kind = lindblad", "", "[hamiltonian]", f"matrix = {_matrix_literal(H)}"]
    lines += ["", "[state]", f"ket = {_vector_literal(ket)}"]
    for _ in range(2):
        L = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rate = float(rng.uniform(0.1, 1.0))
        lines += ["", "[jump]", f"matrix = {_matrix_literal(0.5 * L / np.linalg.norm(L, 2))}", f"rate = {rate!r}"]
    for name, M in (("A", A), ("B", A @ A)):
        lines += ["", f"[observable {name}]", f"matrix = {_matrix_literal(M)}"]
    return "\n".join(lines) + "\n"


def kraus_table_system_text() -> str:
    """A random d = 3 Kraus system with two operators
    K_i(t) = exp(-i t H) K_i(0), tabulated on the grid of ``evolve --tmax
    TABLE_T``, where sum_i K_i(0)^dag K_i(0) = 1 from orthonormal columns, a
    pure state and an observable A."""
    rng = np.random.default_rng(TABLE_SEED)
    d = TABLE_DIM
    H, A = _hermitian(rng, d), _hermitian(rng, d)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    Q, _ = np.linalg.qr(rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d)))
    K0 = Q.reshape(2, d, d)
    w, V = np.linalg.eigh(H)
    lines = ["[system]", f"dim = {d}", "kind = kraus", "", "[state]", f"ket = {_vector_literal(ket)}"]
    lines += ["", "[observable A]", f"matrix = {_matrix_literal(A)}", "", "[kraus]", "family = tabulated"]
    for t in np.linspace(0.0, TABLE_T, TABLE_STEPS + 1):
        U = (V * np.exp(-1j * t * w)) @ V.conj().T
        lines += [f"time = {float(t)!r}", *(f"K = {_matrix_literal(U @ K)}" for K in K0)]
    return "\n".join(lines) + "\n"


def pair_system_text(kind: str) -> str:
    """The qubit H = [[0.3, 0.5 - 0.2i], [0.5 + 0.2i, -0.4]] with the state
    (cos 0.3, sin 0.3 e^{0.7i}) and observables A = X and B = Y, whose
    commutator expectation is nonzero at t = 0; of ``kind`` lindblad, with
    the jump Z at rate PAIR_RATE."""
    H = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.4]])
    ket = [np.cos(0.3), np.sin(0.3) * np.exp(0.7j)]
    lines = ["[system]", "dim = 2", f"kind = {kind}", "", "[hamiltonian]", f"matrix = {_matrix_literal(H)}"]
    lines += ["", "[state]", f"ket = {_vector_literal(ket)}"]
    if kind == "lindblad":
        lines += ["", "[jump]", "pauli = 1.0 Z", f"rate = {PAIR_RATE!r}"]
    lines += ["", "[observable A]", "pauli = 1.0 X", "", "[observable B]", "pauli = 1.0 Y"]
    return "\n".join(lines) + "\n"


def unitary_system_text() -> str:
    """A random d = 4 unitary system with a pure state and observables A and
    B, drawn independently."""
    rng = np.random.default_rng(UNITARY_SEED)
    d = UNITARY_DIM
    H, A, B = (_hermitian(rng, d) for _ in range(3))
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lines = ["[system]", f"dim = {d}", "kind = unitary", "", "[hamiltonian]", f"matrix = {_matrix_literal(H)}"]
    lines += ["", "[state]", f"ket = {_vector_literal(ket)}"]
    for name, M in (("A", A), ("B", B)):
        lines += ["", f"[observable {name}]", f"matrix = {_matrix_literal(M)}"]
    return "\n".join(lines) + "\n"


def projector_system_text() -> str:
    """A random d = 3 unitary system in a pure state whose observable P is
    that state's projector."""
    rng = np.random.default_rng(PROJECTOR_SEED)
    H = _hermitian(rng, PROJECTOR_DIM)
    ket = rng.standard_normal(PROJECTOR_DIM) + 1j * rng.standard_normal(PROJECTOR_DIM)
    ket /= np.linalg.norm(ket)
    lines = ["[system]", f"dim = {PROJECTOR_DIM}", "kind = unitary", "", "[hamiltonian]"]
    lines += [f"matrix = {_matrix_literal(H)}", "", "[state]", f"ket = {_vector_literal(ket)}"]
    lines += ["", "[observable P]", f"matrix = {_matrix_literal(np.outer(ket, ket.conj()))}"]
    return "\n".join(lines) + "\n"


def loose_qubit_text() -> str:
    """A qubit whose H = [[1, 1e-7], [1e-7 + 5e-8i, -1]] and O = X + 5e-8i
    in the lower corner are Hermitian only within 5e-8, in the state |0>,
    where dH = 1e-7."""
    H = np.array([[1.0, 1e-7], [1e-7 + 5e-8j, -1.0]])
    O = np.array([[0.0, 1.0], [1.0 + 5e-8j, 0.0]])
    lines = ["[system]", "dim = 2", "kind = unitary", "", "[hamiltonian]", f"matrix = {_matrix_literal(H)}"]
    lines += ["", "[state]", "ket = [1, 0]", "", "[observable O]", f"matrix = {_matrix_literal(O)}"]
    return "\n".join(lines) + "\n"


def kraus_defect_text() -> str:
    """A qubit Kraus family tabulated at t = 0, 0.5 and 1 as
    K = (1.0000001 I, 0), whose completeness defect is 2e-7, with O = X."""
    K = np.stack([1.0000001 * np.eye(2), np.zeros((2, 2))])
    lines = ["[system]", "dim = 2", "kind = kraus", "", "[state]", "ket = [1, 0]"]
    lines += ["", "[observable O]", "pauli = 1.0 X", "", "[kraus]", "family = tabulated"]
    for t in (0.0, 0.5, 1.0):
        lines += [f"time = {t!r}", *(f"K = {_matrix_literal(k)}" for k in K)]
    return "\n".join(lines) + "\n"


def rescaled_text(fname: str) -> str:
    """The built-in system ``fname``, whose Hamiltonian is Pauli terms
    joined by " + ", with each term's coefficient and every jump rate times
    2^RESCALE_EXP."""
    lines, section = [], ""
    for line in (SYSTEMS / fname).read_text(encoding="utf-8").splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if line.startswith("["):
            section = line
        elif section == "[hamiltonian]" and key == "pauli":
            terms = (term.split() for term in value.split(" + "))
            line = "pauli = " + " + ".join(f"{math.ldexp(float(c), RESCALE_EXP)!r} {op}" for c, op in terms)
        elif key == "rate":
            line = f"rate = {math.ldexp(float(value), RESCALE_EXP)!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_systems(workdir: Path) -> None:
    """Write the generated systems that :func:`commands` reads into ``workdir``."""
    for fname, d, seed in ((STEPPER_FILE, STEPPER_DIM, STEPPER_SEED), (CELLS_FILE, CELLS_DIM, CELLS_SEED)):
        (workdir / fname).write_text(lindblad_system_text(d, seed), encoding="utf-8")
    (workdir / TABLE_FILE).write_text(kraus_table_system_text(), encoding="utf-8")
    for fname, kind in PAIR_FILES.items():
        (workdir / fname).write_text(pair_system_text(kind), encoding="utf-8")
    (workdir / UNITARY_FILE).write_text(unitary_system_text(), encoding="utf-8")
    for (fname, _), text in zip(TOL_FILES, (loose_qubit_text(), kraus_defect_text())):
        (workdir / fname).write_text(text, encoding="utf-8")
    (workdir / PROJECTOR_FILE).write_text(projector_system_text(), encoding="utf-8")
    for fname in RESCALED:
        (workdir / f"rescaled_{fname}").write_text(rescaled_text(fname), encoding="utf-8")


def commands(workdir: Path):
    """(label, argv) of every command; the generated systems are read from
    ``workdir`` (:func:`write_systems`)."""
    for fname, obs, obs_b, tmax in BUILTIN_BOUNDS:
        yield f"bound:{fname}", _bound_all(fname, obs, obs_b, tmax)
    for name in SCENARIOS:
        yield f"scenario:{name}", ["scenario", name, "--format", "json"]
    yield "audit", ["audit", "--trials", "100", "--seed", "1", "--format", "json"]
    for fname, *_ in BUILTIN_BOUNDS:
        yield f"parse:{fname}", ["parse", "--system", str(SYSTEMS / fname)]
    evolve = ["--observable", "N", "--tmax", "1.0", "--format", "json"]
    yield "evolve:qutrit_decay.sys", ["evolve", "--system", str(SYSTEMS / "qutrit_decay.sys"), *evolve]
    evolve = ["--observable", "O", "--tmax", "1.5708", "--format", "json"]
    yield "evolve:kraus_dephasing.sys", ["evolve", "--system", str(SYSTEMS / "kraus_dephasing.sys"), *evolve]
    yield f"evolve:kraus_dephasing.sys:{KRAUS_STEPS}", [
        "evolve", "--system", str(SYSTEMS / "kraus_dephasing.sys"), *evolve, "--steps", str(KRAUS_STEPS)
    ]
    stepper = ["--system", str(workdir / STEPPER_FILE), "--observable", "A", "--tmax", "1.0", "--format", "json"]
    stepper_bound = ["bound", *stepper, "--observable-b", "B", "--bounds", "ALL"]
    yield f"bound:{STEPPER_FILE}", stepper_bound
    yield f"evolve:{STEPPER_FILE}", ["evolve", *stepper]
    yield f"evolve:{STEPPER_FILE}:hbar={STEPPER_HBAR!r}", ["evolve", *stepper, "--hbar", repr(STEPPER_HBAR)]
    yield f"parse:{STEPPER_FILE}", ["parse", "--system", str(workdir / STEPPER_FILE)]
    argv = ["--system", str(workdir / CELLS_FILE), "--observable", "A", "--observable-b", "B", "--tmax", "1.0"]
    yield f"bound:{CELLS_FILE}", ["bound", *argv, "--bounds", "ALL", "--format", "json"]
    table = ["--system", str(workdir / TABLE_FILE), "--observable", "A", "--tmax", repr(TABLE_T), "--format", "json"]
    yield f"evolve:{TABLE_FILE}", ["evolve", *table]
    for fname, obs, ids in SUBSETS:
        path = workdir / fname if fname == STEPPER_FILE else SYSTEMS / fname
        argv = ["--system", str(path), "--observable", obs, "--observable-b", "B", "--tmax", "1.0"]
        yield f"bound:{fname}:{ids}", ["bound", *argv, "--bounds", ids, "--format", "json"]
    for fname, obs, obs_b, tmax in BUILTIN_BOUNDS:
        if fname in HBAR_FILES:
            yield f"bound:{fname}:hbar={HBAR!r}", _bound_all(fname, obs, obs_b, tmax) + ["--hbar", repr(HBAR)]
    if STEPPER_FILE in HBAR_FILES:
        yield f"bound:{STEPPER_FILE}:hbar={HBAR!r}", stepper_bound + ["--hbar", repr(HBAR)]
    for fname in PAIR_FILES:
        argv = ["bound", "--system", str(workdir / fname), "--observable", "A", "--observable-b", "B", "--tmax", "1.0"]
        yield f"bound:{fname}:hbar={HBAR!r}", argv + ["--bounds", "ALL", "--hbar", repr(HBAR), "--format", "json"]
    argv = ["--system", str(workdir / UNITARY_FILE), "--observable", "A", "--observable-b", "B", "--tmax", "1.0"]
    yield f"bound:{UNITARY_FILE}", ["bound", *argv, "--bounds", "ALL", "--format", "json"]
    for fname, extra in TOL_FILES:
        argv = ["bound", "--system", str(workdir / fname), "--observable", "O", *extra, "--tol", repr(TOL)]
        yield f"bound:{fname}:tol={TOL!r}", argv + ["--format", "json"]
    argv = ["bound", "--system", str(workdir / PROJECTOR_FILE), "--observable", "P", "--tmax", "1.0"]
    yield f"bound:{PROJECTOR_FILE}", argv + ["--bounds", "ALL", "--format", "json"]
    for fname, obs, _, tmax in BUILTIN_BOUNDS:
        if fname in RESCALED:
            argv = ["bound", "--system", str(workdir / f"rescaled_{fname}"), "--observable", obs]
            yield f"bound:rescaled_{fname}", argv + ["--tmax", repr(math.ldexp(tmax, -RESCALE_EXP)), "--bounds", "ALL",
                                                     "--format", "json"]
    yield f"bound:{STEPPER_FILE}:DELCAMPO:hbar={STEPPER_HBAR!r}", [
        "bound", *stepper, "--bounds", "DELCAMPO", "--hbar", repr(STEPPER_HBAR)
    ]
    # h beta = 23.2 > 1: the exact propagator's grid
    stiff = ["--system", str(SYSTEMS / "qutrit_decay.sys"), "--observable", "N", "--tmax", "100", "--steps", "10",
             "--format", "json"]
    yield "bound:qutrit_decay.sys:stiff", ["bound", *stiff, "--bounds", "ALL"]
    yield "evolve:qutrit_decay.sys:stiff", ["evolve", *stiff]


def _bound_all(fname: str, obs: str, obs_b, tmax: float) -> list:
    """The argv of ``bound --bounds ALL --format json`` on a built-in system."""
    argv = ["bound", "--system", str(SYSTEMS / fname), "--observable", obs]
    if obs_b:
        argv += ["--observable-b", obs_b]
    return argv + ["--tmax", repr(tmax), "--bounds", "ALL", "--format", "json"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def number_pairs(a, b, unmatched: list, path: str = ""):
    """Yield (path, x, y) for the numbers at the same place in two parsed
    JSON values, under the keys that both sides share, and append to
    ``unmatched`` each key that only one side has, marked ``-`` (old) or
    ``+`` (new); raise ValueError where anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        unmatched += (f"{'-' if key in a else '+'}{path}.{key}" for key in sorted(a.keys() ^ b.keys()))
        for key in a:
            if key in b and key not in DIGEST_KEYS:
                yield from number_pairs(a[key], b[key], unmatched, f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{path}: lengths {len(a)} and {len(b)} differ")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from number_pairs(x, y, unmatched, f"{path}[{i}]")
    elif _is_number(a) and _is_number(b):
        yield path, float(a), float(b)
    elif a != b:
        raise ValueError(f"{path}: {a!r} and {b!r} differ")


def largest_difference(old: str, new: str):
    """(difference, path, count, unmatched) for the two outputs of one
    command: the largest |a - b| / max(|a|, |b|, ATOL / RTOL) over the
    numbers under their shared keys (inf where a NaN or an infinity meets
    anything else), where it occurs, how many numbers were compared, and the
    keys that only one side has (see :func:`number_pairs`). Raises
    ValueError when anything but a number or a key differs."""
    unmatched = []
    try:
        pairs = list(number_pairs(json.loads(old), json.loads(new), unmatched))
    except json.JSONDecodeError:
        if old != new:
            raise ValueError("non-JSON outputs differ") from None
        return 0.0, "", 0, []
    worst, where = 0.0, ""
    for path, x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y) / max(abs(x), abs(y), ATOL / RTOL)
        if math.isnan(diff):  # NaN against a number, or inf against anything else
            diff = math.inf
        if diff > worst:
            worst, where = diff, path
    return worst, where, len(pairs), unmatched


def _file(label: str) -> str:
    return label.replace(":", "_") + ".out"


def compare(old_dir: Path, new_dir: Path) -> int:
    failed = 0
    for label, _ in commands(Path()):
        old, new = (d / _file(label) for d in (old_dir, new_dir))
        if not (old.is_file() and new.is_file()):
            print(f"MISSING  {label}")
            failed += 1
            continue
        try:
            diff, where, count, unmatched = largest_difference(old.read_text(), new.read_text())
        except ValueError as exc:
            print(f"DIFFERS  {label}: {exc}")
            failed += 1
            continue
        status = "KEYS" if unmatched else "ok" if diff <= RTOL else "OVER"
        failed += status != "ok"
        keys = f"  keys {' '.join(unmatched)}" if unmatched else ""
        print(f"{status:7}  {diff:.2e}  {count:6d} numbers  {label}  {where}".rstrip() + keys)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, metavar="DIR", help="also write each command's output into DIR")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"), help="compare two --save directories")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **one_thread)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_systems(workdir)
        for label, argv in commands(workdir):
            proc = subprocess.run(
                [sys.executable, "-m", "oqsl", *argv], capture_output=True, env=env, cwd=ROOT
            )
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{digest}  exit={proc.returncode}  {label}")
            if args.save:
                (args.save / _file(label)).write_bytes(proc.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
