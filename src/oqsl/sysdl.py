"""Parser for the plain-text ``.sys`` system-description format.

A file is a sequence of ``[section]`` headers with one ``key = value``
declaration per line; ``#`` starts a comment. Sections and their keys:

* ``[system]`` -- ``dim`` (required), ``hbar`` (default 1.0; not for
  kraus), optional ``kind`` (unitary | lindblad | kraus).
* ``[hamiltonian]`` -- ``pauli = <expr>`` or ``matrix = <literal>``; an empty
  or absent section means the zero matrix.
* ``[state]`` -- ``ket = [c, ...]`` (normalized on parse) or
  ``matrix = [[...], ...]`` (validated strictly as a density operator).
* ``[jump]`` -- repeatable; ``pauli``/``matrix`` plus ``rate`` (default 1.0).
  The declared operator and rate enter the dissipator as written; any scalar
  prefactor already in the operator is never folded a second time.
* ``[observable NAME]`` -- repeatable; ``pauli``/``matrix``.
* ``[kraus]`` -- ``family = dephasing`` with ``gamma``, or
  ``family = tabulated`` with repeated ``time = <t>`` / ``K = <matrix>`` lines,
  a table that holds t = 0, where every evolution starts.

One table, ``_SECTIONS``, lists these keys. A key a section does not accept,
a second declaration of a key or of its alternative (``pauli``/``matrix``,
``ket``/``matrix``), and a ``[kraus]`` key of the other family are errors.
When ``kind`` is omitted it is ``kraus`` with a ``[kraus]`` section,
``lindblad`` with a ``[jump]`` and ``unitary`` otherwise. A second table,
``_UNREAD``, lists the sections each kind does not read: ``[jump]`` and
``[kraus]`` for unitary, ``[kraus]`` for lindblad, ``[hamiltonian]`` and
``[jump]`` for kraus. Each such section is an error at its header, and so
is ``hbar`` in a kraus file, at its key.

Ket and matrix literals nest comma-separated entries in brackets. An entry,
like a Pauli coefficient, is ``a``, ``a+bi``, ``a-bi``, ``a+i``, ``a-i``,
``bi``, ``+bi``, ``-bi``, ``i``, ``+i`` or ``-i`` (a, b decimal in ASCII
digits, with an optional exponent; a may be signed); one that overflows a
float is an error. The scalar values of ``dim``, ``hbar``, ``rate``,
``gamma`` and ``time`` are written as a signed a, again in ASCII digits
only; ``dim`` is an integer.
Pauli expressions follow ``coeff WORD (+|- coeff WORD)*`` with words over
I, X, Y, Z of length log2(dim).

Errors are reported as diagnostics with 1-based line and column positions;
``parse_system`` either returns a fully validated :class:`SystemSpec` or
raises :class:`ParseError` carrying every collected diagnostic.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .dynamics import (
    DephasingKraus,
    GeneratorSpec,
    LindbladGenerator,
    TabulatedKraus,
    UnitaryGenerator,
)
from .linalg import DEFAULT_TOL, DensityState, PAULI, ValidationError, checked_hermitian, require_squarable

MAX_DIM = 512

_UNSIGNED = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a real scalar value (dim, hbar, rate, gamma, time): a signed entry with no i
_REAL = re.compile(rf"[+-]?{_UNSIGNED}")
# one literal entry or Pauli coefficient, its i written j, as complex() reads it
_ENTRY = re.compile(rf"\s*(?:[+-]?{_UNSIGNED}(?:[+-](?:{_UNSIGNED})?j)?|[+-]?(?:{_UNSIGNED})?j)\s*")
# the characters of a literal, its i written j, in whose entries complex()
# accepts what _ENTRY matches and no more: no '_', no letter but e, E and j,
# no parenthesis and no space but ' ' and tab
_PLAIN = re.compile(r"[0-9.eE+\-j \t,\[\]]*")
_RE_SECTION = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_-]*)(?:\s+([A-Za-z_][A-Za-z0-9_]*))?\s*\]$")
_RE_PAULI_WORD = re.compile(r"^[IXYZ]+$")


class Diagnostic:
    def __init__(self, line: int, col: int, message: str):
        self.line, self.col, self.message = line, col, message

    def __eq__(self, other):
        return isinstance(other, Diagnostic) and vars(self) == vars(other)

    def render(self, filename: str = "<sysdl>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.message}"


class ParseError(ValueError):
    """Raised with the full list of diagnostics collected while parsing."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics) or "parse error")

    def render(self, filename: str = "<sysdl>") -> str:
        return "\n".join(d.render(filename) for d in self.diagnostics)


def _fail(line: int, col: int, message: str):
    raise ParseError([Diagnostic(line, col, message)])


# ---------------------------------------------------------------------------
# literals


def _as_python(text: str) -> str:
    """``text`` as complex() reads it, one character for each, so its indices are text's: a written j -> '?' (no
    entry matches it), i -> j, and -> ' ' the four separators that str.strip() removes but complex() refuses; by
    str.replace, as str.translate takes a per-character path once the text holds a non-ASCII character."""
    s = text.replace("j", "?").replace("i", "j")
    return s.replace("\x1c", " ").replace("\x1d", " ").replace("\x1e", " ").replace("\x1f", " ")


def parse_complex(literal: str) -> complex:
    """One entry of the literal grammar (see the module docstring) as a
    finite complex."""
    s = _as_python(literal)
    if not _ENTRY.fullmatch(s):
        _fail(1, 1, f"malformed complex literal {literal.strip()!r}")
    z = complex(s)
    if not np.isfinite(z):
        _fail(1, 1, f"non-finite number {literal.strip()!r}")
    return z


def format_complex(z: complex) -> str:
    """Canonical literal whose reparse is bit-identical (signed zeros kept)."""
    return _joined(repr(float(z.real)), repr(float(z.imag)))


def _joined(re: str, im: str) -> str:
    """The entry a+bi from the reprs of a and b."""
    return f"{re}{'' if im[0] == '-' else '+'}{im}i"


def _literal(text: str, line: int, col: int, rank: int) -> np.ndarray:
    """The vector (``rank`` 1) or square matrix (``rank`` 2) literal ``text``
    at ``line``:``col``, read as the grammar nests it: a bracketed list cut
    at its top-level commas. The outer brackets are checked first, then the
    balance of every bracket inside them, then each part in order; a matrix
    row is read the same way, and its width checked before the next row."""
    python = _as_python(text)

    def parts(i: int, s: str) -> tuple[int, list[str]]:
        """The index in ``text`` of the body of the bracketed ``s``, which
        starts at index ``i``, and that body cut at its top-level commas."""
        body = s.strip()
        i += len(s) - len(s.lstrip())
        if not (body.startswith("[") and body.endswith("]")):
            _fail(line, col + i, "expected a bracketed literal")
        i, body = i + 1, body[1:-1]
        groups, depth = [], 0  # the (start, end) of each top-level bracketed group
        o, c = body.find("["), body.find("]")
        while c >= 0:
            if 0 <= o < c:
                if not depth:
                    start = o
                depth += 1
                o = body.find("[", o + 1)
            elif depth:
                depth -= 1
                if not depth:
                    groups.append((start, c + 1))
                c = body.find("]", c + 1)
            else:
                _fail(line, col + i + c, "unbalanced ']' in literal")
        if depth or o >= 0:
            _fail(line, col + i, "unbalanced '[' in literal")
        cut, x = [""], 0
        for g, h in [*groups, (len(body), len(body))]:
            first, *rest = body[x:g].split(",")
            cut[-1] += first
            cut += rest
            cut[-1] += body[g:h]
            x = h
        return i, cut

    def vector(i: int, s: str) -> np.ndarray:
        # complex() on every entry of a plain row; _ENTRY runs only where it
        # refuses one, to place the diagnostic, or on a row that is not plain
        i, entries = parts(i, s)
        try:
            v = np.array(list(map(complex, entries)), dtype=complex) if _PLAIN.fullmatch(s) else None
        except ValueError:
            v = None
        bad = len(entries)
        if v is None:
            bad = [*map(_ENTRY.fullmatch, entries), None].index(None)
            v = np.array(list(map(complex, entries[:bad])), dtype=complex)
        bad = min(np.flatnonzero(~np.isfinite(v)), default=bad)
        if bad < len(entries):
            i += sum(map(len, entries[:bad])) + bad
            entry = text[i : i + len(entries[bad])].strip()
            if not entry:
                _fail(line, col + i, "empty entry in vector literal")
            try:
                parse_complex(entry)
            except ParseError as exc:
                _fail(line, col + i, exc.diagnostics[0].message)
        return v

    if rank == 1:
        return vector(0, python)
    inside, rows = parts(0, python)
    M, i = [], inside
    for row in rows:
        if not row.strip():
            _fail(line, col + i, "empty row in matrix literal")
        v = vector(i, row)
        if M and v.size != M[0].size:
            _fail(line, col + i, f"matrix row has {v.size} entries, expected {M[0].size}")
        M.append(v)
        i += len(row) + 1
    if len(M) != M[0].size:
        _fail(line, col + inside, f"matrix literal is {len(M)}x{M[0].size}, expected square")
    return np.array(M)


# ---------------------------------------------------------------------------
# Pauli expressions


def parse_pauli_expr(src: str, n_qubits: int) -> np.ndarray:
    """Sum of coefficient-weighted Pauli words over n_qubits, as a matrix.

    Grammar: ``expr := term (('+'|'-') term)*``, ``term := coeff WORD`` with
    whitespace between coefficient and word and around the +/- joiners.
    """
    if n_qubits < 1:
        raise ValidationError("pauli expressions need n_qubits >= 1")
    tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", src)]
    if not tokens:
        _fail(1, 1, "empty pauli expression")
    total, i, sign = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex), 0, 1.0
    while True:
        if i >= len(tokens):
            _fail(1, tokens[-1][1] + len(tokens[-1][0]), "expected a coefficient")
        coeff_tok, coeff_col = tokens[i]
        try:
            coeff = sign * parse_complex(coeff_tok)
        except ParseError as exc:
            _fail(1, coeff_col, exc.diagnostics[0].message)
        i += 1
        if i >= len(tokens):
            _fail(1, coeff_col + len(coeff_tok), "expected a pauli word after coefficient")
        word, word_col = tokens[i]
        if not _RE_PAULI_WORD.match(word):
            _fail(1, word_col, f"bad character in pauli word {word!r} (alphabet I, X, Y, Z)")
        if len(word) != n_qubits:
            _fail(1, word_col, f"pauli word {word!r} has length {len(word)}, expected {n_qubits}")
        total += coeff * functools.reduce(np.kron, [PAULI[ch] for ch in word])
        i += 1
        if i == len(tokens):
            return total
        op, op_col = tokens[i]
        if op not in ("+", "-"):
            _fail(1, op_col, f"expected '+' or '-' between terms, got {op!r}")
        sign = 1.0 if op == "+" else -1.0
        i += 1


# ---------------------------------------------------------------------------
# system spec


class SystemSpec:
    """Fully validated description of one experiment. Its dynamics is the
    ``generator`` alone: a UnitaryGenerator, a LindbladGenerator or a Kraus
    family, each naming its ``kind`` and its ``dim``."""

    def __init__(self, generator: GeneratorSpec, initial_state: DensityState, observables: dict,
                 metadata: dict | None = None):
        self.generator, self.initial_state, self.observables = generator, initial_state, observables
        self.metadata = {} if metadata is None else metadata

    @property
    def dim(self) -> int:
        return self.generator.dim

    def observable(self, name: str) -> np.ndarray:
        if name not in self.observables:
            raise ValidationError(
                f"unknown observable {name!r}; declared: {sorted(self.observables) or 'none'}"
            )
        return self.observables[name]


class _Decl:
    """One ``key = value`` line: ``key`` in lower case, for matching, and
    ``name`` as written, for diagnostics."""

    def __init__(self, key: str, name: str, value: str, line: int, key_col: int, value_col: int):
        self.key, self.name, self.value = key, name, value
        self.line, self.key_col, self.value_col = line, key_col, value_col


class _Section:
    def __init__(self, name: str, arg: str | None, line: int, decls: list):
        self.name, self.arg, self.line, self.decls = name, arg, line, decls


class _Layout:
    """The keys a section accepts. Each key maps to a slot that holds one
    declaration; keys that share a slot are alternatives, and a key whose
    slot is None may repeat. ``required`` slots must be declared."""

    def __init__(self, keys: dict, required: tuple = (), repeatable: bool = False, named: bool = False):
        self.keys, self.required, self.repeatable, self.named = keys, required, repeatable, named


_OPERATOR = {"pauli": "operator", "matrix": "operator"}
_SECTIONS = {
    "system": _Layout({"dim": "dim", "hbar": "hbar", "kind": "kind"}, required=("dim",)),
    "hamiltonian": _Layout(_OPERATOR),
    "state": _Layout({"ket": "state", "matrix": "state"}, required=("state",)),
    "jump": _Layout({**_OPERATOR, "rate": "rate"}, required=("operator",), repeatable=True),
    "observable": _Layout(_OPERATOR, required=("operator",), repeatable=True, named=True),
    "kraus": _Layout({"family": "family", "gamma": "gamma", "time": None, "k": None}, required=("family",)),
}
# the [kraus] keys that belong to one family
_KRAUS_FAMILY = {"gamma": "dephasing", "time": "tabulated", "k": "tabulated"}
# the sections that each dynamics kind does not read
_UNREAD = {"unitary": ("jump", "kraus"), "lindblad": ("kraus",), "kraus": ("hamiltonian", "jump")}


def _scan(text: str, diags: list[Diagnostic]) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # strip comments outside of any quoting (the format has no strings)
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            m = _RE_SECTION.match(stripped)
            if not m:
                diags.append(Diagnostic(lineno, indent + 1, f"malformed section header {stripped!r}"))
                current = None
                continue
            current = _Section(name=m.group(1).lower(), arg=m.group(2), line=lineno, decls=[])
            sections.append(current)
            continue
        if "=" not in stripped:
            diags.append(Diagnostic(lineno, indent + 1, "expected 'key = value' or a section header"))
            continue
        if current is None:
            diags.append(Diagnostic(lineno, indent + 1, "declaration outside any section"))
            continue
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        if not key:
            diags.append(Diagnostic(lineno, indent + 1, "missing key before '='"))
            continue
        value = value_part.strip()
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        current.decls.append(
            _Decl(key=key.lower(), name=key, value=value, line=lineno, key_col=indent + 1, value_col=value_col)
        )
    return sections


def _read(sec: _Section, layout: _Layout, diags: list[Diagnostic]) -> dict:
    """``sec``'s declarations by slot. Every unknown key, every second
    declaration of a slot and every missing required slot is a diagnostic;
    the declarations of keys without a slot stay in ``sec.decls``."""
    slots: dict[str, _Decl] = {}
    for d in sec.decls:
        if d.key not in layout.keys:
            diags.append(Diagnostic(d.line, d.key_col, f"unknown key {d.name!r} in [{sec.name}] section"))
            continue
        slot = layout.keys[d.key]
        if slot in slots:
            first = slots[slot].line
            message = f"duplicate {slot} declaration in [{sec.name}] (first on line {first})"
            diags.append(Diagnostic(d.line, d.key_col, message))
        elif slot is not None:
            slots[slot] = d
    for slot in layout.required:
        if slot not in slots:
            keys = " or ".join(k for k, s in layout.keys.items() if s == slot)
            diags.append(Diagnostic(sec.line, 1, f"[{sec.name}] section needs a {keys} declaration"))
    return slots


def _convert(decl: _Decl | None, convert, diags: list[Diagnostic], default=None):
    """``convert(decl.value)``, or ``default`` without a declaration; a
    ValueError from ``convert`` becomes a diagnostic at the value."""
    if decl is None:
        return default
    try:
        return convert(decl.value)
    except ValueError as exc:
        diags.append(Diagnostic(decl.line, decl.value_col, str(exc)))
        return None


def _real(ok=lambda v: True, message: str = ""):
    """A converter to a finite float v that fails with ``message.format(v)``
    unless ``ok(v)``."""

    def convert(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"malformed number {text!r}") from None
        if not np.isfinite(v):
            raise ValueError(f"non-finite number {text!r}")
        if not _REAL.fullmatch(text):
            raise ValueError(f"malformed number {text!r}")
        if not ok(v):
            raise ValueError(message.format(v))
        return v

    return convert


def _dim(text: str) -> int:
    try:
        dim = int(text)
    except ValueError:
        raise ValueError(f"malformed integer {text!r}") from None
    if not _REAL.fullmatch(text):
        raise ValueError(f"malformed integer {text!r}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} exceeds the supported maximum {MAX_DIM}")
    return dim


def _choice(what: str, options: tuple):
    def convert(text: str) -> str:
        if text.lower() not in options:
            raise ValueError(f"unknown {what} {text!r}")
        return text.lower()

    return convert


def _parse_operator(decl: _Decl | None, dim: int, n_qubits, diags: list[Diagnostic], name=None, tol=None):
    """A 'pauli =' declaration, or any other as a matrix literal, as a dim x
    dim matrix; None after a diagnostic or without a declaration. An
    operator called ``name`` must pass :func:`~oqsl.linalg.checked_hermitian`
    within ``tol``, or without one :func:`~oqsl.linalg.require_squarable`."""
    if decl is None:
        return None
    try:
        if decl.key != "pauli":
            M = _literal(decl.value, decl.line, decl.value_col, 2)
            if M.shape[0] != dim:
                _fail(decl.line, decl.value_col, f"matrix is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}")
        elif n_qubits is None:
            _fail(decl.line, decl.value_col, f"pauli expressions need dim a power of 2 of at least 2, got {dim}")
        else:
            try:
                M = parse_pauli_expr(decl.value, n_qubits)
            except ParseError as exc:
                d = exc.diagnostics[0]
                _fail(decl.line, decl.value_col + d.col - 1, d.message)
        if tol is not None:
            checked_hermitian(M, name, tol)
        elif name is not None:
            require_squarable(M, name)
        return M
    except ParseError as exc:
        diags.extend(exc.diagnostics)
    except ValidationError as exc:
        diags.append(Diagnostic(decl.line, decl.value_col, str(exc)))
    return None


def _parse_state(decl: _Decl | None, dim: int, tol: float, diags: list[Diagnostic]):
    if decl is None:
        return None
    try:
        if decl.key == "ket":
            vec = _literal(decl.value, decl.line, decl.value_col, 1)
            if vec.size != dim:
                _fail(decl.line, decl.value_col, f"ket has {vec.size} entries, expected {dim}")
            try:
                return DensityState.pure(vec)
            except ValidationError as exc:
                _fail(decl.line, decl.value_col, str(exc))
        M = _literal(decl.value, decl.line, decl.value_col, 2)
        if M.shape[0] != dim:
            _fail(decl.line, decl.value_col, f"state is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}")
        try:
            return DensityState.from_matrix(M, tol=tol)
        except ValidationError as exc:
            _fail(decl.line, decl.value_col, f"invalid state: {exc}")
    except ParseError as exc:
        diags.extend(exc.diagnostics)
    return None


def _parse_kraus(sec: _Section, slots: dict, dim: int, tol: float, diags: list[Diagnostic]):
    """The [kraus] family, checked within ``tol``, or None after a
    diagnostic. A table must hold t = 0, where every evolution starts."""
    family = _convert(slots.get("family"), _choice("kraus family", ("dephasing", "tabulated")), diags)
    if family is None:
        return None
    for d in sec.decls:
        owner = _KRAUS_FAMILY.get(d.key, family)
        if owner != family:
            message = f"{d.name!r} is a key of family = {owner}, not of family = {family}"
            diags.append(Diagnostic(d.line, d.key_col, message))
    if family == "dephasing":
        gamma = _convert(slots.get("gamma"), _real(lambda v: v >= 0, "negative dephasing strength {!r}"), diags)
        if dim != 2:
            diags.append(Diagnostic(sec.line, 1, "dephasing kraus family requires dim = 2"))
        elif "gamma" not in slots:
            diags.append(Diagnostic(sec.line, 1, "dephasing kraus family requires gamma"))
        elif gamma is not None:
            return DephasingKraus(gamma, tol)
        return None
    # a bad time or K keeps its place, so that it is the table's only diagnostic
    n_diags = len(diags)
    times: list[float | None] = []
    ops: list[list[np.ndarray]] = []
    for d in sec.decls:
        if d.key == "time":
            times.append(_convert(d, _real(), diags))
            ops.append([])
        elif d.key == "k":
            if not times:
                diags.append(Diagnostic(d.line, d.key_col, "'K =' before any 'time =' declaration"))
                continue
            ops[-1].append(_parse_operator(d, dim, None, diags))
    if len(diags) > n_diags:
        return None
    if len({len(K) for K in ops}) > 1:  # a ragged table would make np.array raise
        diags.append(Diagnostic(sec.line, 1, "every tabulated time needs the same number of K operators"))
        return None
    try:
        family = TabulatedKraus(times, np.array(ops), tol)
    except ValidationError as exc:
        diags.append(Diagnostic(sec.line, 1, str(exc)))
        return None
    try:
        family.operators(0.0)  # within the lookup's own tolerance
    except ValidationError:
        first = next(d for d in sec.decls if d.key == "time")
        message = f"the first tabulated time is {times[0]!r}, but every evolution starts at t = 0"
        diags.append(Diagnostic(first.line, first.value_col, message))
        return None
    return family


def parse_system(text: str, tol: float = DEFAULT_TOL) -> SystemSpec:
    """Parse and validate a complete ``.sys`` description, and build its
    generator once every positioned check has passed.

    Raises :class:`ParseError` carrying positioned diagnostics on any syntax
    or validation failure; a partially-valid spec is never returned.
    """
    diags: list[Diagnostic] = []
    # section name -> [(section, its declarations by slot)]
    found: dict[str, list[tuple[_Section, dict]]] = {}
    for sec in _scan(text, diags):
        layout = _SECTIONS.get(sec.name)
        if layout is None:
            diags.append(Diagnostic(sec.line, 1, f"unknown section [{sec.name}]"))
        elif layout.named and sec.arg is None:
            diags.append(Diagnostic(sec.line, 1, f"[{sec.name}] section needs a name: [{sec.name} NAME]"))
        elif sec.name in found and not layout.repeatable:
            diags.append(Diagnostic(sec.line, 1, f"duplicate [{sec.name}] section"))
        elif layout.named and any(s.arg == sec.arg for s, _ in found.get(sec.name, [])):
            diags.append(Diagnostic(sec.line, 1, f"duplicate {sec.name} {sec.arg!r}"))
        else:
            if sec.arg is not None and not layout.named:
                diags.append(Diagnostic(sec.line, 1, f"section [{sec.name}] takes no name argument"))
            found.setdefault(sec.name, []).append((sec, _read(sec, layout, diags)))
    for name in ("system", "state"):
        if name not in found:
            diags.append(Diagnostic(1, 1, f"missing required [{name}] section"))

    def slots(name: str) -> dict:
        return found[name][0][1] if name in found else {}

    system = slots("system")
    dim = _convert(system.get("dim"), _dim, diags)
    hbar = _convert(system.get("hbar"), _real(lambda v: v > 0, "hbar must be positive, got {!r}"), diags, 1.0)
    kind = _convert(system.get("kind"), _choice("dynamics kind", ("unitary", "lindblad", "kraus")), diags)
    if dim is None:
        raise ParseError(diags)
    n_qubits = dim.bit_length() - 1 if dim >= 2 and (dim & (dim - 1)) == 0 else None

    H = _parse_operator(slots("hamiltonian").get("operator"), dim, n_qubits, diags, "hamiltonian", tol)
    state = _parse_state(slots("state").get("state"), dim, tol, diags)
    jumps = []
    for k, (_, jump) in enumerate(found.get("jump", [])):
        rate = _convert(jump.get("rate"), _real(lambda v: v >= 0, "negative rate {!r}"), diags, 1.0)
        L = _parse_operator(jump.get("operator"), dim, n_qubits, diags, f"jump operator {k}")
        if L is not None:
            jumps.append((L, rate))
    observables: dict[str, np.ndarray] = {}
    for sec, obs in found.get("observable", []):
        M = _parse_operator(obs.get("operator"), dim, n_qubits, diags, f"observable {sec.arg!r}", tol)
        if M is not None:
            observables[sec.arg] = M
    generator = _parse_kraus(*found["kraus"][0], dim, tol, diags) if "kraus" in found else None

    if kind is None:
        kind = "kraus" if "kraus" in found else "lindblad" if "jump" in found else "unitary"
    elif kind == "kraus" and "kraus" not in found:
        diags.append(Diagnostic(1, 1, "kind = kraus requires a [kraus] section"))
    for name in _UNREAD[kind]:
        for sec, _ in found.get(name, []):
            message = f"[{name}] section is not read by kind = {kind}: remove it, or declare kind as one that reads it"
            diags.append(Diagnostic(sec.line, 1, message))
    if kind == "kraus" and "hbar" in system:  # a Kraus family reads no hbar
        message = "hbar is not read by kind = kraus: remove it, or declare kind as one that reads it"
        diags.append(Diagnostic(system["hbar"].line, system["hbar"].key_col, message))

    if diags:
        raise ParseError(diags)
    if kind != "kraus":  # else the [kraus] family is the generator
        H = np.zeros((dim, dim), dtype=complex) if H is None else H
        generator = LindbladGenerator(H, jumps, hbar, tol) if kind == "lindblad" else UnitaryGenerator(H, hbar, tol)
    import hashlib  # here, so that a command that parses no system does not load it

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return SystemSpec(generator, state, observables, metadata={"source_digest": digest})


# ---------------------------------------------------------------------------
# serialization


def _format_matrix(M: np.ndarray) -> str:
    """The matrix literal of M, each entry as :func:`format_complex` writes
    it, from one ``repr`` per float of the flattened real and imaginary parts."""
    entries = list(map(_joined, map(repr, M.real.ravel().tolist()), map(repr, M.imag.ravel().tolist())))
    n = M.shape[1]
    rows = ", ".join("[" + ", ".join(entries[k : k + n]) + "]" for k in range(0, len(entries), n))
    return f"[{rows}]"


def serialize_system(spec: SystemSpec) -> str:
    """Canonical text form; reparsing reproduces every matrix bit-exactly.
    A Kraus family reads no hbar and no Hamiltonian, so a kraus system
    prints neither."""
    gen = spec.generator
    out = ["[system]", f"dim = {spec.dim}"]
    if gen.kind == "kraus":
        out += ["kind = kraus", ""]
    else:
        out += [f"hbar = {gen.hbar!r}", f"kind = {gen.kind}", ""]
        out += ["[hamiltonian]", f"matrix = {_format_matrix(gen.H)}", ""]
    out += ["[state]", f"matrix = {_format_matrix(spec.initial_state.matrix)}", ""]
    for L, rate in gen.jumps if gen.kind == "lindblad" else ():
        out += ["[jump]", f"matrix = {_format_matrix(L)}", f"rate = {rate!r}", ""]
    for name in sorted(spec.observables):
        out += [f"[observable {name}]", f"matrix = {_format_matrix(spec.observables[name])}", ""]
    if isinstance(gen, DephasingKraus):
        out += ["[kraus]", "family = dephasing", f"gamma = {gen.gamma!r}", ""]
    elif isinstance(gen, TabulatedKraus):
        out += ["[kraus]", "family = tabulated"]
        for t, K in zip(gen.times, gen.ops):
            out.append(f"time = {float(t)!r}")
            for k in K:
                out.append(f"K = {_format_matrix(k)}")
        out.append("")
    return "\n".join(out)
