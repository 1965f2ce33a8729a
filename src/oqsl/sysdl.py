"""Parser for the plain-text ``.sys`` system-description format.

A file is a sequence of ``[section]`` headers with one ``key = value``
declaration per line; ``#`` starts a comment. Sections and their keys:

* ``[system]`` -- ``dim`` (required), ``hbar`` (default 1.0), optional
  ``kind`` (unitary | lindblad | kraus).
* ``[hamiltonian]`` -- ``pauli = <expr>`` or ``matrix = <literal>``; an empty
  or absent section means the zero matrix.
* ``[state]`` -- ``ket = [c, ...]`` (normalized on parse) or
  ``matrix = [[...], ...]`` (validated strictly as a density operator).
* ``[jump]`` -- repeatable; ``pauli``/``matrix`` plus ``rate`` (default 1.0).
  The declared operator and rate enter the dissipator as written; any scalar
  prefactor already in the operator is never folded a second time.
* ``[observable NAME]`` -- repeatable; ``pauli``/``matrix``.
* ``[kraus]`` -- ``family = dephasing`` with ``gamma``, or
  ``family = tabulated`` with repeated ``time = <t>`` / ``K = <matrix>`` lines.

One table, ``_SECTIONS``, lists these keys. A key a section does not accept,
a second declaration of a key or of its alternative (``pauli``/``matrix``,
``ket``/``matrix``), and a ``[kraus]`` key of the other family are errors.
When ``kind`` is omitted it is ``kraus`` with a ``[kraus]`` section,
``lindblad`` with a ``[jump]`` and ``unitary`` otherwise. A second table,
``_UNREAD``, lists the sections each kind does not read: ``[jump]`` and
``[kraus]`` for unitary, ``[kraus]`` for lindblad, ``[hamiltonian]`` and
``[jump]`` for kraus. Each such section is an error at its header.

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
import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DephasingKraus,
    GeneratorSpec,
    LindbladGenerator,
    TabulatedKraus,
    UnitaryGenerator,
)
from .linalg import DEFAULT_TOL, DensityState, PAULI, ValidationError, is_hermitian

MAX_DIM = 512

_UNSIGNED = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a real scalar value (dim, hbar, rate, gamma, time): a signed entry with no i
_REAL = re.compile(rf"[+-]?{_UNSIGNED}")
# one literal entry or Pauli coefficient, its i written j, as complex() reads it
_ENTRY = re.compile(rf"\s*(?:[+-]?{_UNSIGNED}(?:[+-](?:{_UNSIGNED})?j)?|[+-]?(?:{_UNSIGNED})?j)\s*")
# i -> j, a written j -> '?' (no entry matches it), and -> ' ' the four
# separators that str.strip() removes but complex() refuses
_AS_PYTHON = str.maketrans({"i": "j", "j": "?", **dict.fromkeys("\x1c\x1d\x1e\x1f", " ")})
_DELIMITER = re.compile(r"([][,])")
_RE_SECTION = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_-]*)(?:\s+([A-Za-z_][A-Za-z0-9_]*))?\s*\]$")
_RE_PAULI_WORD = re.compile(r"^[IXYZ]+$")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

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


def parse_complex(literal: str) -> complex:
    """One entry of the literal grammar (see the module docstring) as a
    finite complex."""
    s = literal.translate(_AS_PYTHON)
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
    at ``line``:``col``, split once on brackets and commas. Bracket balance is
    checked before any entry is read; then, row by row, the row's shape is
    checked and its entries are matched with ``_ENTRY`` and converted."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        _fail(line, col + len(text) - len(text.lstrip()), "expected a bracketed literal")
    # text, delimiter, text, ..., text: tokens[k] is a delimiter for odd k,
    # tokens[1] opens the literal and tokens[-2] closes it
    tokens = _DELIMITER.split(text.translate(_AS_PYTHON))

    def col_of(k: int) -> int:  # the running sum of the token lengths
        return col + sum(map(len, tokens[:k]))

    # the ']' that closes each '[', and the first '[' inside each group
    close, inner, opened = {1: len(tokens) - 2}, {}, []
    for m in re.finditer(r"[][]", "".join(tokens[3:-2:2])):
        k = 2 * m.start() + 3
        if tokens[k] == "[":
            inner.setdefault(opened[-1] if opened else 1, k)
            opened.append(k)
        elif opened:
            close[opened.pop()] = k
        else:
            _fail(line, col_of(k), "unbalanced ']' in literal")
    if opened:
        _fail(line, col_of(2), "unbalanced '[' in literal")

    def part_end(k: int) -> int:  # the ',' or ']' after any groups that open at tokens[k]
        while tokens[k] == "[":
            k = close[k] + 2
        return k

    def vector(a: int) -> np.ndarray:
        # one token per entry up to the first '[', whose part then runs on
        k = inner.get(a, close[a])
        entries = tokens[a + 1 : k : 2]
        entries[-1] = "".join(tokens[k - 1 : part_end(k)])
        bad = [*map(_ENTRY.fullmatch, entries), None].index(None)  # the first entry that does not match
        v = np.array(list(map(complex, entries[:bad])), dtype=complex)
        bad = min(np.flatnonzero(~np.isfinite(v)), default=bad)
        if bad < len(entries):
            p = a + 1 + 2 * bad
            entry = text[col_of(p) - col : col_of(part_end(p + 1)) - col].strip()
            if not entry:
                _fail(line, col_of(p), "empty entry in vector literal")
            try:
                parse_complex(entry)
            except ParseError as exc:
                _fail(line, col_of(p), exc.diagnostics[0].message)
        return v

    if rank == 1:
        return vector(1)
    rows, p = [], 2
    while p < len(tokens) - 1:  # the row is tokens[p:end]
        end = part_end(p + 1)
        lead, trail = tokens[p], tokens[end - 1]
        if end == p + 1 and not lead.strip():
            _fail(line, col_of(p), "empty row in matrix literal")
        if end == p + 1 or lead.strip() or trail.strip():
            _fail(line, col_of(p) + len(lead) - len(lead.lstrip()), "expected a bracketed literal")
        if close[p + 1] != end - 2:
            _fail(line, col_of(close[p + 1]), "unbalanced ']' in literal")
        row = vector(p + 1)
        if rows and row.size != rows[0].size:
            _fail(line, col_of(p), f"matrix row has {row.size} entries, expected {rows[0].size}")
        rows.append(row)
        p = end + 1
    if len(rows) != rows[0].size:
        _fail(line, col_of(2), f"matrix literal is {len(rows)}x{rows[0].size}, expected square")
    return np.array(rows)


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


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Fully validated description of one experiment."""

    dim: int
    hbar: float
    kind: str
    hamiltonian: np.ndarray
    initial_state: DensityState
    observables: dict
    jumps: tuple
    kraus: object = None
    metadata: dict = field(default_factory=dict)

    def observable(self, name: str) -> np.ndarray:
        if name not in self.observables:
            raise ValidationError(
                f"unknown observable {name!r}; declared: {sorted(self.observables) or 'none'}"
            )
        return self.observables[name]

    def generator(self, hbar: float | None = None, tol: float = DEFAULT_TOL) -> GeneratorSpec:
        """The system's dynamics, its Kraus family for a kraus system, with
        ``hbar`` in place of the file's when given; ``tol`` is the
        Hamiltonian's Hermiticity tolerance."""
        hbar = self.hbar if hbar is None else hbar
        if self.kind == "unitary":
            return UnitaryGenerator(H=self.hamiltonian, hbar=hbar, tol=tol)
        if self.kind == "lindblad":
            return LindbladGenerator(H=self.hamiltonian, jumps=self.jumps, hbar=hbar, tol=tol)
        if self.kind == "kraus":
            if self.kraus is None:
                raise ValidationError("kraus kind requires a kraus family")
            return self.kraus
        raise ValidationError(f"unknown dynamics kind {self.kind!r}")


@dataclass
class _Decl:
    key: str  # lower case, for matching
    name: str  # the key as written, for diagnostics
    value: str
    line: int
    key_col: int
    value_col: int


@dataclass
class _Section:
    name: str
    arg: str | None
    line: int
    decls: list


@dataclass(frozen=True)
class _Layout:
    """The keys a section accepts. Each key maps to a slot that holds one
    declaration; keys that share a slot are alternatives, and a key whose
    slot is None may repeat. ``required`` slots must be declared."""

    keys: dict
    required: tuple = ()
    repeatable: bool = False
    named: bool = False


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


def _parse_operator(decl: _Decl | None, dim: int, n_qubits, diags: list[Diagnostic], hermitian=None, tol=DEFAULT_TOL):
    """A 'pauli =' declaration, or any other as a matrix literal, as a dim x
    dim matrix; None after a diagnostic or without a declaration. When
    ``hermitian`` names the operator it must be Hermitian within ``tol``."""
    if decl is None:
        return None
    try:
        if decl.key != "pauli":
            M = _literal(decl.value, decl.line, decl.value_col, 2)
            if M.shape[0] != dim:
                _fail(decl.line, decl.value_col, f"matrix is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}")
        elif n_qubits is None:
            _fail(decl.line, decl.value_col, f"pauli expressions need dim a power of 2, got {dim}")
        else:
            try:
                M = parse_pauli_expr(decl.value, n_qubits)
            except ParseError as exc:
                d = exc.diagnostics[0]
                _fail(decl.line, decl.value_col + d.col - 1, d.message)
        if hermitian is not None and not is_hermitian(M, tol):
            _fail(decl.line, decl.value_col, f"{hermitian} is not Hermitian within tolerance")
        return M
    except ParseError as exc:
        diags.extend(exc.diagnostics)
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


def _parse_kraus(sec: _Section, slots: dict, dim: int, diags: list[Diagnostic]):
    """The [kraus] family, or None after a diagnostic."""
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
            return DephasingKraus(gamma)
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
        return TabulatedKraus(times, np.array(ops))
    except ValidationError as exc:
        diags.append(Diagnostic(sec.line, 1, str(exc)))
        return None


def parse_system(text: str, tol: float = DEFAULT_TOL) -> SystemSpec:
    """Parse and validate a complete ``.sys`` description.

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
    for _, jump in found.get("jump", []):
        rate = _convert(jump.get("rate"), _real(lambda v: v >= 0, "negative rate {!r}"), diags, 1.0)
        L = _parse_operator(jump.get("operator"), dim, n_qubits, diags)
        if L is not None:
            jumps.append((L, rate))
    observables: dict[str, np.ndarray] = {}
    for sec, obs in found.get("observable", []):
        M = _parse_operator(obs.get("operator"), dim, n_qubits, diags, f"observable {sec.arg!r}", tol)
        if M is not None:
            observables[sec.arg] = M
    kraus = _parse_kraus(*found["kraus"][0], dim, diags) if "kraus" in found else None

    if kind is None:
        kind = "kraus" if "kraus" in found else "lindblad" if "jump" in found else "unitary"
    elif kind == "kraus" and "kraus" not in found:
        diags.append(Diagnostic(1, 1, "kind = kraus requires a [kraus] section"))
    for name in _UNREAD[kind]:
        for sec, _ in found.get(name, []):
            message = f"[{name}] section is not read by kind = {kind}: remove it, or declare kind as one that reads it"
            diags.append(Diagnostic(sec.line, 1, message))

    if diags:
        raise ParseError(diags)
    return SystemSpec(
        dim=dim,
        hbar=hbar,
        kind=kind,
        hamiltonian=np.zeros((dim, dim), dtype=complex) if H is None else H,
        initial_state=state,
        observables=observables,
        jumps=tuple(jumps),
        kraus=kraus,
        metadata={"source_digest": hashlib.sha256(text.encode("utf-8")).hexdigest()},
    )


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
    """Canonical text form; reparsing reproduces every matrix bit-exactly."""
    out = ["[system]", f"dim = {spec.dim}", f"hbar = {spec.hbar!r}", f"kind = {spec.kind}", ""]
    if spec.kind != "kraus":
        out += ["[hamiltonian]", f"matrix = {_format_matrix(spec.hamiltonian)}", ""]
    out += ["[state]", f"matrix = {_format_matrix(spec.initial_state.matrix)}", ""]
    for L, rate in spec.jumps:
        if not isinstance(rate, (int, float)):
            raise ValidationError("only constant jump rates are serializable; tabulated rates are API-only")
        out += ["[jump]", f"matrix = {_format_matrix(L)}", f"rate = {float(rate)!r}", ""]
    for name in sorted(spec.observables):
        out += [f"[observable {name}]", f"matrix = {_format_matrix(spec.observables[name])}", ""]
    if isinstance(spec.kraus, DephasingKraus):
        out += ["[kraus]", "family = dephasing", f"gamma = {spec.kraus.gamma!r}", ""]
    elif isinstance(spec.kraus, TabulatedKraus):
        out += ["[kraus]", "family = tabulated"]
        for t, K in zip(spec.kraus.times, spec.kraus.ops):
            out.append(f"time = {float(t)!r}")
            for k in K:
                out.append(f"K = {_format_matrix(k)}")
        out.append("")
    return "\n".join(out)
