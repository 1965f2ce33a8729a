"""Parser for the plain-text ``.sys`` system-description format.

A file is a sequence of ``[section]`` headers with one ``key = value``
declaration per line; ``#`` starts a comment. Sections:

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

Pauli expressions follow ``coeff WORD (+|- coeff WORD)*`` where coefficients
are real or complex literals (``a``, ``a+bi``, ``a-bi``, ``bi``, ``-bi``) and
words are strings over I, X, Y, Z of length log2(dim).

Errors are reported as diagnostics with 1-based line and column positions;
``parse_system`` either returns a fully validated :class:`SystemSpec` or
raises :class:`ParseError` carrying every collected diagnostic.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DephasingKraus,
    GeneratorSpec,
    KrausGenerator,
    LindbladGenerator,
    TabulatedKraus,
    UnitaryGenerator,
)
from .linalg import DEFAULT_TOL, DensityState, PAULI, ValidationError, is_hermitian

MAX_DIM = 512

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SIGNED = rf"[+-]?{_UNSIGNED}"
_RE_REAL = re.compile(rf"^({_SIGNED})$")
_RE_FULL = re.compile(rf"^({_SIGNED})([+-](?:{_UNSIGNED})?)i$")
_RE_IMAG = re.compile(rf"^([+-]?(?:{_UNSIGNED})?)i$")
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
    """Parse ``a``, ``a+bi``, ``a-bi``, ``bi``, ``-bi`` (decimal a, b) to a complex."""
    s = literal.strip()
    m = _RE_REAL.match(s)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_FULL.match(s)
    if m:
        re_part = float(m.group(1))
        imag = m.group(2)
        im_part = float(imag) if imag not in ("+", "-") else float(imag + "1")
        return complex(re_part, im_part)
    m = _RE_IMAG.match(s)
    if m:
        imag = m.group(1)
        im_part = float(imag) if imag not in ("", "+", "-") else float((imag or "+") + "1")
        return complex(0.0, im_part)
    raise ParseError([Diagnostic(1, 1, f"malformed complex literal {literal.strip()!r}")])


def format_complex(z: complex) -> str:
    """Canonical literal whose reparse is bit-identical (signed zeros kept)."""
    re_s = repr(float(z.real))
    im = float(z.imag)
    im_s = repr(im)
    if im_s.startswith("-"):
        return f"{re_s}{im_s}i"
    return f"{re_s}+{im_s}i"


def _split_top_level(body: str, base_col: int, line: int) -> list[tuple[str, int]]:
    """Split a bracket body on top-level commas, keeping column offsets."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                _fail(line, base_col + i, "unbalanced ']' in literal")
        elif ch == "," and depth == 0:
            parts.append((body[start:i], base_col + start))
            start = i + 1
    if depth != 0:
        _fail(line, base_col, "unbalanced '[' in literal")
    parts.append((body[start:], base_col + start))
    return parts


def _parse_bracketed(text: str, line: int, col: int) -> tuple[str, int]:
    s = text.strip()
    offset = col + (len(text) - len(text.lstrip()))
    if not (s.startswith("[") and s.endswith("]")):
        _fail(line, offset, "expected a bracketed literal")
    return s[1:-1], offset + 1


def _parse_vector(text: str, line: int, col: int) -> np.ndarray:
    body, base = _parse_bracketed(text, line, col)
    entries = []
    for part, pcol in _split_top_level(body, base, line):
        if not part.strip():
            _fail(line, pcol, "empty entry in vector literal")
        try:
            entries.append(parse_complex(part))
        except ParseError as exc:
            _fail(line, pcol, exc.diagnostics[0].message)
    return np.array(entries, dtype=complex)


def _parse_matrix(text: str, line: int, col: int) -> np.ndarray:
    body, base = _parse_bracketed(text, line, col)
    rows = []
    width = None
    for part, pcol in _split_top_level(body, base, line):
        stripped = part.strip()
        if not stripped:
            _fail(line, pcol, "empty row in matrix literal")
        row = _parse_vector(part, line, pcol)
        if width is None:
            width = row.size
        elif row.size != width:
            _fail(line, pcol, f"matrix row has {row.size} entries, expected {width}")
        rows.append(row)
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _fail(line, base, f"matrix literal is {M.shape[0]}x{width}, expected square")
    return M


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
    dim = 2**n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    i = 0
    sign = 1.0
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
        factor = PAULI[word[0]]
        for ch in word[1:]:
            factor = np.kron(factor, PAULI[ch])
        total += coeff * factor
        i += 1
        if i == len(tokens):
            return total
        op, op_col = tokens[i]
        if op == "+":
            sign = 1.0
        elif op == "-":
            sign = -1.0
        else:
            _fail(1, op_col, f"expected '+' or '-' between terms, got {op!r}")
        i += 1


# ---------------------------------------------------------------------------
# system spec


@dataclass(frozen=True)
class SystemSpec:
    """Fully validated description of one experiment."""

    dim: int
    hbar: float
    kind: str
    hamiltonian: np.ndarray = field(compare=False)
    initial_state: DensityState = field(compare=False)
    observables: dict = field(compare=False)
    jumps: tuple = field(compare=False)
    kraus: object = None
    metadata: dict = field(default_factory=dict, compare=False)

    def observable(self, name: str) -> np.ndarray:
        if name not in self.observables:
            raise ValidationError(
                f"unknown observable {name!r}; declared: {sorted(self.observables) or 'none'}"
            )
        return self.observables[name]

    def generator(self, hbar: float | None = None, tol: float = DEFAULT_TOL) -> GeneratorSpec:
        """The system's dynamics, with ``hbar`` in place of the file's when
        given; ``tol`` is the Hamiltonian's Hermiticity tolerance."""
        hbar = self.hbar if hbar is None else hbar
        if self.kind == "unitary":
            return UnitaryGenerator(H=self.hamiltonian, hbar=hbar, tol=tol)
        if self.kind == "lindblad":
            return LindbladGenerator(H=self.hamiltonian, jumps=self.jumps, hbar=hbar, tol=tol)
        if self.kind == "kraus":
            if self.kraus is None:
                raise ValidationError("kraus kind requires a kraus family")
            return KrausGenerator(family=self.kraus)
        raise ValidationError(f"unknown dynamics kind {self.kind!r}")


@dataclass
class _Decl:
    key: str
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
        key = key_part.strip().lower()
        if not key:
            diags.append(Diagnostic(lineno, indent + 1, "missing key before '='"))
            continue
        value = value_part.strip()
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        current.decls.append(
            _Decl(key=key, value=value, line=lineno, key_col=indent + 1, value_col=value_col)
        )
    return sections


def _one_decl(section: _Section, keys: tuple, diags: list[Diagnostic], required=False):
    found = [d for d in section.decls if d.key in keys]
    for extra in section.decls:
        if extra.key not in keys:
            diags.append(
                Diagnostic(
                    extra.line,
                    extra.key_col,
                    f"unknown key {extra.key!r} in [{section.name}] section",
                )
            )
    if len(found) > 1:
        for d in found[1:]:
            diags.append(Diagnostic(d.line, d.key_col, f"duplicate {d.key!r} declaration"))
    if required and not found:
        diags.append(
            Diagnostic(section.line, 1, f"[{section.name}] section needs one of: {', '.join(keys)}")
        )
    return found[0] if found else None


def _parse_operator(decl: _Decl, dim: int, n_qubits, diags: list[Diagnostic]):
    """Dispatch a 'pauli =' or 'matrix =' declaration into a dim x dim matrix."""
    try:
        if decl.key == "pauli":
            if n_qubits is None:
                diags.append(
                    Diagnostic(decl.line, decl.value_col, f"pauli expressions need dim a power of 2, got {dim}")
                )
                return None
            try:
                return parse_pauli_expr(decl.value, n_qubits)
            except ParseError as exc:
                d = exc.diagnostics[0]
                diags.append(Diagnostic(decl.line, decl.value_col + d.col - 1, d.message))
                return None
        M = _parse_matrix(decl.value, decl.line, decl.value_col)
        if M.shape[0] != dim:
            diags.append(
                Diagnostic(decl.line, decl.value_col, f"matrix is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}")
            )
            return None
        return M
    except ParseError as exc:
        diags.extend(exc.diagnostics)
        return None


def _parse_float(decl: _Decl, diags: list[Diagnostic]):
    try:
        v = float(decl.value)
    except ValueError:
        diags.append(Diagnostic(decl.line, decl.value_col, f"malformed number {decl.value!r}"))
        return None
    if not np.isfinite(v):
        diags.append(Diagnostic(decl.line, decl.value_col, f"non-finite number {decl.value!r}"))
        return None
    return v


def parse_system(text: str, tol: float = DEFAULT_TOL) -> SystemSpec:
    """Parse and validate a complete ``.sys`` description.

    Raises :class:`ParseError` carrying positioned diagnostics on any syntax
    or validation failure; a partially-valid spec is never returned.
    """
    diags: list[Diagnostic] = []
    sections = _scan(text, diags)

    by_name: dict[str, list[_Section]] = {}
    for s in sections:
        by_name.setdefault(s.name, []).append(s)

    known = {"system", "hamiltonian", "state", "jump", "observable", "kraus"}
    for s in sections:
        if s.name not in known:
            diags.append(Diagnostic(s.line, 1, f"unknown section [{s.name}]"))
        if s.name != "observable" and s.arg is not None:
            diags.append(Diagnostic(s.line, 1, f"section [{s.name}] takes no name argument"))
    for name in ("system", "hamiltonian", "state", "kraus"):
        for dup in by_name.get(name, [])[1:]:
            diags.append(Diagnostic(dup.line, 1, f"duplicate [{name}] section"))

    # --- [system]
    dim = None
    hbar = 1.0
    kind_decl = None
    if "system" not in by_name:
        diags.append(Diagnostic(1, 1, "missing required [system] section"))
    else:
        sec = by_name["system"][0]
        seen = set()
        for d in sec.decls:
            if d.key in seen:
                diags.append(Diagnostic(d.line, d.key_col, f"duplicate {d.key!r} declaration"))
                continue
            seen.add(d.key)
            if d.key == "dim":
                try:
                    dim = int(d.value)
                except ValueError:
                    diags.append(Diagnostic(d.line, d.value_col, f"malformed integer {d.value!r}"))
                    continue
                if dim < 1:
                    diags.append(Diagnostic(d.line, d.value_col, f"dim must be positive, got {dim}"))
                    dim = None
                elif dim > MAX_DIM:
                    diags.append(Diagnostic(d.line, d.value_col, f"dim {dim} exceeds the supported maximum {MAX_DIM}"))
                    dim = None
            elif d.key == "hbar":
                v = _parse_float(d, diags)
                if v is not None:
                    if v <= 0:
                        diags.append(Diagnostic(d.line, d.value_col, f"hbar must be positive, got {v!r}"))
                    else:
                        hbar = v
            elif d.key == "kind":
                if d.value.lower() not in ("unitary", "lindblad", "kraus"):
                    diags.append(Diagnostic(d.line, d.value_col, f"unknown dynamics kind {d.value!r}"))
                else:
                    kind_decl = d.value.lower()
            else:
                diags.append(Diagnostic(d.line, d.key_col, f"unknown key {d.key!r} in [system] section"))
        if dim is None and not any("dim" == d.key for d in sec.decls):
            diags.append(Diagnostic(sec.line, 1, "[system] section must declare dim"))
    if dim is None:
        raise ParseError(diags or [Diagnostic(1, 1, "missing system dimension")])

    n_qubits = None
    if dim >= 2 and (dim & (dim - 1)) == 0:
        n_qubits = dim.bit_length() - 1

    # --- [hamiltonian]
    H = np.zeros((dim, dim), dtype=complex)
    if "hamiltonian" in by_name:
        sec = by_name["hamiltonian"][0]
        decl = _one_decl(sec, ("pauli", "matrix"), diags)
        if decl is not None:
            M = _parse_operator(decl, dim, n_qubits, diags)
            if M is not None:
                if not is_hermitian(M, tol):
                    diags.append(Diagnostic(decl.line, decl.value_col, "hamiltonian is not Hermitian within tolerance"))
                else:
                    H = M

    # --- [state]
    state = None
    if "state" not in by_name:
        diags.append(Diagnostic(1, 1, "missing required [state] section"))
    else:
        sec = by_name["state"][0]
        decl = _one_decl(sec, ("ket", "matrix"), diags, required=True)
        if decl is not None:
            try:
                if decl.key == "ket":
                    vec = _parse_vector(decl.value, decl.line, decl.value_col)
                    if vec.size != dim:
                        diags.append(Diagnostic(decl.line, decl.value_col, f"ket has {vec.size} entries, expected {dim}"))
                    elif not np.isfinite(vec).all() or np.linalg.norm(vec) == 0:
                        diags.append(Diagnostic(decl.line, decl.value_col, "ket must be a nonzero finite vector"))
                    else:
                        state = DensityState.pure(vec)
                else:
                    M = _parse_matrix(decl.value, decl.line, decl.value_col)
                    if M.shape[0] != dim:
                        diags.append(Diagnostic(decl.line, decl.value_col, f"state is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}"))
                    else:
                        try:
                            state = DensityState.from_matrix(M, tol=tol)
                        except ValidationError as exc:
                            diags.append(Diagnostic(decl.line, decl.value_col, f"invalid state: {exc}"))
            except ParseError as exc:
                diags.extend(exc.diagnostics)

    # --- [jump]*
    jumps = []
    for sec in by_name.get("jump", []):
        op_decl = None
        rate = 1.0
        seen = set()
        for d in sec.decls:
            if d.key in ("pauli", "matrix"):
                if "op" in seen:
                    diags.append(Diagnostic(d.line, d.key_col, "duplicate operator declaration in [jump]"))
                    continue
                seen.add("op")
                op_decl = d
            elif d.key == "rate":
                if "rate" in seen:
                    diags.append(Diagnostic(d.line, d.key_col, "duplicate 'rate' declaration"))
                    continue
                seen.add("rate")
                v = _parse_float(d, diags)
                if v is not None:
                    if v < 0:
                        diags.append(Diagnostic(d.line, d.value_col, f"negative rate {v!r}"))
                    else:
                        rate = v
            else:
                diags.append(Diagnostic(d.line, d.key_col, f"unknown key {d.key!r} in [jump] section"))
        if op_decl is None:
            diags.append(Diagnostic(sec.line, 1, "[jump] section needs a pauli or matrix operator"))
            continue
        L = _parse_operator(op_decl, dim, n_qubits, diags)
        if L is not None:
            jumps.append((L, rate))

    # --- [observable NAME]*
    observables: dict[str, np.ndarray] = {}
    for sec in by_name.get("observable", []):
        if sec.arg is None:
            diags.append(Diagnostic(sec.line, 1, "[observable] section needs a name: [observable NAME]"))
            continue
        if sec.arg in observables:
            diags.append(Diagnostic(sec.line, 1, f"duplicate observable {sec.arg!r}"))
            continue
        decl = _one_decl(sec, ("pauli", "matrix"), diags, required=True)
        if decl is None:
            continue
        M = _parse_operator(decl, dim, n_qubits, diags)
        if M is not None:
            if not is_hermitian(M, tol):
                diags.append(Diagnostic(decl.line, decl.value_col, f"observable {sec.arg!r} is not Hermitian within tolerance"))
            else:
                observables[sec.arg] = M

    # --- [kraus]
    kraus = None
    if "kraus" in by_name:
        sec = by_name["kraus"][0]
        family = None
        gamma = None
        times: list[float] = []
        ops_per_time: list[list[np.ndarray]] = []
        for d in sec.decls:
            if d.key == "family":
                if family is not None:
                    diags.append(Diagnostic(d.line, d.key_col, "duplicate 'family' declaration"))
                elif d.value.lower() not in ("dephasing", "tabulated"):
                    diags.append(Diagnostic(d.line, d.value_col, f"unknown kraus family {d.value!r}"))
                else:
                    family = d.value.lower()
            elif d.key == "gamma":
                v = _parse_float(d, diags)
                if v is not None:
                    if v < 0:
                        diags.append(Diagnostic(d.line, d.value_col, f"negative dephasing strength {v!r}"))
                    else:
                        gamma = v
            elif d.key == "time":
                v = _parse_float(d, diags)
                if v is not None:
                    times.append(v)
                    ops_per_time.append([])
            elif d.key == "k":
                if not times:
                    diags.append(Diagnostic(d.line, d.key_col, "'K =' before any 'time =' declaration"))
                    continue
                try:
                    M = _parse_matrix(d.value, d.line, d.value_col)
                except ParseError as exc:
                    diags.extend(exc.diagnostics)
                    continue
                if M.shape[0] != dim:
                    diags.append(Diagnostic(d.line, d.value_col, f"Kraus operator is {M.shape[0]}x{M.shape[0]}, expected {dim}x{dim}"))
                else:
                    ops_per_time[-1].append(M)
            else:
                diags.append(Diagnostic(d.line, d.key_col, f"unknown key {d.key!r} in [kraus] section"))
        if family == "dephasing":
            if dim != 2:
                diags.append(Diagnostic(sec.line, 1, "dephasing kraus family requires dim = 2"))
            elif gamma is None:
                diags.append(Diagnostic(sec.line, 1, "dephasing kraus family requires gamma"))
            else:
                kraus = DephasingKraus(gamma)
        elif family == "tabulated":
            counts = {len(ops) for ops in ops_per_time}
            if len(times) < 2:
                diags.append(Diagnostic(sec.line, 1, "tabulated kraus family needs at least two times"))
            elif len(counts) != 1 or counts == {0}:
                diags.append(Diagnostic(sec.line, 1, "every tabulated time needs the same nonzero number of K operators"))
            elif np.any(np.diff(times) <= 0):
                diags.append(Diagnostic(sec.line, 1, "tabulated kraus times must be strictly increasing"))
            else:
                try:
                    kraus = TabulatedKraus(times, np.array(ops_per_time))
                except ValidationError as exc:
                    diags.append(Diagnostic(sec.line, 1, str(exc)))
        elif family is None:
            diags.append(Diagnostic(sec.line, 1, "[kraus] section needs 'family = dephasing' or 'family = tabulated'"))

    # --- dynamics kind
    kind = kind_decl
    if kind is None:
        if kraus is not None and jumps:
            diags.append(Diagnostic(1, 1, "both jump operators and a kraus family given; declare kind in [system]"))
        elif kraus is not None:
            kind = "kraus"
        elif jumps:
            kind = "lindblad"
        else:
            kind = "unitary"
    elif kind == "kraus" and kraus is None:
        diags.append(Diagnostic(1, 1, "kind = kraus requires a [kraus] section"))

    if diags:
        raise ParseError(diags)
    assert state is not None

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return SystemSpec(
        dim=dim,
        hbar=hbar,
        kind=kind,
        hamiltonian=H,
        initial_state=state,
        observables=observables,
        jumps=tuple(jumps),
        kraus=kraus,
        metadata={"source_digest": digest},
    )


# ---------------------------------------------------------------------------
# serialization


def _format_matrix(M: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(format_complex(z) for z in row) + "]" for row in M)
    return f"[{rows}]"


def serialize_system(spec: SystemSpec) -> str:
    """Canonical text form; reparsing reproduces every matrix bit-exactly."""
    out = ["[system]", f"dim = {spec.dim}", f"hbar = {spec.hbar!r}", f"kind = {spec.kind}", ""]
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


# ---------------------------------------------------------------------------
# built-in systems


def builtin_names() -> list[str]:
    from importlib import resources

    pkg = resources.files("oqsl") / "systems"
    return sorted(p.name[: -len(".sys")] for p in pkg.iterdir() if p.name.endswith(".sys"))


def builtin_text(name: str) -> str:
    from importlib import resources

    path = resources.files("oqsl") / "systems" / f"{name}.sys"
    if not path.is_file():
        raise ValidationError(f"unknown built-in system {name!r}; available: {builtin_names()}")
    return path.read_text(encoding="utf-8")
