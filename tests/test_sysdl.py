import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsl.cli import main
from oqsl.dynamics import DephasingKraus, TabulatedKraus
from oqsl.linalg import PAULI, ValidationError, sigma_x, sigma_z
from oqsl.sysdl import (
    _SECTIONS,
    Diagnostic,
    ParseError,
    SystemSpec,
    _format_matrix,
    format_complex,
    parse_complex,
    parse_pauli_expr,
    parse_system,
    serialize_system,
)

import oracles
from oracles import builtin_names, builtin_text

DEPHASING_TEXT = """\
# strength-1 dephasing written with the prefactor folded into the operator
[system]
dim = 2
hbar = 1.0

[hamiltonian]
pauli = 0.0 Z

[state]
ket = [0.70710678, 0.70710678]

[jump]
pauli = 0.70710678 Z
rate = 1.0

[observable O]
pauli = 1.0 X
"""


def spec_matrices_equal(a: SystemSpec, b: SystemSpec) -> bool:
    if (a.dim, a.hbar, a.kind) != (b.dim, b.hbar, b.kind):
        return False
    if a.hamiltonian.tobytes() != b.hamiltonian.tobytes():
        return False
    if a.initial_state.matrix.tobytes() != b.initial_state.matrix.tobytes():
        return False
    if sorted(a.observables) != sorted(b.observables):
        return False
    if any(a.observables[k].tobytes() != b.observables[k].tobytes() for k in a.observables):
        return False
    if len(a.jumps) != len(b.jumps):
        return False
    for (La, ga), (Lb, gb) in zip(a.jumps, b.jumps):
        if La.tobytes() != Lb.tobytes() or ga != gb:
            return False
    if type(a.kraus) is not type(b.kraus):
        return False
    if isinstance(a.kraus, DephasingKraus) and a.kraus.gamma != b.kraus.gamma:
        return False
    if isinstance(a.kraus, TabulatedKraus) and (
        a.kraus.times.tobytes() != b.kraus.times.tobytes()
        or a.kraus.ops.tobytes() != b.kraus.ops.tobytes()
    ):
        return False
    return True


# ---------------------------------------------------------------------------
# complex literals


@pytest.mark.parametrize(
    "literal,expected",
    [
        ("0.70710678+0i", complex(0.70710678, 0.0)),
        ("-1i", complex(0.0, -1.0)),
        ("1e-3+2.5i", complex(0.001, 2.5)),
        ("2", complex(2.0, 0.0)),
        ("-3.5", complex(-3.5, 0.0)),
        ("2.5i", complex(0.0, 2.5)),
        ("-0.25i", complex(0.0, -0.25)),
        ("i", complex(0.0, 1.0)),
        ("-i", complex(0.0, -1.0)),
        ("1.5-2e2i", complex(1.5, -200.0)),
        (".5+.25i", complex(0.5, 0.25)),
        ("+i", complex(0.0, 1.0)),
        ("1+i", complex(1.0, 1.0)),
        ("2-i", complex(2.0, -1.0)),
        ("+2.5i", complex(0.0, 2.5)),
        ("+3.", complex(3.0, 0.0)),
        (" 1e5-2E-3i ", complex(1e5, -2e-3)),
    ],
)
def test_parse_complex_accepts(literal, expected):
    assert parse_complex(literal) == expected


@pytest.mark.parametrize("literal", ["", "1+", "i2", "1 + 2i", "2j", "1..2", "1e", "+-1", "inf", "nan", "1_0", "(1+2i)"])
def test_parse_complex_rejects(literal):
    with pytest.raises(ParseError) as exc_info:
        parse_complex(literal)
    assert exc_info.value.diagnostics[0].message == f"malformed complex literal {literal!r}"


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1e999i", "1-1e999i", "1e999+1e999i"])
def test_parse_complex_rejects_overflow(literal):
    with pytest.raises(ParseError) as exc_info:
        parse_complex(literal)
    assert exc_info.value.diagnostics[0].message == f"non-finite number {literal!r}"


def test_parse_complex_bit_exact_rounding():
    assert parse_complex("1e-3+2.5i").real == float("1e-3")
    assert parse_complex("0.1").real == 0.1


@settings(max_examples=200, deadline=None)
@given(
    re_part=st.floats(allow_nan=False, allow_infinity=False),
    im_part=st.floats(allow_nan=False, allow_infinity=False),
)
def test_complex_literal_round_trip(re_part, im_part):
    z = complex(re_part, im_part)
    back = parse_complex(format_complex(z))
    assert repr(back.real) == repr(z.real)
    assert repr(back.imag) == repr(z.imag)


# ---------------------------------------------------------------------------
# Pauli expressions


def test_pauli_single_letter():
    assert np.array_equal(parse_pauli_expr("1.0 Z", 1), sigma_z)


def test_pauli_two_qubit_sum():
    got = parse_pauli_expr("0.5 XX + 0.5 YY", 2)
    want = 0.5 * np.kron(PAULI["X"], PAULI["X"]) + 0.5 * np.kron(PAULI["Y"], PAULI["Y"])
    assert np.abs(got - want).max() == 0.0
    explicit = np.zeros((4, 4), dtype=complex)
    explicit[0, 3] = 0.5 - 0.5
    explicit[1, 2] = 0.5 + 0.5
    explicit[2, 1] = 0.5 + 0.5
    explicit[3, 0] = 0.5 - 0.5
    assert np.abs(got - explicit).max() == 0.0


def test_pauli_subtraction_and_complex_coeff():
    got = parse_pauli_expr("1.0 X - 0.5 Z", 1)
    assert np.abs(got - (sigma_x - 0.5 * sigma_z)).max() == 0.0
    got = parse_pauli_expr("1i Y", 1)
    assert np.abs(got - 1j * PAULI["Y"]).max() == 0.0


def test_pauli_word_length_mismatch():
    with pytest.raises(ParseError) as exc_info:
        parse_pauli_expr("1.0 XZY", 2)
    assert "length 3" in str(exc_info.value)


def test_pauli_bad_character():
    with pytest.raises(ParseError):
        parse_pauli_expr("1.0 XQ", 2)


def test_pauli_trailing_operator():
    with pytest.raises(ParseError):
        parse_pauli_expr("1.0 X +", 1)


def test_pauli_zero_coefficient_allowed():
    assert np.abs(parse_pauli_expr("0.0 Z", 1)).max() == 0.0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    terms=st.integers(1, 4),
)
def test_pauli_real_coefficients_give_hermitian(n, seed, terms):
    r = np.random.default_rng(seed)
    words = ["".join(r.choice(list("IXYZ"), size=n)) for _ in range(terms)]
    coeffs = r.uniform(-2, 2, size=terms)
    expr = " + ".join(f"{float(c)!r} {w}" for c, w in zip(coeffs, words))
    M = parse_pauli_expr(expr, n)
    assert np.abs(M - M.conj().T).max() <= 1e-12


# ---------------------------------------------------------------------------
# full-file parsing


def test_parse_dephasing_text_matches_hand_built():
    spec = parse_system(DEPHASING_TEXT)
    assert spec.dim == 2 and spec.hbar == 1.0 and spec.kind == "lindblad"
    assert np.abs(spec.hamiltonian).max() == 0.0
    (L, rate), = spec.jumps
    assert rate == 1.0
    assert L.tobytes() == (float("0.70710678") * sigma_z).tobytes()
    amp = float("0.70710678")
    ket = np.array([amp, amp]) / np.linalg.norm([amp, amp])
    assert np.abs(spec.initial_state.matrix - np.outer(ket, ket)).max() <= 1e-15
    assert np.array_equal(spec.observables["O"], sigma_x)


def test_parse_round_trip_of_spec_text():
    spec = parse_system(DEPHASING_TEXT)
    again = parse_system(serialize_system(spec))
    assert spec_matrices_equal(spec, again)


@pytest.mark.parametrize("name", sorted(builtin_names()))
def test_builtin_corpus_round_trips_bit_exact(name):
    spec = parse_system(builtin_text(name))
    again = parse_system(serialize_system(spec))
    assert spec_matrices_equal(spec, again)


def test_builtin_unknown_name():
    with pytest.raises(ValidationError):
        builtin_text("nosuch")


def test_empty_hamiltonian_is_zero_matrix():
    spec = parse_system("[system]\ndim = 3\n[state]\nket = [1, 0, 0]\n")
    assert spec.hamiltonian.shape == (3, 3)
    assert np.abs(spec.hamiltonian).max() == 0.0
    assert spec.kind == "unitary"


def test_negative_rate_diagnostic_position():
    text = "[system]\ndim = 2\n[state]\nket = [1, 0]\n[jump]\npauli = 1.0 Z\nrate = -1.0\n"
    with pytest.raises(ParseError) as exc_info:
        parse_system(text)
    diags = exc_info.value.diagnostics
    assert any(d.line == 7 and "negative rate" in d.message for d in diags)
    assert all(d.line >= 1 and d.col >= 1 for d in diags)


KRAUS_TABLE = "[system]\ndim = 2\nkind = kraus\n[state]\nket = [1, 0]\n[kraus]\nfamily = tabulated\n"
KRAUS_NAN_TIME = KRAUS_TABLE + "time = 0.0\nK = [[1, 0], [0, 1]]\ntime = nan\nK = [[1, 0], [0, 1]]\n"


@pytest.mark.parametrize(
    "text,line",
    [
        (KRAUS_NAN_TIME, 10),
        (KRAUS_TABLE + "time = 0.0\nK = [[1, 0], [0, 1]]\ntime = 1.0\nK = [[1, 0], [0]]\n", 11),
    ],
    ids=["bad-time", "bad-K"],
)
def test_kraus_table_fault_is_its_only_diagnostic(text, line):
    with pytest.raises(ParseError) as exc_info:
        parse_system(text)
    (diag,) = exc_info.value.diagnostics
    assert diag.line == line


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[system]\ndim = 0\n[state]\nket = [1]\n", "dim must be positive"),
        ("[system]\ndim = 99999\n[state]\nket = [1]\n", "supported maximum"),
        ("[system]\ndim = 2\n", "missing required [state]"),
        ("[state]\nket = [1, 0]\n", "missing required [system]"),
        ("[system]\ndim = 2\n[state]\nket = [1, 0, 0]\n", "expected 2"),
        ("[system]\ndim = 2\n[state]\nket = [0, 0]\n", "nonzero"),
        ("[system]\ndim = 2\n[state]\nmatrix = [[1, 1], [0, 0]]\n", "invalid state"),
        ("[system]\ndim = 2\n[state]\nket = [1, 0]\n[hamiltonian]\npauli = 1i X\n", "not Hermitian"),
        ("[system]\ndim = 2\n[state]\nket = [1, 0]\n[nosuch]\nx = 1\n", "unknown section"),
        ("[system]\ndim = 2\ndim = 3\n[state]\nket = [1, 0]\n", "duplicate"),
        ("[system]\ndim = 2\n[state]\nket = [1, 0]\njunk line\n", "expected 'key = value'"),
        ("[system]\ndim = 2\n[state]\nket = [1, 0]\n[observable]\npauli = 1.0 X\n", "needs a name"),
        (
            "[system]\ndim = 2\n[state]\nket = [1, 0]\n[observable O]\npauli = 1i X\n[observable O]\npauli = 1.0 Z\n",
            "duplicate observable",
        ),
        ("[system]\ndim = 3\n[state]\nket = [1, 0, 0]\n[hamiltonian]\npauli = 1.0 Z\n", "power of 2"),
        ("key = 1\n", "outside any section"),
        ("[system]\ndim = 2\nhbar = -1\n[state]\nket = [1, 0]\n", "hbar must be positive"),
        (KRAUS_NAN_TIME, "t.sys:10:8: non-finite number 'nan'"),
        ("[system]\ndim = 2\nhbar = -inf\n[state]\nket = [1, 0]\n", "t.sys:3:8: non-finite number '-inf'"),
        ("[system]\ndim = 2\nhbar = 1e999\n[state]\nket = [1, 0]\n", "t.sys:3:8: non-finite number '1e999'"),
        ("[system]\ndim = 2\nhbar = 0x1\n[state]\nket = [1, 0]\n", "t.sys:3:8: malformed number '0x1'"),
        ("[system]\ndim = 2.0\n[state]\nket = [1, 0]\n", "t.sys:2:7: malformed integer '2.0'"),
        ("[system]\ndim = 2\nFoo = 1\n[state]\nket = [1, 0]\n", "unknown key 'Foo'"),
        (
            "[system]\ndim = 2\n[state]\nket = [1, 0]\n[kraus]\nfamily = dephasing\ngamma = 1\nK = [[1, 0], [0, 1]]\n",
            "'K' is a key of family = tabulated",
        ),
    ],
)
def test_validation_diagnostics(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_system(text)
    rendered = exc_info.value.render("t.sys")
    assert fragment in rendered
    assert all(d.line >= 1 and d.col >= 1 for d in exc_info.value.diagnostics)


# every slot of every section declared once, and a valid value for each key:
# a lindblad file, and a kraus one for [kraus], which no other kind reads
FULL = {
    "system": ["dim = 2", "hbar = 1.0", "kind = lindblad"],
    "hamiltonian": ["pauli = 1.0 Z"],
    "state": ["ket = [1, 0]"],
    "jump": ["pauli = 1.0 Z", "rate = 0.5"],
    "observable": ["pauli = 1.0 X"],
}
FULL_KRAUS = {
    "system": ["dim = 2", "hbar = 1.0", "kind = kraus"],
    "state": ["ket = [1, 0]"],
    "observable": ["pauli = 1.0 X"],
    "kraus": ["family = dephasing", "gamma = 1.0"],
}


def _full(section: str) -> dict:
    return FULL_KRAUS if section == "kraus" else FULL


VALUES = {
    "dim": "2", "hbar": "1.0", "kind": "lindblad", "pauli": "1.0 X", "matrix": "[[1, 0], [0, 1]]",
    "ket": "[1, 0]", "rate": "0.5", "family": "dephasing", "gamma": "1.0",
}


def _sys_text(sections: dict) -> str:
    lines = []
    for name, decls in sections.items():
        lines += ["[observable O]" if name == "observable" else f"[{name}]", *decls]
    return "\n".join(lines) + "\n"


def _reader_cases():
    """(id, section, its declarations, whether the fault is on the last
    declaration or on the section header)."""
    for name, layout in _SECTIONS.items():
        full = _full(name)[name]
        yield f"{name}-unknown", name, full + ["bogus = 1"], "last"
        for key, slot in layout.keys.items():
            if slot is not None:
                yield f"{name}-second-{key}", name, full + [f"{key} = {VALUES[key]}"], "last"
        for slot in layout.required:
            kept = [d for d in full if layout.keys[d.split(" = ")[0]] != slot]
            yield f"{name}-missing-{slot}", name, kept, "header"


READER_CASES = list(_reader_cases())


@pytest.mark.parametrize("section,decls,where", [c[1:] for c in READER_CASES], ids=[c[0] for c in READER_CASES])
def test_section_reader_reports_each_key_fault_once(section, decls, where):
    text = _sys_text({**_full(section), section: decls})
    with pytest.raises(ParseError) as exc_info:
        parse_system(text)
    (diag,) = exc_info.value.diagnostics
    header = next(i for i, line in enumerate(text.splitlines(), start=1) if line.startswith(f"[{section}"))
    assert diag.line == (header + len(decls) if where == "last" else header)


def test_readme_format_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    spec = parse_system(block)
    assert spec.kind == "lindblad" and set(spec.observables) == {"O"}


def test_kind_inference_and_override():
    base = "[system]\ndim = 2\n{extra}[state]\nket = [1, 0]\n{body}"
    assert parse_system(base.format(extra="", body="")).kind == "unitary"
    lind = base.format(extra="", body="[jump]\npauli = 1.0 Z\nrate = 0.5\n")
    assert parse_system(lind).kind == "lindblad"
    kraus = base.format(extra="", body="[kraus]\nfamily = dephasing\ngamma = 1.0\n")
    assert parse_system(kraus).kind == "kraus"
    both = base.format(
        extra="", body="[jump]\npauli = 1.0 Z\nrate = 0.5\n[kraus]\nfamily = dephasing\ngamma = 1.0\n"
    )
    with pytest.raises(ParseError) as exc_info:
        parse_system(both)
    assert "declare kind" in str(exc_info.value)
    # a declared kind overrides the inference, here from no section at all
    resolved = base.format(extra="kind = lindblad\n", body="")
    assert parse_system(resolved).kind == "lindblad"
    with pytest.raises(ParseError):
        parse_system(base.format(extra="kind = kraus\n", body=""))


@pytest.mark.parametrize(
    "kind,body,unread",
    [
        ("unitary", "[hamiltonian]\npauli = 1.0 Z\n[jump]\npauli = 1.0 Z\nrate = 5\n", ["jump"]),
        ("lindblad", "[jump]\npauli = 1.0 Z\n[kraus]\nfamily = dephasing\ngamma = 1.0\n", ["kraus"]),
        (
            "kraus",
            "[hamiltonian]\npauli = 1.0 Z\n[jump]\npauli = 1.0 Z\n[kraus]\nfamily = dephasing\ngamma = 1.0\n",
            ["hamiltonian", "jump"],
        ),
    ],
    ids=["unitary-jump", "lindblad-kraus", "kraus-hamiltonian-jump"],
)
def test_sections_the_kind_does_not_read_are_errors(kind, body, unread, tmp_path):
    # each was dropped without a word, and bound exited 0 on what was left
    text = f"[system]\ndim = 2\nkind = {kind}\n[state]\nket = [1, 0]\n{body}[observable O]\npauli = 1.0 X\n"
    path = tmp_path / "unread.sys"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert main(["bound", "--system", str(path), "--observable", "O", "--tmax", "1"], out=out, err=err) == 2
    headers = {line[1:-1]: i for i, line in enumerate(text.splitlines(), start=1) if line.startswith("[")}
    message = "section is not read by kind = {}: remove it, or declare kind as one that reads it"
    expected = [f"{path}:{headers[name]}:1: [{name}] {message.format(kind)}" for name in unread]
    assert err.getvalue().splitlines() == expected and out.getvalue() == ""


def test_tabulated_kraus_parse_and_round_trip():
    text = (
        "[system]\ndim = 2\n[state]\nket = [1, 0]\n"
        "[kraus]\nfamily = tabulated\n"
        "time = 0.0\nK = [[1, 0], [0, 1]]\nK = [[0, 0], [0, 0]]\n"
        "time = 0.5\nK = [[0.8, 0], [0, 0.8]]\nK = [[0.6, 0], [0, -0.6]]\n"
    )
    spec = parse_system(text)
    assert isinstance(spec.kraus, TabulatedKraus)
    assert spec.kraus.n_ops == 2 and spec.kraus.times.tolist() == [0.0, 0.5]
    again = parse_system(serialize_system(spec))
    assert spec_matrices_equal(spec, again)


def test_tabulated_kraus_uneven_counts_rejected():
    text = (
        "[system]\ndim = 2\n[state]\nket = [1, 0]\n"
        "[kraus]\nfamily = tabulated\n"
        "time = 0.0\nK = [[1, 0], [0, 1]]\n"
        "time = 0.5\nK = [[1, 0], [0, 1]]\nK = [[0, 0], [0, 0]]\n"
    )
    with pytest.raises(ParseError):
        parse_system(text)


def test_source_digest_recorded():
    spec = parse_system(DEPHASING_TEXT)
    assert len(spec.metadata["source_digest"]) == 64


def test_observable_lookup_error():
    spec = parse_system(DEPHASING_TEXT)
    with pytest.raises(ValidationError):
        spec.observable("missing")


def test_generator_construction_by_kind():
    spec = parse_system(builtin_text("tight_qubit"))
    gen = spec.generator()
    assert gen.H.tobytes() == spec.hamiltonian.tobytes()
    spec = parse_system(builtin_text("dephasing"))
    assert len(spec.generator().jumps) == 1
    spec = parse_system(builtin_text("kraus_dephasing"))
    assert spec.generator() is spec.kraus and isinstance(spec.kraus, DephasingKraus)


# ---------------------------------------------------------------------------
# fuzzing


def _mutate(rng, text: str) -> str:
    data = list(text)
    op = rng.integers(0, 5)
    if not data:
        return "x"
    pos = int(rng.integers(0, len(data)))
    if op == 0:
        data[pos] = chr(int(rng.integers(32, 127)))
    elif op == 1:
        del data[pos]
    elif op == 2:
        data.insert(pos, chr(int(rng.integers(32, 127))))
    elif op == 3:
        return "".join(data[:pos])
    else:
        lines = text.splitlines(keepends=True)
        if len(lines) > 1:
            i, j = rng.integers(0, len(lines), size=2)
            lines[int(i)], lines[int(j)] = lines[int(j)], lines[int(i)]
            return "".join(lines)
    return "".join(data)


def run_mutation_fuzz(iterations: int, seed: int = 99) -> int:
    rng = np.random.default_rng(seed)
    base_texts = [builtin_text(n) for n in builtin_names()] + [DEPHASING_TEXT]
    diagnostics_seen = 0
    for i in range(iterations):
        text = base_texts[i % len(base_texts)]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate(rng, text)
        try:
            parse_system(text)
        except ParseError as exc:
            assert exc.diagnostics, "ParseError must carry diagnostics"
            assert all(d.line >= 1 and d.col >= 1 for d in exc.diagnostics)
            diagnostics_seen += 1
    return diagnostics_seen


def test_mutation_fuzz_never_crashes():
    seen = run_mutation_fuzz(1000)
    assert seen > 0


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=300))
def test_arbitrary_text_never_crashes(text):
    try:
        parse_system(text)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# entries that overflow a float


NON_FINITE_BASE = "[system]\ndim = 2\n[state]\nket = [1, 0]\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "body,line,col,entry",
    [
        ("[jump]\nmatrix = [[0, 1e999], [0, 0]]\n", 6, 14, "1e999"),
        ("[observable O]\nmatrix = [[1, 0], [0, 1e999]]\n", 6, 22, "1e999"),
        ("[kraus]\nfamily = tabulated\ntime = 0.0\nK = [[1, 0], [0, 1]]\ntime = 1.0\nK = [[1e999, 0], [0, 1]]\n", 10, 7, "1e999"),
        ("[hamiltonian]\npauli = 1.0 Z + 1e999 X\n", 6, 17, "1e999"),
    ],
    ids=["jump", "observable", "K", "pauli-coefficient"],
)
def test_non_finite_entry_is_reported_where_written(body, line, col, entry):
    with pytest.raises(ParseError) as exc_info:
        parse_system(NON_FINITE_BASE + body)
    assert exc_info.value.diagnostics == [Diagnostic(line, col, f"non-finite number {entry!r}")]


KET_BASE = "[system]\ndim = 2\n[state]\nket = "


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ket,expected",
    [
        ("[1e200, 1e200]", [[0.5, 0.5], [0.5, 0.5]]),
        ("[1.7e308+1.7e308i, 0]", [[1, 0], [0, 0]]),
        ("[1e-200, -1e-200i]", [[0.5, 0.5j], [-0.5j, 0.5]]),
        ("[5e-324, 0]", [[1, 0], [0, 0]]),
    ],
    ids=["norm-overflows", "modulus-overflows", "norm-underflows", "subnormal"],
)
def test_ket_is_normalized_without_overflow(ket, expected):
    rho = parse_system(KET_BASE + ket + "\n").initial_state.matrix
    assert np.abs(rho - np.array(expected)).max() <= 4e-16


def test_ket_scaling_leaves_an_ordinary_state_unchanged():
    rho = parse_system(KET_BASE + "[0.6, -0.3+0.7i]\n").initial_state.matrix
    psi = np.array([0.6, -0.3 + 0.7j]) / np.linalg.norm([0.6, -0.3 + 0.7j])
    assert np.array_equal(rho, np.outer(psi, psi.conj()))


def test_zero_ket_is_reported_where_written():
    with pytest.raises(ParseError) as exc_info:
        parse_system(KET_BASE + "[0, -0.0i]\n")
    assert exc_info.value.diagnostics == [Diagnostic(4, 7, "ket must be a nonzero finite vector")]


def test_non_ascii_digit_is_rejected_where_written():
    # ARABIC-INDIC DIGIT ONE, which Python's float() and \d accept
    with pytest.raises(ParseError) as exc_info:
        parse_system(KET_BASE + "[\u0661, 0]\n")
    assert exc_info.value.diagnostics == [Diagnostic(4, 8, "malformed complex literal '\u0661'")]
    with pytest.raises(ParseError):
        parse_complex("\u0661.5")


SCALAR_FILES = {
    # key: (file with {} for the value, line and column of the value)
    "dim": ("[system]\ndim = {}\n", 2, 7),
    "hbar": ("[system]\ndim = 2\nhbar = {}\n", 3, 8),
    "rate": ("[system]\ndim = 2\n[jump]\npauli = 1.0 Z\nrate = {}\n", 5, 8),
    "gamma": ("[system]\ndim = 2\n[kraus]\nfamily = dephasing\ngamma = {}\n", 5, 9),
    "time": ("[system]\ndim = 2\n[kraus]\nfamily = tabulated\ntime = {}\nK = [[1, 0], [0, 1]]\n", 5, 8),
}


@pytest.mark.parametrize("value", ["\u0662", "1_0"], ids=["arabic-indic-digit", "underscore"])
@pytest.mark.parametrize("key", sorted(SCALAR_FILES))
def test_scalar_outside_the_ascii_grammar_exits_2_where_written(key, value, tmp_path):
    # Python's int() and float() read both values (as 2 and 10); the format does not
    template, line, col = SCALAR_FILES[key]
    path = tmp_path / "scalar.sys"
    path.write_text(template.format(value), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert main(["parse", "--system", str(path)], out=out, err=err) == 2
    kind = "integer" if key == "dim" else "number"
    assert f"{path}:{line}:{col}: malformed {kind} {value!r}" in err.getvalue().splitlines()


def test_scalars_in_the_grammar_parse():
    spec = parse_system("[system]\ndim = +2\nhbar = 2.\n[state]\nket = [1, 0]\n[jump]\npauli = 1.0 Z\nrate = .5e-1\n")
    assert (spec.dim, spec.hbar, spec.jumps[0][1]) == (2, 2.0, 0.05)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2 * n * n, max_size=2 * n * n)
    )
)
def test_reprint_matches_per_entry_format_complex(parts):
    # signed zeros, subnormals and large exponents included; the text is
    # byte-identical to one format_complex call per entry
    n = int(round((len(parts) / 2) ** 0.5))
    M = np.empty((n, n), dtype=complex)
    M.real, M.imag = np.reshape(parts, (2, n, n))
    assert _format_matrix(M) == oracles.format_matrix_per_entry(M)


def test_diagnostic_render_format():
    d = Diagnostic(line=3, col=7, message="boom")
    assert d.render("file.sys") == "file.sys:3:7: boom"
