"""The ``.sys`` literal reader against the character-walking reader it
replaced (``oracles._parse_vector`` / ``oracles._parse_matrix``): on valid
literals both give bit-identical arrays, and on every single-character
mutation of one both give the same first diagnostic. The differences are
an entry that overflows a float and a non-ASCII digit, which only the new
reader rejects; the mutations here insert ASCII digits only. The new
reader's fast path, complex() on each entry of a literal of the ``_PLAIN``
characters, accepts the language of the entry pattern it skips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oqsl.sysdl import _ENTRY, _PLAIN, ParseError, _literal, format_complex

LINE, COL = 7, 10  # where the literal starts, as after "matrix = "

# unsigned numbers: repr (signed zeros, subnormals, large exponents) and the
# grammar's other spellings (".5", "5.", an upper-case exponent)
floats = st.floats(allow_nan=False, allow_infinity=False)
magnitudes = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
spellings = st.sampled_from(["repr", "no-lead", "trailing-dot", "E", "g"])


@st.composite
def unsigned(draw) -> str:
    x, how = draw(magnitudes), draw(spellings)
    s = repr(x)
    if how == "no-lead" and s.startswith("0."):
        return s[1:]
    if how == "trailing-dot" and s.endswith(".0"):
        return s[:-1]
    if how == "E":
        return f"{x:E}"
    if how == "g":
        return f"{x:.17g}"
    return s


signs = st.sampled_from(["", "+", "-"])
FORMS = ("a", "a+bi", "a+i", "bi", "i", "format_complex")


@st.composite
def entry(draw) -> str:
    form = draw(st.sampled_from(FORMS))
    if form == "format_complex":
        return format_complex(complex(draw(floats), draw(floats)))
    a = draw(signs) + draw(unsigned())
    b = draw(unsigned())
    joiner = draw(st.sampled_from(["+", "-"]))
    return {
        "a": a,
        "a+bi": f"{a}{joiner}{b}i",
        "a+i": f"{a}{joiner}i",
        "bi": f"{draw(signs)}{b}i",
        "i": f"{draw(signs)}i",
    }[form]


space = st.sampled_from(["", "", " ", "  ", "\t", "\xa0"])


@st.composite
def vector_text(draw, size: int) -> str:
    items = [draw(space) + draw(entry()) + draw(space) for _ in range(size)]
    return "[" + ",".join(items) + "]"


@st.composite
def literal(draw) -> tuple:
    """(rank, text): a vector, or a matrix that is square three times in four."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return 1, draw(space) + draw(vector_text(n)) + draw(space)
    width = n if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
    rows = [draw(space) + draw(vector_text(width)) + draw(space) for _ in range(n)]
    return 2, draw(space) + "[" + ",".join(rows) + "]" + draw(space)


def read(reader, text: str):
    """("ok", shape, dtype, bytes) or ("diagnostic", line, col, message)."""
    try:
        M = reader(text)
    except ParseError as exc:
        d = exc.diagnostics[0]
        return "diagnostic", d.line, d.col, d.message
    return "ok", M.shape, M.dtype.str, M.tobytes()


def old_reader(rank: int):
    read_old = oracles._parse_vector if rank == 1 else oracles._parse_matrix
    return lambda text: read_old(text, LINE, COL)


def new_reader(rank: int):
    return lambda text: _literal(text, LINE, COL, rank)


def assert_same(rank: int, text: str):
    old, new = read(old_reader(rank), text), read(new_reader(rank), text)
    if new[0] == "diagnostic" and new[3].startswith("non-finite number"):
        # the replaced reader read the entry as an infinity; with a 0 in its
        # place (same width, so no column moves) the two readers agree again
        start = new[2] - COL
        end = re.compile(r"[][,]").search(text, start).start()
        fixed = text[:start] + "0".rjust(end - start) + text[end:]
        if old[0] == "ok":
            assert not np.isfinite(np.frombuffer(old[3], dtype=complex)).all()
        else:
            assert old == read(old_reader(rank), fixed)
        return assert_same(rank, fixed)
    assert new == old, text


@settings(max_examples=200, deadline=None)
@given(literal())
def test_valid_literals_read_bit_identically(case):
    rank, text = case
    assert read(new_reader(rank), text) == read(old_reader(rank), text)
    assert_same(rank, text)


# diagnostics that single-character mutations of valid literals rarely reach
@pytest.mark.parametrize(
    "rank,text",
    [
        (2, "[[1], , [2]]"),
        (2, "[[1, 2], ]"),
        (2, "[]"),
        (1, "[]"),
        (1, "[1, , 2]"),
        (1, "[1, 2, ]"),
        (2, "[[1, 2], [3]]"),
        (2, "[[1], [2, 3]]"),
        (2, "[[1] [2], [3]]"),
        (2, "[1, [2]]"),
        (2, " [[1], x[2]] "),
        (2, "[[1], [2]x]"),
        (2, "[[[1]], [2]]"),
        (1, "[1, [2, 3], x]"),
        (1, "[1, 2]]"),
        (1, "[[1, 2]"),
        (2, "[[1, 2], [3, 4]"),
        (2, "[[1e999, 2], [3, 1e999]]"),
        (2, "[[1, 2], [3, 1e999], [x]]"),
        (1, "[1, 1e999, x]"),
        (1, "[1, x, 1e999]"),
        (1, "[1 i, 2j]"),
        (1, "[\x1c1\x1c, 2\x85]"),
        (1, "1, 2"),
        # parts that hold a group, which the cut at top-level commas must place
        (1, "[1, 2[3], 4]"),
        (1, "[[1]]"),
        (2, "[[1]2, [3]]"),
        (2, "[[1, [2]], [3, 4]]"),
        (2, "[ [1, 2] ,\t[3, 4] ]"),
    ],
)
def test_hand_written_faults_give_the_same_first_diagnostic(rank, text):
    assert_same(rank, text)


# ASCII digits only: the reader accepts no other, while the replaced one read
# any Unicode decimal digit (test_sysdl checks that one is rejected)
MUTATIONS = "[],  \t\xa0\x1c+-.eEij0123456789xZ"


@settings(max_examples=600, deadline=None)
@given(literal(), st.integers(0, 10**6), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(MUTATIONS))
def test_mutated_literals_give_the_same_first_diagnostic(case, where, how, char):
    rank, text = case
    i = where % (len(text) + 1)
    if how == "insert":
        text = text[:i] + char + text[i:]
    elif how == "delete":
        text = text[:i] + text[i + 1 :]
    else:
        text = text[:i] + char + text[i + 1 :]
    assert_same(rank, text)


def _complex_reads(s: str) -> bool:
    try:
        complex(s)
    except ValueError:
        return False
    return True


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet="0123456789.eE+-j \t_naifJ()", max_size=12))
def test_plain_entries_are_read_as_the_entry_pattern_reads_them(s):
    # over the characters of the literal grammar (i written j) and a few that
    # complex() reads too: the fast path takes an entry where _ENTRY does
    assert (_PLAIN.fullmatch(s) is not None and _complex_reads(s)) == (_ENTRY.fullmatch(s) is not None), s


@pytest.mark.parametrize("entry", ["1_0", "nan", "inf", "(1+2j)", "1J"])
def test_plain_refuses_what_only_complex_reads(entry):
    assert _complex_reads(entry) and not _ENTRY.fullmatch(entry) and not _PLAIN.fullmatch(entry)
