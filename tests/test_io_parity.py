"""The vectorized Matrix Market parser and writer against the line-by-line reference.

tests/reference_io.py keeps the parser and writer as they were before the
single ``np.loadtxt`` pass and the bulk format. On every well-formed text the
package must give the same triplets (values to the bit) and the same
metadata, raise on the same duplicate and mirror conflicts, and write the
same bytes.
"""

import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from mm_fixtures import FIXTURE_SUITE
from mrmf import MatrixFormatError, SquareMatrix, parse_matrix_market, write_matrix_market
from mrmf.data import _WRITE_CHUNK

SPECIAL_VALUES = (5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 3.0, -7.0, 2.0**53, 0.1)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_VALUES)


def assert_same_parse(got, want):
    (A, meta), (B, ref_meta) = got, want
    assert meta == ref_meta
    for g, w in zip(A.to_coo(), B.to_coo()):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def outcome(parse, text):
    """(matrix, metadata), or the kind of format error the text raised."""
    try:
        return parse(text)
    except MatrixFormatError as exc:
        msg = str(exc)
        return "mirrors" if "mirrors" in msg else "duplicate" if "duplicate" in msg else msg


@pytest.mark.parametrize("fx", FIXTURE_SUITE, ids=lambda fx: fx.name)
def test_fixture_matches_reference(fx):
    assert_same_parse(parse_matrix_market(fx.text), reference_io.parse_matrix_market(fx.text))
    A, _ = parse_matrix_market(fx.text)
    assert write_matrix_market(A) == reference_io.write_matrix_market(A)


def _value_text(draw, v):
    forms = [repr(v), f"{v:.17g}", f"{v:.17G}", f"{v:e}"]
    if v.is_integer() and abs(v) < 1e15:
        forms.append(str(int(v)))
    text = draw(st.sampled_from(forms))
    return "+" + text if draw(st.booleans()) and not text.startswith("-") else text


@st.composite
def mm_texts(draw):
    """Coordinate real text with the layout freedom collection files use.

    LF, CRLF or CR endings, tab and multi-space separators, leading and
    trailing whitespace, blank lines and comment lines anywhere after the
    header, and general, symmetric or skew-symmetric storage. With unique
    coordinates the text is well formed; otherwise it may repeat or mirror a
    coordinate.
    """
    symmetry = draw(st.sampled_from(["general", "symmetric", "skew-symmetric"]))
    n = draw(st.integers(1, 6))
    folded = symmetry != "general"

    def key(entry):
        (r, c), _ = entry
        return (max(r, c), min(r, c)) if folded else (r, c)

    coords = st.tuples(st.integers(1, n), st.integers(1, n))
    unique = draw(st.booleans())
    entries = draw(
        st.lists(st.tuples(coords, FINITE), max_size=12, unique_by=key if unique else None)
    )
    words = st.text(string.ascii_letters + string.digits + " :/-_.", max_size=12)
    sep = st.sampled_from([" ", "  ", "\t", " \t"])
    pad = st.sampled_from(["", " ", "\t", "  "])
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    comment = words.map("%{}".format) | words.map(" % {}".format)
    header_comment = st.sampled_from(["% name: Grp/toy", "% kind: graph", "%"]) | comment

    def filler():
        return draw(st.lists(pad | comment, max_size=2))

    banner = draw(st.sampled_from(["%%MatrixMarket", "%%matrixmarket"]))
    lines = [f"{banner} matrix coordinate real {symmetry}"]
    lines += draw(st.lists(header_comment, max_size=3))
    lines += filler()
    lines.append(draw(sep).join([str(n), str(n), str(len(entries))]) + draw(pad))
    for (r, c), v in entries:
        lines += filler()
        fields = [str(r), str(c), _value_text(draw, v)]
        lines.append(draw(pad) + draw(sep).join(fields) + draw(pad))
    lines += filler()
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text.encode("ascii") if draw(st.booleans()) else text


def _large_text(symmetry, eol, seed, count=4000):
    """A seeded text of count entries in the layout mm_texts draws from.

    Comment and blank lines fall between the entries, so the parser's line
    reads and loadtxt's cross many buffer boundaries with every ending.
    """
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    n = 500
    codes = rng.choice(n * n, size=count, replace=False)
    rows, cols = codes // n + 1, codes % n + 1
    if symmetry != "general":
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        _, first = np.unique(rows * n + cols, return_index=True)
        rows, cols = rows[np.sort(first)], cols[np.sort(first)]
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-300, 300, rows.size)
    ints = rng.random(rows.size) < 0.1
    vals[ints] = rng.integers(1, 1000, np.count_nonzero(ints))
    vals[: len(SPECIAL_VALUES)] = SPECIAL_VALUES

    def value_text(v):
        forms = [repr(v), f"{v:.17g}", f"{v:.17G}", f"{v:e}"]
        if v.is_integer() and abs(v) < 1e15:
            forms.append(str(int(v)))
        text = pick.choice(forms)
        return "+" + text if pick.random() < 0.2 and not text.startswith("-") else text

    fillers = ["", " ", "\t", "%", "% note", " % indented note", "%%% 1 1 1.0"]
    lines = [
        f"%%MatrixMarket matrix coordinate real {symmetry}",
        "% name: Grp/big",
        "% kind: seeded test text",
        "",
        f"{n} {n} {rows.size}",
    ]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        while pick.random() < 0.15:
            lines.append(pick.choice(fillers))
        sep = pick.choice([" ", "  ", "\t", " \t"])
        pad = pick.choice(["", " ", "\t"])
        lines.append(pad + sep.join([str(r), str(c), value_text(v)]) + pad)
    return eol.join(lines) + eol


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("symmetry", ["general", "symmetric", "skew-symmetric"])
def test_large_text_matches_reference(symmetry, eol):
    text = _large_text(symmetry, eol, seed=len(symmetry) * 10 + len(eol))
    want = reference_io.parse_matrix_market(text)
    assert want[1].name == "big" and want[1].nnz >= 4000
    for data in (text, text.encode("ascii")):
        assert_same_parse(parse_matrix_market(data), want)


@pytest.mark.parametrize(
    "body,str_ok,bytes_ok",
    [
        ("% a comment with ø\n2 2 2.0 % ø\n", True, True),
        ("2\xa02 2.0\n", True, False),
        ("2\u20032 2.0\n", True, False),
        ("\xa0\n2 2 2.0\n", True, False),
        ("2 2 2.0\xff\n", False, False),
    ],
    ids=["comments", "nbsp-separator", "em-space-separator", "nbsp-line", "letter"],
)
def test_non_ascii_text(body, str_ok, bytes_ok):
    # a str keeps its characters, so NBSP and other Unicode spaces separate
    # fields; in bytes every non-ASCII byte reads as U+FFFD, which never does.
    # The body's lines come after the first entry line: they reach loadtxt
    # without being decoded first
    text = "%%MatrixMarket matrix coordinate real general\n% name: Grp/tøy\n2 2 2\n1 1 1.0\n"
    text += body
    latin = text.encode("latin-1", "replace")
    for data, ok in ((text, str_ok), (text.encode(), bytes_ok), (latin, bytes_ok)):
        if ok:
            assert_same_parse(parse_matrix_market(data), reference_io.parse_matrix_market(data))
        else:
            with pytest.raises(MatrixFormatError, match="malformed coordinate line"):
                parse_matrix_market(data)


@settings(max_examples=400, deadline=None)
@given(mm_texts())
def test_generated_text_matches_reference(text):
    got = outcome(parse_matrix_market, text)
    want = outcome(reference_io.parse_matrix_market, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_parse(got, want)
        assert write_matrix_market(got[0]) == reference_io.write_matrix_market(want[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_writer_bytes_match_reference(n, data):
    codes = data.draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=n * n))
    vals = data.draw(st.lists(FINITE, min_size=len(codes), max_size=len(codes)))
    codes = np.array(codes, dtype=np.int64)
    A = SquareMatrix.from_coo(n, codes // n, codes % n, vals)
    for M in (A, SquareMatrix.from_dense(A.to_dense())):
        assert write_matrix_market(M) == reference_io.write_matrix_market(M)


@pytest.mark.parametrize(
    "nnz",
    [0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 2 * _WRITE_CHUNK + 1],
)
def test_writer_chunk_boundaries_match_reference(nnz):
    n = 300
    rng = np.random.default_rng(nnz)
    codes = np.sort(rng.choice(n * n, size=nnz, replace=False))
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-300, 300, nnz)
    A = SquareMatrix.from_coo(n, codes // n, codes % n, vals)
    for M in (A, SquareMatrix.from_dense(A.to_dense())):
        assert M.nnz == nnz
        assert write_matrix_market(M) == reference_io.write_matrix_market(M)


def test_writer_extreme_values_match_reference():
    vals = list(SPECIAL_VALUES)
    n = len(vals)
    A = SquareMatrix.from_coo(n, range(n), range(n)[::-1], vals)
    out = write_matrix_market(A)
    assert out == reference_io.write_matrix_market(A)
    for text in (b" 4.9406564584124654e-324\n", b" -1.0000000000000001e+300\n", b" -1e-300\n"):
        assert text in out
    assert b" 3\n" in out and b" 9007199254740992\n" in out
