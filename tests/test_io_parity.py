"""The vectorized Matrix Market parser and writer against the line-by-line reference.

tests/reference_io.py keeps the parser and writer as they were before the
single ``np.loadtxt`` pass and the bulk format. On every well-formed text the
package must give the same triplets (values to the bit) and the same
metadata, raise on the same duplicate and mirror conflicts, and write the
same bytes.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from mm_fixtures import FIXTURE_SUITE
from mrmf import MatrixFormatError, SquareMatrix, parse_matrix_market, write_matrix_market

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


def test_writer_extreme_values_match_reference():
    vals = list(SPECIAL_VALUES)
    n = len(vals)
    A = SquareMatrix.from_coo(n, range(n), range(n)[::-1], vals)
    out = write_matrix_market(A)
    assert out == reference_io.write_matrix_market(A)
    for text in (b" 4.9406564584124654e-324\n", b" -1.0000000000000001e+300\n", b" -1e-300\n"):
        assert text in out
    assert b" 3\n" in out and b" 9007199254740992\n" in out
