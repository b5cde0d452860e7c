"""Matrix Market parsing/writing, collection fetching, synthetic generators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mm_fixtures import FIXTURE_SUITE
from mrmf import (
    DecaySpec,
    FetchError,
    MatrixFormatError,
    MatrixNotFoundError,
    SquareMatrix,
    decay_values,
    fetch_suitesparse,
    gen_block_hierarchical,
    gen_decay_matrix,
    gen_low_rank,
    gen_mixed_matrix,
    gen_random_orthogonal,
    parse_matrix_market,
    write_matrix_market,
)
from conftest import make_collection_archive

# ---------------------------------------------------------------- parser


@pytest.mark.parametrize("fx", FIXTURE_SUITE, ids=lambda fx: fx.name)
def test_fixture_parses_and_round_trips(fx):
    A, meta = parse_matrix_market(fx.text.encode())
    assert meta.n == fx.n
    assert meta.nnz == fx.nnz
    d = A.to_dense()
    for i, j, v in fx.spots:
        assert d[i, j] == v
    B, meta2 = parse_matrix_market(write_matrix_market(A))
    assert np.array_equal(B.to_dense(), d)
    assert meta2.n == fx.n


def test_parse_accepts_str_and_bytes():
    text = FIXTURE_SUITE[0].text
    A1, _ = parse_matrix_market(text)
    A2, _ = parse_matrix_market(text.encode())
    assert np.array_equal(A1.to_dense(), A2.to_dense())


def test_parse_scrapes_name_and_kind():
    fx = next(f for f in FIXTURE_SUITE if f.name == "name_kind_comments")
    _, meta = parse_matrix_market(fx.text)
    assert meta.name == "toy1"
    assert meta.kind == "directed weighted graph"


def test_parse_symmetric_metadata_symmetry():
    fx = next(f for f in FIXTURE_SUITE if f.name == "sym_with_diag")
    _, meta = parse_matrix_market(fx.text)
    assert meta.numerical_symmetry == 1.0


def test_parse_zero_entry_count():
    A, meta = parse_matrix_market(
        "%%MatrixMarket matrix coordinate real general\n2 2 0\n"
    )
    assert meta.nnz == 0
    assert np.array_equal(A.to_dense(), np.zeros((2, 2)))


def test_writer_format():
    A = SquareMatrix.from_coo(3, [0, 2], [1, 2], [1.5, -2.0])
    out = write_matrix_market(A).decode()
    lines = out.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1].split() == ["3", "3", "2"]
    assert lines[2].split() == ["1", "2", "1.5"]
    assert lines[3].split() == ["3", "3", "-2"]


def test_writer_17_digit_round_trip():
    vals = [math.pi, -1.0 / 3.0, 6.02214076e23, 5e-324]
    A = SquareMatrix.from_coo(4, [0, 1, 2, 3], [0, 1, 2, 3], vals)
    B, _ = parse_matrix_market(write_matrix_market(A))
    assert np.array_equal(A.to_dense(), B.to_dense())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("%%MatrixMarket matrix array real general\n2 2 4\n", "format"),
        ("%%MatrixMarket vector coordinate real general\n2 2 1\n", "object"),
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n", "field"),
        ("%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n", "symmetry"),
        ("not a header\n2 2 1\n1 1 1.0\n", "header"),
        ("%%MatrixMarket matrix coordinate real general\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\n% only comments\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\ntwo 2 1\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n", "square"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "promises"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 9 9\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1_0\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1. 1.0\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1e0 1 1.0\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 0\n1 1 1.0\n", "promises"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n% no entries\n\n", "promises"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "range"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", "range"),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n",
            "duplicate",
        ),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n2 1 2.0\n",
            "duplicate",
        ),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n1 2 2.0\n",
            "mirrors",
        ),
    ],
)
def test_parse_error_taxonomy(text, fragment):
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_market(text)
    assert fragment in str(err.value).lower()


def test_parse_refuses_index_truncated_with_a_warning(monkeypatch):
    # older numpy reads "2.9" in an integer loadtxt field as 2 and only
    # warns; the parser must refuse the line there as well
    def truncating_loadtxt(fh, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([(2, 1, 1.0)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with pytest.raises(MatrixFormatError, match="malformed"):
        parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 1\n2.9 1 1.0\n")


# ---------------------------------------------------------------- fetching


SMALL_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "% name: stub\n"
    "3 3 3\n"
    "1 1 1.0\n2 2 2.0\n3 1 -0.5\n"
).encode()


def test_fetch_cold_then_warm(tmp_path):
    archive = make_collection_archive("stubmat", SMALL_MTX)
    calls = []

    def get(url):
        calls.append(url)
        return archive

    A, meta = fetch_suitesparse("TestGrp", "stubmat", tmp_path, http_get=get)
    assert len(calls) == 1
    assert "TestGrp/stubmat.tar.gz" in calls[0]
    assert meta.group == "TestGrp" and meta.name == "stubmat"
    assert meta.n == 3 and meta.nnz == 3
    assert (tmp_path / "TestGrp" / "stubmat.mtx").exists()

    def fail(url):
        raise AssertionError("network touched on warm cache")

    B, meta2 = fetch_suitesparse("TestGrp", "stubmat", tmp_path, http_get=fail)
    assert np.array_equal(A.to_dense(), B.to_dense())
    assert meta2.name == "stubmat"


def test_fetch_missing_is_final(tmp_path):
    calls = []

    def get(url):
        calls.append(url)
        raise MatrixNotFoundError("no such matrix")

    with pytest.raises(MatrixNotFoundError):
        fetch_suitesparse("G", "gone", tmp_path, http_get=get, retries=3, backoff=0.0)
    assert len(calls) == 1  # 404 is not retried


def test_fetch_retries_then_succeeds(tmp_path):
    archive = make_collection_archive("flaky", SMALL_MTX)
    calls = []

    def get(url):
        calls.append(url)
        if len(calls) < 3:
            raise OSError("connection reset")
        return archive

    A, _ = fetch_suitesparse("G", "flaky", tmp_path, http_get=get, backoff=0.0)
    assert len(calls) == 3
    assert A.n == 3


def test_fetch_gives_up_after_retries(tmp_path):
    def get(url):
        raise OSError("connection reset")

    with pytest.raises(FetchError) as err:
        fetch_suitesparse("G", "down", tmp_path, http_get=get, retries=2, backoff=0.0)
    assert "2 attempts" in str(err.value)
    assert not (tmp_path / "G" / "down.mtx").exists()


def test_fetch_corrupt_archive(tmp_path):
    def get(url):
        return b"this is not a tarball"

    with pytest.raises(FetchError):
        fetch_suitesparse("G", "bad", tmp_path, http_get=get, backoff=0.0)


def test_fetch_archive_without_member(tmp_path):
    archive = make_collection_archive("other", SMALL_MTX, member="other/README")

    def get(url):
        return archive

    with pytest.raises(FetchError) as err:
        fetch_suitesparse("G", "other", tmp_path, http_get=get, backoff=0.0)
    assert "does not contain" in str(err.value)


def test_fetch_invalid_mtx_not_cached(tmp_path):
    archive = make_collection_archive("badmtx", b"garbage contents\n")

    def get(url):
        return archive

    with pytest.raises(MatrixFormatError):
        fetch_suitesparse("G", "badmtx", tmp_path, http_get=get, backoff=0.0)
    assert not (tmp_path / "G" / "badmtx.mtx").exists()


def test_fetch_corrupt_cache_is_quarantined_then_refetched(tmp_path):
    cached = tmp_path / "G" / "stale.mtx"
    cached.parent.mkdir()
    cached.write_bytes(b"not a matrix market file\n")
    calls = []

    def get(url):
        calls.append(url)
        return make_collection_archive("stale", SMALL_MTX)

    with pytest.raises(FetchError) as err:
        fetch_suitesparse("G", "stale", tmp_path, http_get=get, backoff=0.0)
    assert "corrupt cache entry" in str(err.value)
    assert not calls  # the failing fetch never downloads
    assert not cached.exists()
    assert (tmp_path / "G" / "stale.mtx.corrupt").read_bytes() == b"not a matrix market file\n"

    A, meta = fetch_suitesparse("G", "stale", tmp_path, http_get=get, backoff=0.0)
    assert len(calls) == 1
    assert A.n == 3 and meta.name == "stale"
    assert cached.read_bytes() == SMALL_MTX


# ---------------------------------------------------------------- decay family


def test_decay_values_endpoints():
    d = decay_values(6, 1.0)
    assert d[-1] == 0.0  # x = 1 makes the numerator vanish
    assert abs(d[0] - (-math.exp(-1.0))) <= 1e-4  # closed form at x = 0, t = 1


def test_decay_values_shapes_and_signs():
    for t in (1.0, 4.0, 10.0):
        d = decay_values(9, t)
        assert d.shape == (9,)
        assert np.all(np.isfinite(d))


def test_decay_spec_validation():
    with pytest.raises(ValueError):
        DecaySpec(n=1, t=1.0, seed=0)
    with pytest.raises(ValueError):
        DecaySpec(n=8, t=0.0, seed=0)
    with pytest.raises(ValueError):
        DecaySpec(n=8, t=math.inf, seed=0)


def test_decay_matrix_spectrum_oracle():
    spec = DecaySpec(n=12, t=3.0, seed=21)
    A = gen_decay_matrix(spec).to_dense()
    assert np.max(np.abs(A - A.T)) <= 1e-13
    got = np.sort(np.linalg.eigvalsh(A))
    want = np.sort(decay_values(12, 3.0))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_decay_matrix_deterministic():
    a = gen_decay_matrix(DecaySpec(16, 2.0, seed=5)).to_dense()
    b = gen_decay_matrix(DecaySpec(16, 2.0, seed=5)).to_dense()
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- generators


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_random_orthogonal_property(n, seed):
    q = gen_random_orthogonal(n, seed).to_dense()
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12


def test_random_orthogonal_deterministic():
    a = gen_random_orthogonal(7, 3).to_dense()
    b = gen_random_orthogonal(7, 3).to_dense()
    c = gen_random_orthogonal(7, 4).to_dense()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_low_rank_generator():
    A = gen_low_rank(20, 3, seed=9).to_dense()
    s = np.linalg.svd(A, compute_uv=False)
    assert s[3] <= 1e-12 * s[0]
    assert abs(np.linalg.norm(A) - 1.0) <= 1e-12
    B = gen_low_rank(20, 3, seed=9, scale=2.5).to_dense()
    assert abs(np.linalg.norm(B) - 2.5) <= 1e-12
    with pytest.raises(ValueError):
        gen_low_rank(10, 0, seed=0)
    with pytest.raises(ValueError):
        gen_low_rank(10, 11, seed=0)


def test_block_hierarchical_support_and_gains():
    n, gains = 16, (1.0, 0.5)
    A = gen_block_hierarchical(n, gains, seed=2).to_dense()
    # everything lives inside the coarsest blocks
    assert np.array_equal(A[:8, 8:], np.zeros((8, 8)))
    assert np.array_equal(A[8:, :8], np.zeros((8, 8)))
    # layers overlap (finer blocks sit inside coarser support), so only the
    # triangle inequality bounds the total norm
    assert 0.5 - 1e-12 <= np.linalg.norm(A) <= 1.5 + 1e-12
    # the off-diagonal quarter inside a coarse block is outside every fine
    # block, so it carries layer-1 energy alone and must be nonzero
    quarter = A[:4, 4:8]
    assert np.linalg.norm(quarter) > 0.0


def test_block_hierarchical_rank_cap():
    A = gen_block_hierarchical(32, (1.0,), seed=4, rank=2).to_dense()
    blk = A[:16, :16]
    s = np.linalg.svd(blk, compute_uv=False)
    assert s[2] <= 1e-12 * s[0]


def test_block_hierarchical_validation():
    with pytest.raises(ValueError):
        gen_block_hierarchical(12, (1.0, 0.5, 0.25), seed=0)  # 12 % 8 != 0
    with pytest.raises(ValueError):
        gen_block_hierarchical(16, (1.0,), seed=0, rank=0)


def test_mixed_matrix_shape_and_determinism():
    A = gen_mixed_matrix(n=32, seed=3).to_dense()
    B = gen_mixed_matrix(n=32, seed=3).to_dense()
    assert A.shape == (32, 32)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, gen_mixed_matrix(n=32, seed=4).to_dense())
    with pytest.raises(ValueError):
        gen_mixed_matrix(n=30)
