"""Two-sided factorization: sparsifiers, dominance, orthogonality, retirement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    CORE_DIAGONAL,
    GREEDY_TOP_N,
    TOP_N,
    IndexSet,
    Sparsifier,
    SquareMatrix,
    factor_direct,
    frobenius_relative_error,
    reconstruct,
    sparsify,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


def random_general(n, seed):
    return dense(np.random.default_rng(seed).standard_normal((n, n)))


def rel_err(A, F):
    return frobenius_relative_error(A, reconstruct(F))


ALL_KINDS = (CORE_DIAGONAL, TOP_N, GREEDY_TOP_N)


# ---------------------------------------------------------------- basics


def test_diagonal_exact_corediag_any_core():
    A = dense(np.diag([6.0, -4.0, 2.0, 1.0, 0.5, -0.25]))
    for d in (1, 2, 4, 6):
        for seed in (0, 1, 2):
            F = factor_direct(A, d, Sparsifier(CORE_DIAGONAL), seed=seed)
            assert rel_err(A, F) <= 1e-12


def test_diagonal_exact_budgeted_kinds_with_room():
    # the row and column phases may retire different index sets, leaving up
    # to n off-core diagonal entries; with m = n both budgeted sparsifiers
    # keep them all (diagonal positions never collide on a row or column)
    A = dense(np.diag([6.0, -4.0, 2.0, 1.0, 0.5, -0.25]))
    for kind in (TOP_N, GREEDY_TOP_N):
        for d in (2, 4):
            F = factor_direct(A, d, Sparsifier(kind, m=6), seed=1)
            assert rel_err(A, F) <= 1e-12, kind


def test_full_core_degenerate_loop():
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    A = dense(q)
    F = factor_direct(A, 4, Sparsifier(TOP_N), seed=0)
    assert len(F.left) == len(F.right) == 0
    assert np.allclose(F.H.to_dense(), q, atol=1e-15)
    assert rel_err(A, F) == 0.0


def test_untruncated_round_trip():
    A = random_general(6, seed=11)
    F = factor_direct(A, 2, Sparsifier(GREEDY_TOP_N), seed=7, truncate=False)
    assert rel_err(A, F) <= 1e-10
    assert len(F.left) == len(F.right) == 4


def test_rejects_bad_core_size_and_sparsifier():
    A = random_general(5, seed=0)
    with pytest.raises(ValueError):
        factor_direct(A, 0, Sparsifier(TOP_N), seed=0)
    with pytest.raises(ValueError):
        factor_direct(A, 6, Sparsifier(TOP_N), seed=0)
    with pytest.raises(TypeError):
        factor_direct(A, 2, "topn", seed=0)
    with pytest.raises(ValueError):
        Sparsifier("bottomn")
    with pytest.raises(ValueError):
        Sparsifier(TOP_N, m=-1)


# ---------------------------------------------------------------- sparsify goldens


def _offcore_fixture():
    # core {0} in a 4x4; off-core entries (1,2)=5, (2,1)=4, (1,3)=3
    h = np.zeros((4, 4))
    h[0, 0] = 9.0
    h[1, 2], h[2, 1], h[1, 3] = 5.0, 4.0, 3.0
    return h, IndexSet((0,), 4), IndexSet((0,), 4)


def test_topn_keeps_largest_two():
    h, rows, cols = _offcore_fixture()
    out = sparsify(h, rows, cols, Sparsifier(TOP_N, m=2))
    assert set(out.offcore) == {(1, 2, 5.0), (2, 1, 4.0)}


def test_greedytopn_accepts_transposed_pair():
    # (2,1) shares neither row nor column with (1,2): both are kept, and
    # (1,3) is then rejected for reusing row 1
    h, rows, cols = _offcore_fixture()
    out = sparsify(h, rows, cols, Sparsifier(GREEDY_TOP_N, m=2))
    assert set(out.offcore) == {(1, 2, 5.0), (2, 1, 4.0)}


def test_greedytopn_rejects_row_reuse():
    h, rows, cols = _offcore_fixture()
    out = sparsify(h, rows, cols, Sparsifier(GREEDY_TOP_N, m=3))
    # only two acceptable entries exist: (1,3) conflicts on row 1 and
    # nothing else remains
    assert set(out.offcore) == {(1, 2, 5.0), (2, 1, 4.0)}


def test_corediag_keeps_offcore_diagonal():
    h, rows, cols = _offcore_fixture()
    h[2, 2], h[3, 3] = -1.5, 0.25
    out = sparsify(h, rows, cols, Sparsifier(CORE_DIAGONAL))
    assert set(out.offcore) == {(2, 2, -1.5), (3, 3, 0.25)}


def test_sparsify_diagonal_lossless_all_kinds():
    h = np.diag([3.0, -2.0, 1.0, 0.5])
    rows = cols = IndexSet((0, 1), 4)
    for kind in ALL_KINDS:
        out = sparsify(h, rows, cols, Sparsifier(kind))
        assert np.array_equal(out.to_dense(), h), kind


def test_topn_ties_broken_by_position():
    h = np.zeros((3, 3))
    h[1, 2], h[2, 1] = 2.0, -2.0  # equal magnitude; (1,2) sorts first
    out = sparsify(h, IndexSet((0,), 3), IndexSet((0,), 3), Sparsifier(TOP_N, m=1))
    assert out.offcore == ((1, 2, 2.0),)


def test_topn_dominates_others_at_equal_budget():
    A = random_general(12, seed=21)
    for seed in (0, 1):
        # CoreDiagonal keeps at most n - d off-core entries (the diagonal),
        # so give TopN and GreedyTopN the same allowance
        m = 12 - 4
        errs = {
            kind: rel_err(A, factor_direct(A, 4, Sparsifier(kind, m=m), seed))
            for kind in ALL_KINDS
        }
        assert errs[TOP_N] <= errs[CORE_DIAGONAL] + 1e-12
        assert errs[TOP_N] <= errs[GREEDY_TOP_N] + 1e-12


# ---------------------------------------------------------------- identities


def test_dropped_mass_identity():
    A = random_general(9, seed=23)
    for kind in ALL_KINDS:
        full = factor_direct(A, 3, Sparsifier(kind), seed=9, truncate=False)
        trunc = factor_direct(A, 3, Sparsifier(kind), seed=9)
        dropped = full.H.to_dense() - trunc.H.to_dense()
        want = np.linalg.norm(dropped) / np.linalg.norm(A.to_dense())
        assert abs(rel_err(A, trunc) - want) <= 1e-10, kind


def test_rotation_products_orthogonal():
    A = random_general(10, seed=25)
    F = factor_direct(A, 3, Sparsifier(TOP_N), seed=2)
    p = np.eye(10)
    for g in F.left:
        p = p @ g.matrix()
    q = np.eye(10)
    for g in F.right:
        q = q @ g.matrix()
    assert np.max(np.abs(p.T @ p - np.eye(10))) <= 1e-11
    assert np.max(np.abs(q.T @ q - np.eye(10))) <= 1e-11


def test_retired_rows_and_cols_never_reused():
    A = random_general(11, seed=27)
    F = factor_direct(A, 3, Sparsifier(GREEDY_TOP_N), seed=4)
    seen_rows, seen_cols = set(), set()
    for g_left, g_right, r_ret, c_ret in zip(
        F.left, F.right, F.row_retired, F.col_retired
    ):
        assert g_left.i not in seen_rows and g_left.j not in seen_rows
        assert g_right.i not in seen_cols and g_right.j not in seen_cols
        assert r_ret in (g_left.i, g_left.j)
        assert c_ret in (g_right.i, g_right.j)
        seen_rows.add(r_ret)
        seen_cols.add(c_ret)
    assert seen_rows.isdisjoint(F.core_rows)
    assert seen_cols.isdisjoint(F.core_cols)


def test_row_phase_preserves_column_gram():
    # applying only the left rotations to A keeps A^T A fixed
    A = random_general(8, seed=29)
    F = factor_direct(A, 2, Sparsifier(TOP_N), seed=6)
    work = A.to_dense().copy()
    for g in F.left:
        work = g.matrix().T @ work
    before = A.to_dense().T @ A.to_dense()
    after = work.T @ work
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)


def test_symmetric_input_mirrored_phases_reduction():
    # on a symmetric matrix with matching seeds the two phases walk the same
    # Gram, so replaying left rotations as right rotations symmetrically
    # reconstructs a symmetric matrix
    a = np.random.default_rng(31).standard_normal((7, 7))
    A = dense((a + a.T) * 0.5)
    F = factor_direct(A, 3, Sparsifier(TOP_N), seed=3, truncate=False)
    R = reconstruct(F).to_dense()
    assert np.max(np.abs(R - A.to_dense())) <= 1e-10


# ---------------------------------------------------------------- properties


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_untruncated_round_trip_property(seed, d):
    A = random_general(6, seed=seed % 1009)
    F = factor_direct(A, d, Sparsifier(TOP_N), seed, truncate=False)
    assert rel_err(A, F) <= 1e-10


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_core_block_is_rotated_submatrix(seed):
    A = random_general(6, seed=seed % 1013)
    F = factor_direct(A, 2, Sparsifier(CORE_DIAGONAL), seed)
    work = A.to_dense().copy()
    for g in F.left:
        work = g.matrix().T @ work
    for g in F.right:
        work = work @ g.matrix()
    rows = F.core_rows.to_array()
    cols = F.core_cols.to_array()
    assert np.max(np.abs(work[np.ix_(rows, cols)] - F.H.core)) <= 1e-11
