"""Core matrix kernel tests: splits, rotations, angle rule, Gram helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    GivensRotation,
    IndexSet,
    MatrixFormatError,
    SquareMatrix,
    apply_givens,
    frobenius_relative_error,
    givens_from_gram2,
    numerical_symmetry,
    row_gram,
    split_symmetric_skew,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


# ---------------------------------------------------------------- split


def test_split_identity_has_zero_skew():
    S, K = split_symmetric_skew(dense(np.eye(3)))
    assert np.array_equal(S.to_dense(), np.eye(3))
    assert np.array_equal(K.to_dense(), np.zeros((3, 3)))


def test_split_single_offdiagonal():
    S, K = split_symmetric_skew(dense([[0, 1], [0, 0]]))
    assert np.array_equal(S.to_dense(), [[0, 0.5], [0.5, 0]])
    assert np.array_equal(K.to_dense(), [[0, 0.5], [-0.5, 0]])


def test_split_random_recombines():
    a = np.random.default_rng(5).standard_normal((5, 5))
    S, K = split_symmetric_skew(dense(a))
    s, k = S.to_dense(), K.to_dense()
    assert np.array_equal(s, s.T)
    assert np.array_equal(k, -k.T)
    assert np.max(np.abs(s + k - a)) <= 1e-15 * np.max(np.abs(a))
    # element-wise recomputation
    for i in range(5):
        for j in range(5):
            assert s[i, j] == (a[i, j] + a[j, i]) * 0.5
            assert k[i, j] == (a[i, j] - a[j, i]) * 0.5


def test_split_sparse_path_matches_dense():
    rng = np.random.default_rng(8)
    n = 300
    rows = rng.integers(0, n, 200)
    cols = rng.integers(0, n, 200)
    vals = rng.standard_normal(200)
    keep = np.unique(rows * n + cols, return_index=True)[1]
    A = SquareMatrix.from_coo(n, rows[keep], cols[keep], vals[keep])
    assert A.is_sparse
    S, K = split_symmetric_skew(A)
    a = A.to_dense()
    assert np.allclose(S.to_dense(), (a + a.T) * 0.5, atol=1e-15)
    assert np.allclose(K.to_dense(), (a - a.T) * 0.5, atol=1e-15)


def test_from_coo_rejects_duplicate_explicit_zero():
    with pytest.raises(MatrixFormatError, match="duplicate"):
        SquareMatrix.from_coo(2, [0, 0], [0, 0], [0.0, 1.0])


# ---------------------------------------------------------------- apply_givens


def test_givens_zero_angle_is_identity():
    a = np.arange(9.0).reshape(3, 3)
    g = GivensRotation(0, 2, 0.0, 3)
    assert np.array_equal(apply_givens(dense(a), g, "left-transpose").to_dense(), a)
    assert np.array_equal(apply_givens(dense(a), g, "right").to_dense(), a)


def test_givens_quarter_turn_on_identity():
    g = GivensRotation(0, 1, math.pi / 2, 2)
    out = apply_givens(dense(np.eye(2)), g, "left-transpose").to_dense()
    assert np.allclose(out, g.matrix().T, atol=1e-15)


def test_givens_matches_dense_product():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    g = GivensRotation(1, 3, 0.7, 4)
    gm = g.matrix()
    left = apply_givens(dense(a), g, "left-transpose").to_dense()
    right = apply_givens(dense(a), g, "right").to_dense()
    assert np.max(np.abs(left - gm.T @ a)) <= 1e-13
    assert np.max(np.abs(right - a @ gm)) <= 1e-13
    # untouched rows/columns are bit-identical
    assert np.array_equal(left[[0, 2]], a[[0, 2]])
    assert np.array_equal(right[:, [0, 2]], a[:, [0, 2]])


def test_givens_sparse_path_matches_dense():
    n = 300
    rng = np.random.default_rng(11)
    rows = rng.integers(0, n, 150)
    cols = rng.integers(0, n, 150)
    vals = rng.standard_normal(150)
    keep = np.unique(rows * n + cols, return_index=True)[1]
    A = SquareMatrix.from_coo(n, rows[keep], cols[keep], vals[keep])
    assert A.is_sparse
    g = GivensRotation(7, 250, -1.2, n)
    gm = g.matrix()
    a = A.to_dense()
    left = apply_givens(A, g, "left-transpose").to_dense()
    right = apply_givens(A, g, "right").to_dense()
    assert np.max(np.abs(left - gm.T @ a)) <= 1e-13
    assert np.max(np.abs(right - a @ gm)) <= 1e-13


def test_givens_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_givens(dense(np.eye(3)), GivensRotation(0, 1, 0.5, 4), "right")


def test_givens_rejects_unknown_side():
    with pytest.raises(ValueError):
        apply_givens(dense(np.eye(3)), GivensRotation(0, 1, 0.5, 3), "left")


# ---------------------------------------------------------------- angle rule


def test_angle_already_diagonal():
    assert givens_from_gram2(1.0, 0.0, 2.0) == 0.0


def test_angle_tied_diagonal():
    assert givens_from_gram2(1.0, 1.0, 1.0) == math.pi / 4


def test_angle_diagonalizes_321():
    th = givens_from_gram2(3.0, 2.0, 1.0)
    c, s = math.cos(th), math.sin(th)
    r = np.array([[c, -s], [s, c]])
    rotated = r.T @ np.array([[3.0, 2.0], [2.0, 1.0]]) @ r
    assert abs(rotated[0, 1]) <= 1e-12 * 3.0
    # eigensolver oracle: the rotated diagonal is the spectrum
    w = np.sort(np.linalg.eigvalsh([[3.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(np.sort(np.diag(rotated)), w, atol=1e-12)


def test_angle_rejects_nonfinite():
    with pytest.raises(ValueError):
        givens_from_gram2(math.inf, 0.0, 1.0)


@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6).filter(lambda v: v != 0.0),
    st.floats(-1e6, 1e6),
)
def test_angle_range_and_diagonalization(gii, gij, gjj):
    th = givens_from_gram2(gii, gij, gjj)
    assert -math.pi / 4 < th <= math.pi / 4
    c, s = math.cos(th), math.sin(th)
    r = np.array([[c, -s], [s, c]])
    rotated = r.T @ np.array([[gii, gij], [gij, gjj]]) @ r
    scale = max(abs(gii), abs(gij), abs(gjj), 1.0)
    assert abs(rotated[0, 1]) <= 1e-12 * scale


# ---------------------------------------------------------------- row_gram


def test_row_gram_identity():
    full = IndexSet(tuple(range(4)), 4)
    g = row_gram(dense(np.eye(4)), full, full)
    assert np.array_equal(g, np.eye(4))


def test_row_gram_identical_rows():
    a = np.zeros((3, 3))
    a[0] = [1.0, 2.0, 3.0]
    a[1] = [1.0, 2.0, 3.0]
    g = row_gram(dense(a), IndexSet((0, 1), 3), IndexSet((0, 1, 2), 3))
    assert g[0, 0] == g[1, 1] == g[0, 1] == g[1, 0]


def test_row_gram_double_loop_oracle():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 6))
    rows = IndexSet((0, 3, 5), 6)
    cols = IndexSet((1, 2, 4, 5), 6)
    g = row_gram(dense(a), rows, cols)
    for p, rp in enumerate(rows):
        for q, rq in enumerate(rows):
            want = sum(a[rp, c] * a[rq, c] for c in cols)
            assert abs(g[p, q] - want) <= 1e-14
    assert np.array_equal(g, g.T)
    assert np.all(np.diag(g) >= 0.0)


def test_row_gram_empty_sets_rejected():
    with pytest.raises(ValueError):
        row_gram(dense(np.eye(3)), IndexSet((), 3), IndexSet((0,), 3))


# ---------------------------------------------------------------- errors & symmetry


def test_relative_error_zero_for_equal():
    a = dense([[1, 2], [3, 4]])
    assert frobenius_relative_error(a, a) == 0.0


def test_relative_error_identity_vs_zero():
    assert frobenius_relative_error(dense(np.eye(2)), dense(np.zeros((2, 2)))) == 1.0


def test_relative_error_three_four_five():
    a = dense([[3, 0], [0, 4]])
    b = dense([[0, 0], [0, 4]])
    assert abs(frobenius_relative_error(a, b) - 0.6) <= 1e-15


def test_relative_error_rejects_zero_reference():
    with pytest.raises(ValueError):
        frobenius_relative_error(dense(np.zeros((2, 2))), dense(np.eye(2)))


def test_numerical_symmetry_symmetric():
    a = np.random.default_rng(0).standard_normal((4, 4))
    assert numerical_symmetry(dense(a + a.T)) == 1.0


def test_numerical_symmetry_triangular():
    assert numerical_symmetry(dense(np.triu(np.ones((3, 3)), 1))) == 0.0


def test_numerical_symmetry_two_thirds():
    # off-diagonal nonzeros at (0,1), (1,0), (0,2); the (0,1)/(1,0) pair
    # matches, (0,2) has a zero partner: 2 of 3
    a = dense([[0, 1, 2], [1, 0, 0], [0, 0, 0]])
    assert abs(numerical_symmetry(a) - 2.0 / 3.0) <= 1e-15


def test_numerical_symmetry_diagonal_only():
    assert numerical_symmetry(dense(np.diag([1.0, 2.0]))) == 1.0


@given(st.integers(1, 7), st.data())
def test_numerical_symmetry_matches_brute_force(n, data):
    # few distinct values, so mirrored pairs often match exactly
    cells = st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]), min_size=n * n, max_size=n * n)
    a = np.array(data.draw(cells)).reshape(n, n)
    off = [(i, j) for i in range(n) for j in range(n) if i != j and a[i, j] != 0.0]
    matched = sum(a[j, i] == a[i, j] for i, j in off)
    want = matched / len(off) if off else 1.0
    rows, cols = np.nonzero(a.T)  # column-major, so from_coo has to sort
    assert numerical_symmetry(dense(a)) == want
    assert numerical_symmetry(SquareMatrix.from_coo(n, cols, rows, a[cols, rows])) == want


# ---------------------------------------------------------------- properties


@given(st.floats(-10.0, 10.0))
def test_rotation_matrix_orthogonal(theta):
    g = GivensRotation(0, 2, theta, 4).matrix()
    assert np.max(np.abs(g.T @ g - np.eye(4))) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_left_rotation_preserves_column_gram(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    g = GivensRotation(1, 4, theta, 5)
    rotated = apply_givens(dense(a), g, "left-transpose").to_dense()
    before = a.T @ a
    after = rotated.T @ rotated
    assert np.linalg.norm(after - before) <= 1e-12 * max(np.linalg.norm(before), 1.0)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_right_rotation_preserves_row_gram(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    g = GivensRotation(0, 3, theta, 5)
    rotated = apply_givens(dense(a), g, "right").to_dense()
    before = a @ a.T
    after = rotated @ rotated.T
    assert np.linalg.norm(after - before) <= 1e-12 * max(np.linalg.norm(before), 1.0)
