"""Core matrix kernel tests: splits, rotations, angle rule, index sets, error and symmetry metrics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrmf
from mrmf import (
    CoreSparse,
    MatrixFormatError,
    SquareMatrix,
    frobenius_relative_error,
    givens_from_gram2,
    numerical_symmetry,
    split_symmetric_skew,
)
from mrmf.jacobi import conjugate_reconstruct, two_basis_reconstruct
from mrmf.matrices import check_parity
from reference_kernels import givens_matrix


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


# a value of every scale the split must carry exactly: ordinary, subnormal
# (halving rounds them) and near 1e300 (a + t must not overflow)
_split_values = st.builds(
    lambda mag, neg: -mag if neg else mag,
    st.one_of(
        st.floats(1e-3, 1e3),
        st.floats(5e-324, 2.2e-308),
        st.floats(1e299, 1e300),
    ),
    st.booleans(),
)


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.integers(1, 8), st.integers(513, 1100)), st.data())
def test_split_coo_matches_dense_split(n, data):
    entries = {}
    picks = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), _split_values,
        st.sampled_from(["lone", "diagonal", "pair", "equal", "negated"]),
    )
    for i, j, v, kind in data.draw(st.lists(picks, max_size=40)):
        if kind == "diagonal":
            entries[(i, i)] = v
            continue
        entries[(i, j)] = v
        if i != j and kind != "lone":
            w = {"pair": data.draw(_split_values), "equal": v, "negated": -v}[kind]
            entries[(j, i)] = w
    coords = data.draw(st.permutations(sorted(entries)))  # from_coo must sort
    rows = [i for i, _ in coords]
    cols = [j for _, j in coords]
    A = SquareMatrix.from_coo(n, rows, cols, [entries[c] for c in coords])
    S, K = split_symmetric_skew(A)
    assert S.is_sparse and K.is_sparse
    want = split_symmetric_skew(dense(A.to_dense()))
    for got, ref in zip((S, K), want):
        for x, y in zip(got.to_coo(), ref.to_coo()):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


def test_split_coo_symmetric_input_has_empty_skew():
    # n above 512, where the old code switched storage paths
    n = 600
    rows = np.array([0, 5, 7, 599, 599])
    cols = np.array([5, 0, 7, 3, 599])
    vals = np.array([2.5, 2.5, -1.0, 4.0, 8.0])
    A = SquareMatrix.from_coo(n, np.r_[rows, 3], np.r_[cols, 599], np.r_[vals, 4.0])
    S, K = split_symmetric_skew(A)
    assert S.is_sparse and K.is_sparse
    for x, y in zip(S.to_coo(), A.to_coo()):
        assert np.array_equal(x, y)
    assert K.nnz == 0


def test_split_coo_skew_input_has_empty_symmetric_part():
    A = SquareMatrix.from_coo(700, [1, 650, 2], [650, 1, 9], [3.0, -3.0, 1.0])
    S, K = split_symmetric_skew(A)
    assert S.is_sparse and K.is_sparse
    r, c, v = K.to_coo()
    assert r.tolist() == [1, 2, 9, 650]
    assert c.tolist() == [650, 9, 2, 1]
    assert v.tolist() == [3.0, 0.5, -0.5, -3.0]
    r, c, v = S.to_coo()
    assert (r.tolist(), c.tolist(), v.tolist()) == ([2, 9], [9, 2], [0.5, 0.5])


def test_split_coo_without_entries():
    S, K = split_symmetric_skew(SquareMatrix.from_coo(1000, [], [], []))
    assert S.is_sparse and K.is_sparse
    assert S.nnz == K.nnz == 0
    assert S.n == K.n == 1000


def test_coo_stays_sparse_after_densify():
    # to_dense() builds a fresh array for COO storage; the storage form, and with
    # it the split branch, must not depend on whether anything densified A first
    A = SquareMatrix.from_coo(5, [0, 1, 4], [3, 0, 4], [2.0, -1.0, 6.0])
    A.to_dense()
    assert A.is_sparse
    assert repr(A) == "SquareMatrix(n=5, nnz=3, storage=coo)"
    S, K = split_symmetric_skew(A)
    assert S.is_sparse and K.is_sparse
    assert K.to_coo()[2].tolist() == [0.5, 1.0, -0.5, -1.0]


def test_from_coo_rejects_duplicate_explicit_zero():
    with pytest.raises(MatrixFormatError, match="duplicate"):
        SquareMatrix.from_coo(2, [0, 0], [0, 0], [0.0, 1.0])


def test_empty_matrix_is_refused_in_both_forms():
    # a 0 x 0 matrix would be written as "0 0 0", which the parser refuses
    for build in (lambda: SquareMatrix.from_dense(np.zeros((0, 0))),
                  lambda: SquareMatrix.from_coo(0, [], [], [])):
        with pytest.raises(MatrixFormatError, match="matrix dimension must be positive"):
            build()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_entries_are_refused_in_both_forms(bad):
    with pytest.raises(MatrixFormatError, match="matrix entries must be finite"):
        SquareMatrix.from_dense([[1.0, 0.0], [bad, 2.0]])
    with pytest.raises(MatrixFormatError, match="matrix entries must be finite"):
        SquareMatrix.from_coo(2, [0, 1], [0, 0], [1.0, bad])


def test_from_coo_refuses_unequal_lengths_and_out_of_range():
    with pytest.raises(MatrixFormatError, match="coordinate arrays must be equal-length 1-d"):
        SquareMatrix.from_coo(3, [0, 1], [0], [1.0, 2.0])
    for rows, cols in (([3], [0]), ([0], [-1])):
        with pytest.raises(MatrixFormatError, match="coordinate out of range"):
            SquareMatrix.from_coo(3, rows, cols, [1.0])


def test_parity_check_passes_a_coo_matrix_without_entries():
    # the zero matrix is both symmetric and skew; its deviation has no maximum
    A = SquareMatrix.from_coo(4, [], [], [])
    for skew in (False, True):
        check_parity(A, skew)


# ---------------------------------------------------------------- rotations


def test_givens_zero_angle_is_identity():
    a = np.arange(9.0).reshape(3, 3)
    g = (0, 2, 0.0)
    assert np.array_equal(givens_matrix(3, *g), np.eye(3))
    assert np.array_equal(two_basis_reconstruct(a, [g], [g]), a)
    assert np.array_equal(conjugate_reconstruct(a, [g]), a)


def test_givens_quarter_turn_on_identity():
    g = (0, 1, math.pi / 2)
    gm = givens_matrix(2, *g)
    assert np.allclose(gm, [[0.0, -1.0], [1.0, 0.0]], rtol=0.0, atol=1e-15)
    # undoing a left rotation of the identity leaves the rotation itself
    assert np.allclose(two_basis_reconstruct(np.eye(2), [g], []), gm, rtol=0.0, atol=1e-15)
    assert np.allclose(two_basis_reconstruct(np.eye(2), [], [g]), gm.T, rtol=0.0, atol=1e-15)


def test_givens_matches_dense_product():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    g = (1, 3, 0.7)
    gm = givens_matrix(4, *g)
    left = two_basis_reconstruct(a, [g], [])
    right = two_basis_reconstruct(a, [], [g])
    assert np.max(np.abs(left - gm @ a)) <= 1e-13
    assert np.max(np.abs(right - a @ gm.T)) <= 1e-13
    # untouched rows/columns are bit-identical
    assert np.array_equal(left[[0, 2]], a[[0, 2]])
    assert np.array_equal(right[:, [0, 2]], a[:, [0, 2]])


@given(st.floats(-10.0, 10.0))
def test_givens_transposed_is_inverse(theta):
    g = givens_matrix(5, 3, 1, theta)
    assert np.max(np.abs(g.T @ g - np.eye(5))) <= 1e-15


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(0, 12), st.integers(0, 12))
def test_reconstruct_matches_sequential_dense_products(seed, n, n_left, n_right):
    # rotations that share an index must be undone in order: the result is
    # the ordered product G_1 ... G_L h Q_L^T ... Q_1^T
    rng = np.random.default_rng(seed)

    def draw(count):
        out = []
        for _ in range(count):
            i, j = rng.choice(n, 2, replace=False)
            out.append((int(i), int(j), float(rng.uniform(-3.0, 3.0))))
        return out

    h = rng.standard_normal((n, n))
    left, right = draw(n_left), draw(n_right)
    p, q = np.eye(n), np.eye(n)
    for g in left:
        p = p @ givens_matrix(n, *g)
    for g in right:
        q = q @ givens_matrix(n, *g)
    scale = max(np.linalg.norm(h), 1.0)
    assert np.linalg.norm(two_basis_reconstruct(h, left, right) - p @ h @ q.T) <= 1e-12 * scale
    assert np.linalg.norm(conjugate_reconstruct(h, left) - p @ h @ p.T) <= 1e-12 * scale


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


# ---------------------------------------------------------------- index sets


def test_index_set_rejects_repeats_and_out_of_range():
    # a core's index sets must be sorted distinct indices in range(n)
    for bad in ((1, 3, 1), (0, 4), (-1,), (2, 0)):
        with pytest.raises(ValueError, match="sorted distinct indices in range"):
            CoreSparse(4, bad, [0], np.zeros((len(bad), 1)), [])
        with pytest.raises(ValueError, match="sorted distinct indices in range"):
            CoreSparse(4, [0], bad, np.zeros((1, len(bad))), [])
    H = CoreSparse(4, (0, 3), [], np.zeros((2, 0)), [])
    assert H.row_set.dtype == np.int64 and H.row_set.tolist() == [0, 3]


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


def test_relative_error_coo_equals_dense():
    # a COO A - B is formed in A's fresh dense array: same bits, no input touched
    rng = np.random.default_rng(9)
    for n, order in ((6, "C"), (1, "C"), (300, "C"), (300, "F")):
        a = np.where(rng.random((n, n)) < 0.4, rng.standard_normal((n, n)), 0.0)
        a[0, 0] = 1.0
        B = dense(np.array(rng.standard_normal((n, n)), order=order))
        b = B.to_dense().tobytes()
        r, c = np.nonzero(a)
        coo = SquareMatrix.from_coo(n, r, c, a[r, c])
        assert coo.is_sparse
        triplets = [x.tobytes() for x in coo.to_coo()]
        assert frobenius_relative_error(coo, B) == frobenius_relative_error(dense(a), B)
        assert B.to_dense().tobytes() == b
        assert [x.tobytes() for x in coo.to_coo()] == triplets


def test_relative_error_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions differ"):
        frobenius_relative_error(dense(np.eye(2)), dense(np.eye(3)))


GAUSSIAN_PAIR_ERROR = """
import numpy as np
from mrmf import SquareMatrix, frobenius_relative_error
a, b = np.random.default_rng(15).standard_normal((2, 1500, 1500))
print(repr(frobenius_relative_error(SquareMatrix.from_dense(a), SquareMatrix.from_dense(b))))
"""


def test_relative_error_does_not_depend_on_blas_threads():
    # a BLAS-backed norm sums in an order that follows the thread count
    src = str(Path(mrmf.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", GAUSSIAN_PAIR_ERROR], env=env,
                             capture_output=True, text=True, check=True)
        printed.append(run.stdout)
    assert printed[0] == printed[1]


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
    g = givens_matrix(4, 0, 2, theta)
    assert np.max(np.abs(g.T @ g - np.eye(4))) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_left_rotation_preserves_column_gram(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    rotated = givens_matrix(5, 1, 4, theta).T @ a
    before = a.T @ a
    after = rotated.T @ rotated
    assert np.linalg.norm(after - before) <= 1e-12 * max(np.linalg.norm(before), 1.0)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_right_rotation_preserves_row_gram(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    rotated = a @ givens_matrix(5, 0, 3, theta)
    before = a @ a.T
    after = rotated @ rotated.T
    assert np.linalg.norm(after - before) <= 1e-12 * max(np.linalg.norm(before), 1.0)
