"""Square-matrix primitives shared by every factorization routine.

Storage is dual: small or dense matrices live as numpy arrays, large sparse
ones as coordinate triplets. Givens rotations, Gram matrices, the
symmetric/skew split and the Frobenius error metric all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Inputs denser than this fraction, or smaller than this dimension, are
# handled by dense kernels; larger sparse inputs stay in coordinate form.
DENSE_DENSITY_CUTOFF = 0.10
DENSE_DIM_CUTOFF = 512


class MatrixFormatError(ValueError):
    """Structurally invalid matrix data (shape, duplicates, non-finite)."""


def _as_float_array(values):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise MatrixFormatError("matrix entries must be finite")
    return arr


class SquareMatrix:
    """Immutable real square matrix, stored dense or as sorted COO triplets.

    Use :meth:`from_dense` / :meth:`from_coo`. Sparse storage keeps no
    explicit zeros and no duplicate coordinates; entry arrays are sorted
    row-major and marked read-only.
    """

    __slots__ = ("n", "_dense", "_rows", "_cols", "_vals")

    def __init__(self, n, dense=None, coo=None):
        self.n = int(n)
        self._dense = dense
        if coo is None:
            self._rows = self._cols = self._vals = None
        else:
            self._rows, self._cols, self._vals = coo

    @classmethod
    def from_dense(cls, values):
        arr = _as_float_array(values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixFormatError(f"expected a square 2-d array, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(arr.shape[0], dense=arr)

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        n = int(n)
        if n <= 0:
            raise MatrixFormatError("matrix dimension must be positive")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = _as_float_array(values)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise MatrixFormatError("coordinate arrays must be equal-length 1-d")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise MatrixFormatError("coordinate out of range")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        codes = rows * n + cols
        order = np.argsort(codes, kind="stable")
        rows, cols, vals, codes = rows[order], cols[order], vals[order], codes[order]
        if codes.size > 1 and np.any(codes[1:] == codes[:-1]):
            raise MatrixFormatError("duplicate coordinate entry")
        for a in (rows, cols, vals):
            a.flags.writeable = False
        return cls(n, coo=(rows, cols, vals))

    @property
    def is_sparse(self):
        return self._dense is None

    @property
    def nnz(self):
        if self.is_sparse:
            return int(self._vals.size)
        return int(np.count_nonzero(self._dense))

    @property
    def density(self):
        return self.nnz / float(self.n * self.n)

    def to_dense(self):
        """Read-only dense view (materialized once for sparse storage)."""
        if self._dense is None:
            arr = np.zeros((self.n, self.n))
            arr[self._rows, self._cols] = self._vals
            arr.flags.writeable = False
            self._dense = arr
        return self._dense

    def to_coo(self):
        """(rows, cols, values) sorted row-major, explicit zeros dropped."""
        if self.is_sparse:
            return self._rows, self._cols, self._vals
        rows, cols = np.nonzero(self._dense)
        return rows, cols, self._dense[rows, cols]

    def to_scipy(self):
        if self.is_sparse:
            return sp.csr_matrix((self._vals, (self._rows, self._cols)), shape=(self.n, self.n))
        return sp.csr_matrix(self._dense)

    def transpose(self):
        if self.is_sparse:
            return SquareMatrix.from_coo(self.n, self._cols, self._rows, self._vals)
        return SquareMatrix.from_dense(self.to_dense().T)

    def prefers_dense(self):
        return self.n <= DENSE_DIM_CUTOFF or self.density > DENSE_DENSITY_CUTOFF

    def __repr__(self):
        kind = "coo" if self.is_sparse else "dense"
        return f"SquareMatrix(n={self.n}, nnz={self.nnz}, storage={kind})"


@dataclass(frozen=True)
class IndexSet:
    """Ordered distinct indices drawn from range(n)."""

    indices: tuple
    n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(set(idx)) != len(idx):
            raise ValueError("index set entries must be distinct")
        if idx and (min(idx) < 0 or max(idx) >= self.n):
            raise ValueError("index out of range")
        object.__setattr__(self, "_members", frozenset(idx))

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        return self.indices[k]

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i):
        return i in self._members

    def complement(self):
        return IndexSet(tuple(i for i in range(self.n) if i not in self._members), self.n)

    def to_array(self):
        return np.array(self.indices, dtype=np.int64)


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation on coordinates (i, j) of an n-dim space.

    As a matrix: G[i,i] = G[j,j] = cos(theta), G[i,j] = -sin(theta),
    G[j,i] = sin(theta), identity elsewhere.
    """

    i: int
    j: int
    theta: float
    n: int

    def __post_init__(self):
        if not (0 <= self.i < self.n and 0 <= self.j < self.n):
            raise ValueError("rotation index out of range")
        if self.i == self.j:
            raise ValueError("rotation indices must differ")

    def matrix(self):
        g = np.eye(self.n)
        c, s = math.cos(self.theta), math.sin(self.theta)
        g[self.i, self.i] = c
        g[self.j, self.j] = c
        g[self.i, self.j] = -s
        g[self.j, self.i] = s
        return g

    def transposed(self):
        return GivensRotation(self.i, self.j, -self.theta, self.n)


def rotate_rows_inplace(a, i, j, theta):
    """a <- G^T a for the rotation G on (i, j); touches only rows i and j."""
    c, s = math.cos(theta), math.sin(theta)
    ri = a[i].copy()
    a[i] = c * ri + s * a[j]
    a[j] = -s * ri + c * a[j]


def rotate_cols_inplace(a, i, j, theta):
    """a <- a G for the rotation G on (i, j); touches only columns i and j."""
    c, s = math.cos(theta), math.sin(theta)
    ci = a[:, i].copy()
    a[:, i] = c * ci + s * a[:, j]
    a[:, j] = -s * ci + c * a[:, j]


def apply_givens(A, rotation, side):
    """Apply a Givens rotation to a SquareMatrix.

    side="left-transpose" computes G^T A (mixes rows i, j);
    side="right" computes A G (mixes columns i, j).
    """
    if rotation.n != A.n:
        raise ValueError("rotation dimension does not match matrix")
    if side not in ("left-transpose", "right"):
        raise ValueError(f"unknown side {side!r}")
    if A.is_sparse and not A.prefers_dense():
        m = A.to_scipy().tolil()
        i, j, th = rotation.i, rotation.j, rotation.theta
        c, s = math.cos(th), math.sin(th)
        if side == "left-transpose":
            ri = m[i, :].toarray().ravel()
            rj = m[j, :].toarray().ravel()
            m[i, :] = c * ri + s * rj
            m[j, :] = -s * ri + c * rj
        else:
            ci = m[:, i].toarray().ravel()
            cj = m[:, j].toarray().ravel()
            m[:, i] = (c * ci + s * cj).reshape(-1, 1)
            m[:, j] = (-s * ci + c * cj).reshape(-1, 1)
        coo = m.tocoo()
        return SquareMatrix.from_coo(A.n, coo.row, coo.col, coo.data)
    a = np.array(A.to_dense())
    if side == "left-transpose":
        rotate_rows_inplace(a, rotation.i, rotation.j, rotation.theta)
    else:
        rotate_cols_inplace(a, rotation.i, rotation.j, rotation.theta)
    return SquareMatrix.from_dense(a)


def givens_from_gram2(g_ii, g_ij, g_jj):
    """Rotation angle diagonalizing the symmetric 2x2 [[g_ii, g_ij], [g_ij, g_jj]].

    Returns theta in (-pi/4, pi/4]; theta = 0 when g_ij == 0, pi/4 when the
    diagonal entries tie. Conjugating the 2x2 by the rotation zeroes its
    off-diagonal to working precision.
    """
    for v in (g_ii, g_ij, g_jj):
        if not math.isfinite(v):
            raise ValueError("gram entries must be finite")
    if g_ij == 0.0:
        return 0.0
    tau = (g_ii - g_jj) / (2.0 * g_ij)
    if tau == 0.0:
        t = 1.0
    else:
        # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0
        t = 1.0 / (tau + math.copysign(math.hypot(1.0, tau), tau))
        if t == -1.0:
            # tau underflowed negative: a tie, keep the +pi/4 convention
            t = 1.0
    return math.atan(t)


def split_symmetric_skew(A):
    """Split A into (S, K) with S = (A + A^T)/2, K = (A - A^T)/2.

    S is exactly symmetric and K exactly skew-symmetric in floating point
    (addition commutes, subtraction negates exactly).
    """
    if A.is_sparse and not A.prefers_dense():
        m = A.to_scipy()
        s = ((m + m.T) * 0.5).tocoo()
        k = ((m - m.T) * 0.5).tocoo()
        return (
            SquareMatrix.from_coo(A.n, s.row, s.col, s.data),
            SquareMatrix.from_coo(A.n, k.row, k.col, k.data),
        )
    a = A.to_dense()
    return (
        SquareMatrix.from_dense((a + a.T) * 0.5),
        SquareMatrix.from_dense((a - a.T) * 0.5),
    )


def row_gram(A, rows, cols):
    """Gram matrix of the selected rows restricted to the selected columns.

    Entry (a, b) is the inner product of rows[a] and rows[b] over `cols`.
    Returned dense, exactly symmetric, with nonnegative diagonal.
    """
    rows = np.asarray(tuple(rows), dtype=np.int64)
    cols = np.asarray(tuple(cols), dtype=np.int64)
    if rows.size == 0 or cols.size == 0:
        raise ValueError("row_gram needs nonempty index sets")
    if A.is_sparse and not A.prefers_dense():
        sub = A.to_scipy()[rows][:, cols]
        g = (sub @ sub.T).toarray()
    else:
        sub = A.to_dense()[np.ix_(rows, cols)]
        g = sub @ sub.T
    return (g + g.T) * 0.5


def frobenius_relative_error(A, B):
    """||A - B||_F / ||A||_F. Raises on shape mismatch or zero A."""
    if A.n != B.n:
        raise ValueError("matrix dimensions differ")
    if A.is_sparse and B.is_sparse and not (A.prefers_dense() and B.prefers_dense()):
        diff = A.to_scipy() - B.to_scipy()
        num = sp.linalg.norm(diff)
        den = sp.linalg.norm(A.to_scipy())
    else:
        a, b = A.to_dense(), B.to_dense()
        num = np.linalg.norm(a - b)
        den = np.linalg.norm(a)
    if den == 0.0:
        raise ValueError("relative error undefined for a zero reference matrix")
    return float(num / den)


def numerical_symmetry(A):
    """Fraction of off-diagonal nonzero positions (i, j) with A[j, i] == A[i, j] exactly.

    1.0 when there are no off-diagonal nonzeros; each position counts
    individually (a matched pair contributes twice to both counts).
    """
    rows, cols, vals = A.to_coo()
    off = rows != cols
    rows, cols, vals = rows[off], cols[off], vals[off]
    if rows.size == 0:
        return 1.0
    n = A.n
    codes = rows * n + cols
    order = np.argsort(codes)
    rows, cols, vals, codes = rows[order], cols[order], vals[order], codes[order]
    mirror = cols * n + rows
    pos = np.searchsorted(codes, mirror)
    pos_clip = np.minimum(pos, codes.size - 1)
    found = codes[pos_clip] == mirror
    matched = found & (vals[pos_clip] == vals)
    return float(np.count_nonzero(matched) / rows.size)


def check_symmetric(a, tol=1e-12):
    """Raise unless the dense array a is symmetric to tol (relative, max-norm)."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    dev = np.max(np.abs(a - a.T)) if a.size else 0.0
    if dev > tol * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric (max deviation {dev:.3e})")


def check_skew(a, tol=1e-12):
    """Raise unless the dense array a is skew-symmetric to tol (relative, max-norm)."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return
    dev = np.max(np.abs(a + a.T))
    if dev > tol * scale:
        raise ValueError(f"matrix is not skew-symmetric (max deviation {dev:.3e})")
