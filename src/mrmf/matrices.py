"""Square-matrix primitives shared by every factorization routine.

A matrix is stored either as a dense numpy array or as sorted coordinate
(COO) triplets; parsed Matrix Market input arrives as COO, and every
factorizer works on ``to_dense()``. The record dtypes of the stored form
(ROTATION and ENTRY) and its read-only index sets, the Givens angle, the
symmetric/skew split, the Frobenius error metric and the numerical-symmetry
count live here.
"""

from __future__ import annotations

import math
import numpy as np


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
        return cls._owning(np.array(values, dtype=np.float64))

    @classmethod
    def _owning(cls, arr):
        """Wrap a fresh float64 array that no one else holds, without a copy.

        The array must be square, at least 1 x 1 and finite; it is marked
        read-only, and the caller keeps no writable reference to it.
        """
        _as_float_array(arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixFormatError(f"expected a square 2-d array, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise MatrixFormatError("matrix dimension must be positive")
        arr.flags.writeable = False
        return cls(arr.shape[0], dense=arr)

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        n = int(n)
        if n <= 0:
            raise MatrixFormatError("matrix dimension must be positive")
        if n > math.isqrt(2**63 - 1):  # every position rows * n + cols must fit in int64
            raise MatrixFormatError(f"matrix dimension {n} overflows int64 row-major positions")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = _as_float_array(values)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise MatrixFormatError("coordinate arrays must be equal-length 1-d")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise MatrixFormatError("coordinate out of range")
        codes = rows * n + cols
        if not np.all(codes[1:] > codes[:-1]):
            order = np.argsort(codes)
            codes = codes[order]
            if np.any(codes[1:] == codes[:-1]):
                raise MatrixFormatError("duplicate coordinate entry")
            rows, cols, vals = rows[order], cols[order], vals[order]
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        for a in (rows, cols, vals):
            a.flags.writeable = False
        return cls(n, coo=(rows, cols, vals))

    @property
    def is_sparse(self):
        """COO storage; the form is fixed at construction, whatever is called later."""
        return self._rows is not None

    @property
    def nnz(self):
        if self.is_sparse:
            return int(self._vals.size)
        return int(np.count_nonzero(self._dense))

    def to_dense(self):
        """Read-only dense array: the stored one, or a fresh one per call for COO."""
        if not self.is_sparse:
            return self._dense
        arr = np.zeros((self.n, self.n))
        arr[self._rows, self._cols] = self._vals
        arr.flags.writeable = False
        return arr

    def to_coo(self):
        """(rows, cols, values) sorted row-major, explicit zeros dropped."""
        if self.is_sparse:
            return self._rows, self._cols, self._vals
        rows, cols = np.nonzero(self._dense)
        return rows, cols, self._dense[rows, cols]

    def __repr__(self):
        kind = "coo" if self.is_sparse else "dense"
        return f"SquareMatrix(n={self.n}, nnz={self.nnz}, storage={kind})"


# The stored form of every factorization is record arrays of these two
# dtypes. A rotation (i, j, theta) on labels i != j is the plane rotation
# G with G[i,i] = G[j,j] = cos(theta), G[j,i] = -G[i,j] = sin(theta), the
# identity elsewhere; an entry is one (row, col, val) of a matrix, also the
# record a Matrix Market entry line parses to.
ROTATION = np.dtype([("i", np.int64), ("j", np.int64), ("theta", np.float64)])
ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])


def frozen(values, dtype):
    """A read-only copy of values as an array of dtype."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def index_set(values, n):
    """frozen(values, int64), checked to be sorted distinct indices in range(n)."""
    idx = frozen(values, np.int64)
    ordered = idx.ndim == 1 and np.all(idx[1:] > idx[:-1])
    if not ordered or (idx.size and (idx[0] < 0 or idx[-1] >= n)):
        raise ValueError(f"index set must be sorted distinct indices in range({n})")
    return idx


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
    (addition commutes, subtraction negates exactly). COO input gives COO
    output, entry for entry what the dense split gives, and is never
    densified: _with_mirrors pairs each entry with its mirror's value.
    """
    if A.is_sparse:
        n = A.n
        rows, cols, vals = A.to_coo()
        a, t, order = _with_mirrors(rows, cols, vals, n)
        r, c = rows[order], cols[order]
        # COO keeps no zeros, so t == 0 exactly where the mirror holds no
        # entry; that mirror position joins with the roles swapped: a = 0, t = v
        lone = t == 0.0
        r, c = np.concatenate((r, c[lone])), np.concatenate((c, r[lone]))
        a, t = np.concatenate((a, t[lone])), np.concatenate((t, a[lone]))
        by_row = np.argsort(r * n + c)  # row-major: from_coo's sorted path
        r, c, a, t = r[by_row], c[by_row], a[by_row], t[by_row]
        return (
            SquareMatrix.from_coo(n, r, c, (a + t) * 0.5),
            SquareMatrix.from_coo(n, r, c, (a - t) * 0.5),
        )
    a = A.to_dense()
    s, k = a + a.T, a - a.T
    s *= 0.5
    k *= 0.5
    return SquareMatrix._owning(s), SquareMatrix._owning(k)


def frobenius_relative_error(A, B):
    """||A - B||_F / ||A||_F. Raises on shape mismatch or zero A.

    A COO A is densified into a fresh array, and A - B is formed in that
    array; a dense A keeps its stored array and the difference gets its own.
    """
    if A.n != B.n:
        raise ValueError("matrix dimensions differ")
    a = A.to_dense()
    # einsum sums the squares in its own fixed order, where np.linalg.norm
    # calls a BLAS dot whose result depends on the BLAS thread count
    den = float(np.einsum("ij,ij->", a, a))
    if A.is_sparse:
        a.flags.writeable = True
        d = np.subtract(a, B.to_dense(), out=a)
    else:
        d = a - B.to_dense()
    num = float(np.einsum("ij,ij->", d, d))
    if den == 0.0:
        raise ValueError("relative error undefined for a zero reference matrix")
    return math.sqrt(num) / math.sqrt(den)


def _with_mirrors(rows, cols, vals, n):
    """(v, t, order): the entries' values and the value at each one's
    mirror position (0 where it holds no entry), both in ascending mirror
    order, and the argsort of the entries that gives that order.

    rows and cols must be sorted row-major, as to_coo() returns them for
    both storage forms. The mirror codes are looked up in ascending
    (column-major) order, so the binary searches walk the codes front to
    back instead of at random. A diagonal entry is its own mirror.
    """
    codes, mirror = rows * n + cols, cols * n + rows
    order = np.argsort(mirror)
    mirror = mirror[order]
    pos = np.searchsorted(codes, mirror)
    np.minimum(pos, codes.size - 1, out=pos)
    t = vals[pos]
    t[codes[pos] != mirror] = 0.0
    return vals[order], t, order


def numerical_symmetry(A):
    """Fraction of off-diagonal nonzero positions (i, j) with A[j, i] == A[i, j] exactly.

    1.0 when there are no off-diagonal nonzeros; each position counts
    individually (a matched pair contributes twice to both counts).
    """
    rows, cols, vals = A.to_coo()
    diagonal = np.count_nonzero(rows == cols)
    if rows.size == diagonal:
        return 1.0
    # to_coo() keeps no zeros, so a value equals its mirror's only when the
    # mirror is an entry; each diagonal entry is its own mirror, a match
    v, t, _ = _with_mirrors(rows, cols, vals, A.n)
    return float((np.count_nonzero(v == t) - diagonal) / (rows.size - diagonal))


def check_parity(A, skew):
    """Raise unless A equals A^T (or -A^T when skew) to 1e-12.

    The deviation max |a_ij -+ a_ji| is relative to A's largest magnitude
    (max-norm). COO input is checked on its triplets, each entry against its
    mirror, and is never densified: a position missing from both sides
    deviates by 0, and |a_ij -+ a_ji| is the same number at (i, j) and
    (j, i), so the maximum is the dense one.
    """
    if A.is_sparse:
        a, t, _ = _with_mirrors(*A.to_coo(), A.n)
    else:
        a = A.to_dense()
        t = a.T
    if not a.size:
        return
    dev = np.add(a, t) if skew else np.subtract(a, t)
    dev = np.max(np.abs(dev, out=dev))
    if dev > 1e-12 * np.max(np.abs(a)):
        kind = "skew-symmetric" if skew else "symmetric"
        raise ValueError(f"matrix is not {kind} (max deviation {dev:.3e})")
