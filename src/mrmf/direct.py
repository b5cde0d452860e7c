"""Multiresolution factorization of square matrices, in the one stored form.

Every route stores A ~ P_1 ... P_L H Q_L^T ... Q_1^T, where H keeps a dense
core on the surviving row/column sets plus off-core entries chosen by the
route's truncation rule. The direct route sweeps independent left and right
rotations: each level runs a row phase (rotate two similar active rows,
retire the lighter one), then a column phase (same on the column Gram). The
symmetric and skew routes conjugate, so Q = P and the factorization stores
its rotations and core index set once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import CoreSparse, Sparsifier, keep_all, sparsify
from .jacobi import conjugation_sweep, two_basis_reconstruct, two_basis_sweep, unpermute
from .matrices import IndexSet, SquareMatrix


@dataclass(frozen=True)
class Factorization:
    """Left rotations P, right rotations Q, truncated core H, retired labels.

    Rotations are in application order; row_retired/col_retired hold the
    label removed at each level, so the active sets are recoverable for any
    level prefix. With conjugate, right and col_retired equal left and
    row_retired, and the core row and column sets are one set.
    """

    n: int
    left: tuple
    right: tuple
    H: CoreSparse
    row_retired: tuple
    col_retired: tuple
    conjugate: bool = False

    @property
    def core_rows(self):
        return self.H.row_set

    @property
    def core_cols(self):
        return self.H.col_set

    @property
    def storage_scalars(self):
        if self.conjugate:
            return 3 * len(self.left) + self.H.storage_scalars(len(self.core_rows))
        idx = len(self.core_rows) + len(self.core_cols)
        return 3 * (len(self.left) + len(self.right)) + self.H.storage_scalars(idx)


def sweep_and_truncate(A, core_size, seed, conjugate, truncate, level_callback=None):
    """Sweep A down to core_size active indices, then truncate the rotated matrix.

    conjugate selects conjugation_sweep (level_callback goes to it) over
    two_basis_sweep. truncate(h, rows, cols) turns the unpermuted rotated
    matrix and the surviving core sets into the stored CoreSparse.
    """
    n = A.n
    a = np.array(A.to_dense(), dtype=np.float64)
    rng = np.random.default_rng(seed)
    if conjugate:
        left, row_perm, row_ret = conjugation_sweep(a, core_size, rng, level_callback)
        right, col_perm, col_ret = left, row_perm, row_ret
    else:
        left, right, row_perm, col_perm, row_ret, col_ret = two_basis_sweep(a, core_size, rng)
    hbar = unpermute(a, row_perm, col_perm)
    rows, cols = (IndexSet(tuple(sorted(int(i) for i in p[:core_size])), n)
                  for p in (row_perm, col_perm))
    h = truncate(hbar, rows, cols)
    return Factorization(
        n, tuple(left), tuple(right), h, tuple(row_ret), tuple(col_ret), conjugate
    )


def factor_direct(A, core_size, sparsifier, seed, truncate=True):
    """Greedy two-sided factorization down to a core_size x core_size core.

    sparsifier: a cores.Sparsifier; its entry budget m defaults to n - d.
    truncate=False keeps the full rotated matrix in H regardless of the
    sparsifier (lossless round trip).
    """
    if not 1 <= core_size <= A.n:
        raise ValueError(f"core_size must be in [1, {A.n}]")
    if not isinstance(sparsifier, Sparsifier):
        raise TypeError("sparsifier must be a cores.Sparsifier")

    def rule(h, rows, cols):
        return sparsify(h, rows, cols, sparsifier)

    return sweep_and_truncate(A, core_size, seed, conjugate=False,
                              truncate=rule if truncate else keep_all)


def reconstruct(F):
    """Dense reconstruction P H Q^T of the matrix a Factorization implies."""
    return SquareMatrix.from_dense(two_basis_reconstruct(F.H.to_dense(), F.left, F.right))
