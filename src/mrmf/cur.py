"""CUR low-rank baseline and the CUR-then-MMF hybrid pipeline.

CUR keeps r verbatim columns (C) and rows (R) of A, sampled proportionally
to squared norms, and links them with U = C+ A R+. The hybrid forms the
explicit product M = CUR and hands it to the greedy two-sided factorizer:
only the final factorization is stored, so the pipeline can afford an r far
above what a stored CUR could fit in the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import GREEDY_TOP_N, Sparsifier
from .direct import kept_by, sweep_and_truncate
from .matrices import SquareMatrix, frobenius_relative_error, frozen, index_set
from .storage import solve_core_size, stored_scalars

PINV_RCOND = 1e-12


@dataclass(frozen=True, eq=False)
class CurFactors:
    """r verbatim columns C, linkage U, r verbatim rows R of an n x n matrix.

    col_ids and row_ids are the sorted int64 ids of the kept columns and
    rows. Every field is stored as a read-only copy.
    """

    C: np.ndarray
    U: np.ndarray
    R: np.ndarray
    col_ids: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self):
        for name in ("C", "U", "R"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64))
        n, r = self.C.shape
        if self.U.shape != (r, r) or self.R.shape != (r, n):
            raise ValueError("factor shapes disagree")
        for name in ("col_ids", "row_ids"):
            object.__setattr__(self, name, index_set(getattr(self, name), n))
            if getattr(self, name).size != r:
                raise ValueError("index sets do not match rank")

    @property
    def storage_scalars(self):
        return stored_scalars(self.C, self.U, self.R, self.col_ids, self.row_ids)


def _sample_ids(rng, weights, r):
    """r distinct ids drawn with probability proportional to weights.

    Zero-weight ids enter only when fewer than r positive weights exist;
    the deficit is then drawn uniformly from the untouched pool.
    """
    p = weights / weights.sum()
    nz = int(np.count_nonzero(p))
    if nz >= r:
        return np.sort(rng.choice(p.size, size=r, replace=False, p=p))
    picked = rng.choice(p.size, size=nz, replace=False, p=p)
    rest = np.setdiff1d(np.arange(p.size), picked)
    extra = rng.choice(rest, size=r - nz, replace=False)
    return np.sort(np.concatenate([picked, extra]))


def cur_decompose(A, r, seed):
    """Sample r columns and r rows by squared norm; U = C+ A R+.

    Pseudoinverses drop singular values below 1e-12 of the largest. Raises
    on a zero matrix (no mass to sample) or r outside [1, n].
    """
    n = A.n
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in [1, {n}]")
    a = A.to_dense()
    col_mass = np.einsum("ij,ij->j", a, a)
    row_mass = np.einsum("ij,ij->i", a, a)
    if col_mass.sum() == 0.0:
        raise ValueError("cannot sample rows/columns of a zero matrix")
    rng = np.random.default_rng(seed)
    col_ids = _sample_ids(rng, col_mass, r)
    row_ids = _sample_ids(rng, row_mass, r)
    C = a[:, col_ids]
    R = a[row_ids, :]
    U = np.linalg.pinv(C, rcond=PINV_RCOND) @ a @ np.linalg.pinv(R, rcond=PINV_RCOND)
    return CurFactors(C, U, R, col_ids, row_ids)


def reconstruct_cur(f):
    return SquareMatrix._owning(f.C @ f.U @ f.R)


def cur_relative_error(A, f):
    """Relative Frobenius residual of the CUR approximant against A."""
    return frobenius_relative_error(A, SquareMatrix._owning(f.C @ (f.U @ f.R)))


def hybrid_compress(A, r, k, seed):
    """CUR to rank r, then greedy two-sided factorization of M = CUR under k.

    k is the scalar count the kept factorization may store (convert a
    fraction with StorageBudget.scalars(A)). The CUR factors are intermediate
    (recomputable from the seed) and do not count toward k. Returns the
    stored Factorization of M; measure its reconstruction against A, not M.
    """
    d = solve_core_size(A, "hybrid", k)
    cur_seed, mmf_seed = np.random.SeedSequence(seed).spawn(2)
    M = reconstruct_cur(cur_decompose(A, r, cur_seed))
    cut = (d, kept_by(Sparsifier(GREEDY_TOP_N)))
    return sweep_and_truncate(M, [cut], mmf_seed, parity=None, owned=True)[0]
