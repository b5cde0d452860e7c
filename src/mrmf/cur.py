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
from .direct import Factorization, factor_direct, reconstruct
from .matrices import IndexSet, SquareMatrix
from .storage import StorageBudget, solve_core_size

PINV_RCOND = 1e-12
# Above this dimension the residual norm is assembled from r-sized Gram
# products instead of the dense n x n difference (memory, not accuracy:
# the Gram route loses half the digits to cancellation).
DENSE_RESIDUAL_CUTOFF = 2048


@dataclass(frozen=True)
class CurFactors:
    """r verbatim columns C, linkage U, r verbatim rows R of an n x n matrix."""

    C: np.ndarray
    U: np.ndarray
    R: np.ndarray
    col_ids: IndexSet
    row_ids: IndexSet

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64)
        U = np.asarray(self.U, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        n, r = C.shape
        if U.shape != (r, r) or R.shape != (r, n):
            raise ValueError("factor shapes disagree")
        if len(self.col_ids) != r or len(self.row_ids) != r:
            raise ValueError("index sets do not match rank")
        for arr, name in ((C, "C"), (U, "U"), (R, "R")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def r(self):
        return self.C.shape[1]

    @property
    def storage_scalars(self):
        return cur_storage(self)


def cur_storage(f):
    """Stored scalars: entries of C, U, R plus one index per kept row/column."""
    n, r = f.n, f.r
    return 2 * n * r + r * r + 2 * r


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
    return CurFactors(
        C, U, R,
        IndexSet(tuple(int(i) for i in col_ids), n),
        IndexSet(tuple(int(i) for i in row_ids), n),
    )


def reconstruct_cur(f):
    return SquareMatrix.from_dense(f.C @ f.U @ f.R)


def cur_relative_error(A, f):
    """Relative Frobenius residual of the CUR approximant against A."""
    a = A.to_dense()
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    if A.n <= DENSE_RESIDUAL_CUTOFF:
        return float(np.linalg.norm(a - f.C @ (f.U @ f.R)) / norm_a)
    # ||A - CUR||^2 = ||A||^2 - 2<A, CUR> + ||CUR||^2 with every product r-sized
    cross = float(np.sum((f.R @ a.T @ f.C).T * f.U))
    gram = (f.C.T @ f.C) @ f.U @ (f.R @ f.R.T)
    approx_sq = float(np.sum(gram * f.U))
    resid_sq = max(norm_a**2 - 2.0 * cross + approx_sq, 0.0)
    return float(np.sqrt(resid_sq) / norm_a)


@dataclass(frozen=True)
class HybridResult:
    """Outcome of compress-to-rank-r-then-factor: only `factor` is stored."""

    r: int
    k: int
    factor: Factorization
    error: float

    def __post_init__(self):
        if not self.error >= 0.0:
            raise ValueError("error must be nonnegative")

    @property
    def storage_scalars(self):
        return self.factor.storage_scalars


def hybrid_compress(A, r, k, seed):
    """CUR to rank r, then greedy two-sided factorization of M = CUR under k.

    k is the storage target for the kept factorization, as a scalar count or
    a StorageBudget measured against A. The CUR factors are intermediate
    (recomputable from the seed) and do not count toward k. Error is the
    relative Frobenius residual of the final reconstruction against A.
    """
    scalars = k.scalars(A) if isinstance(k, StorageBudget) else int(k)
    cur_seed, mmf_seed = np.random.SeedSequence(seed).spawn(2)
    f = cur_decompose(A, r, cur_seed)
    M = reconstruct_cur(f)
    d = solve_core_size(M, "direct-greedytopn", scalars)
    factor = factor_direct(M, d, Sparsifier(GREEDY_TOP_N), mmf_seed)
    a = A.to_dense()
    err = float(np.linalg.norm(a - reconstruct(factor).to_dense()) / np.linalg.norm(a))
    return HybridResult(int(r), scalars, factor, err)
