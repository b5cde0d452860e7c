"""Truncated core representations of a rotated matrix.

A CoreSparse keeps a dense block on (row_set x col_set) plus an explicit
list of off-core entries. The sparsifiers differ only in which off-core
entries survive: the off-core diagonal, the m largest by magnitude, or the
m largest under a row/column-disjointness constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import IndexSet

CORE_DIAGONAL = "corediag"
TOP_N = "topn"
GREEDY_TOP_N = "greedytopn"
_KINDS = (CORE_DIAGONAL, TOP_N, GREEDY_TOP_N)


@dataclass(frozen=True)
class Sparsifier:
    """Off-core retention rule: kind plus entry budget m (ignored by corediag).

    m=None selects the default budget n - d at sparsification time.
    """

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sparsifier kind {self.kind!r}")
        if self.m is not None and self.m < 0:
            raise ValueError("entry budget m must be nonnegative")


@dataclass(frozen=True)
class CoreSparse:
    """Dense core block plus explicit off-core entries of an n x n matrix."""

    n: int
    row_set: IndexSet
    col_set: IndexSet
    core: np.ndarray
    offcore: tuple  # ((row, col, value), ...)

    def __post_init__(self):
        core = np.asarray(self.core, dtype=np.float64)
        if core.shape != (len(self.row_set), len(self.col_set)):
            raise ValueError("core block shape does not match index sets")
        core = core.copy()
        core.flags.writeable = False
        object.__setattr__(self, "core", core)
        object.__setattr__(
            self, "offcore", tuple((int(r), int(c), float(v)) for r, c, v in self.offcore)
        )

    def to_dense(self):
        h = np.zeros((self.n, self.n))
        if len(self.row_set) and len(self.col_set):
            h[np.ix_(self.row_set.to_array(), self.col_set.to_array())] = self.core
        for r, c, v in self.offcore:
            h[r, c] = v
        return h

    def storage_scalars(self, index_scalars):
        """Scalar count: dense block + 3 per off-core entry + index overhead."""
        return self.core.size + 3 * len(self.offcore) + index_scalars


def _offcore_mask(n, row_set, col_set):
    row_in = np.zeros(n, dtype=bool)
    col_in = np.zeros(n, dtype=bool)
    row_in[list(row_set)] = True
    col_in[list(col_set)] = True
    return ~(row_in[:, None] & col_in[None, :])


def _ranked_top(h, pos, size):
    """The `size` largest-magnitude flat positions of h among pos, ranked.

    The cut is a magnitude threshold found with np.partition, and entries
    tied with it are kept, so every returned entry ranks ahead of all those
    left out and only the kept ones are sorted, in (-|value|, row, col)
    order (a flat position orders as (row, col)).
    """
    mag = np.abs(h.ravel()[pos])
    if size < pos.size:
        top = mag >= np.partition(mag, -size)[-size]
        pos, mag = pos[top], mag[top]
    return pos[np.argsort(-mag, kind="stable")]


def _entries(h, pos):
    rows, cols = np.divmod(pos, h.shape[0])
    return zip(rows.tolist(), cols.tolist(), h.ravel()[pos].tolist())


def _top(h, mask, m):
    """The m off-core entries ranked first."""
    if m == 0:
        return []
    ranked = _ranked_top(h, np.flatnonzero(mask & (h != 0.0)), m)
    return list(_entries(h, ranked[:m]))


def _greedy_disjoint(h, mask, limit, rows_used, cols_used):
    """Ranked entries whose row and column are both still unused, up to limit.

    Candidates are ranked in chunks that start at 2 * limit and double.
    After each chunk, the entries now blocked (the whole chunk among them)
    leave the pool in one vectorized step. Passing one array as both
    rows_used and cols_used draws rows and columns from one pool of indices.
    """
    n = h.shape[0]
    kept = []
    pool = np.flatnonzero(mask & (h != 0.0))
    size = 2 * limit
    while pool.size and len(kept) < limit:
        for r, c, v in _entries(h, _ranked_top(h, pool, size)):
            if not rows_used[r] and not cols_used[c]:
                rows_used[r] = cols_used[c] = True
                kept.append((r, c, v))
                if len(kept) == limit:
                    break
        pool = pool[~rows_used[pool // n] & ~cols_used[pool % n]]
        size *= 2
    return kept


def sparsify(h, row_set, col_set, rule):
    """Truncate the dense matrix h to a CoreSparse under the given Sparsifier.

    The (row_set x col_set) block is always kept dense. corediag keeps every
    nonzero off-core diagonal position; topn keeps the m largest off-core
    entries by |value|; greedytopn scans in descending |value| and accepts an
    entry only if neither its row nor its column was already used, stopping
    after m acceptances. Ties are broken by (row, col) order.
    """
    n = h.shape[0]
    core = h[np.ix_(row_set.to_array(), col_set.to_array())] if len(row_set) and len(col_set) \
        else np.zeros((len(row_set), len(col_set)))
    kept = []
    if rule.kind == CORE_DIAGONAL:
        for i in range(n):
            if (i not in row_set or i not in col_set) and h[i, i] != 0.0:
                kept.append((i, i, float(h[i, i])))
    else:
        m = rule.m if rule.m is not None else max(n - len(row_set), 0)
        mask = _offcore_mask(n, row_set, col_set)
        if rule.kind == TOP_N:
            kept = _top(h, mask, m)
        else:
            kept = _greedy_disjoint(h, mask, m, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    return CoreSparse(n, row_set, col_set, core, tuple(kept))


def keep_all(h, row_set, col_set):
    """Untruncated CoreSparse: the whole matrix h (off-core kept verbatim)."""
    n = h.shape[0]
    core = h[np.ix_(row_set.to_array(), col_set.to_array())] if len(row_set) and len(col_set) \
        else np.zeros((len(row_set), len(col_set)))
    kept = _top(h, _offcore_mask(n, row_set, col_set), h.size)
    return CoreSparse(n, row_set, col_set, core, tuple(kept))


def murnaghan_sparsify(h, core_set):
    """Pair non-core indices into disjoint antisymmetric 2x2 blocks.

    Candidate pairs (p, q), p < q, both outside core_set, are scanned in
    descending |h[p, q]|; a pair is accepted when neither index is already
    paired. Each accepted pair stores (p, q, v) and its exact mirror
    (q, p, -v), so the implied off-core structure is skew-symmetric by
    construction. An odd leftover index keeps nothing (its diagonal is zero
    in any skew matrix).
    """
    n = h.shape[0]
    non = np.ones(n, dtype=bool)
    non[list(core_set)] = False
    mask = np.triu(np.ones((n, n), dtype=bool), 1) & non[:, None] & non[None, :]
    used = np.zeros(n, dtype=bool)
    kept = []
    for p, q, v in _greedy_disjoint(h, mask, int(non.sum()) // 2, used, used):
        kept += [(p, q, v), (q, p, -v)]
    core = h[np.ix_(core_set.to_array(), core_set.to_array())] if len(core_set) \
        else np.zeros((0, 0))
    return CoreSparse(n, core_set, core_set, core, tuple(kept))
