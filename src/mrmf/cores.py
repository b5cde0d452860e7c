"""Truncated core representations of a rotated matrix.

A CoreSparse keeps a dense block on (row_set x col_set), the two sets as
sorted int64 arrays, plus its off-core entries as one matrices.ENTRY record
array. The sparsifiers differ only in which off-core entries survive: the
off-core diagonal, the m largest by magnitude, or the m largest under a
row/column-disjointness constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import ENTRY, frozen, index_set

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


@dataclass(frozen=True, eq=False)
class CoreSparse:
    """Dense core block plus explicit off-core entries of an n x n matrix.

    Every field is stored as a read-only copy. The index sets must be sorted
    distinct indices in range(n); offcore takes (row, col, value) triples or
    an ENTRY array.
    """

    n: int
    row_set: np.ndarray
    col_set: np.ndarray
    core: np.ndarray
    offcore: np.ndarray

    def __post_init__(self):
        for name in ("row_set", "col_set"):
            object.__setattr__(self, name, index_set(getattr(self, name), self.n))
        core = frozen(self.core, np.float64)
        if core.shape != (self.row_set.size, self.col_set.size):
            raise ValueError("core block shape does not match index sets")
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "offcore", frozen(self.offcore, ENTRY))

    def to_dense(self):
        h = np.zeros((self.n, self.n))
        h[np.ix_(self.row_set, self.col_set)] = self.core
        h[self.offcore["row"], self.offcore["col"]] = self.offcore["val"]
        return h


def _offcore_mask(n, row_set, col_set):
    row_in = np.zeros(n, dtype=bool)
    col_in = np.zeros(n, dtype=bool)
    row_in[row_set] = True
    col_in[col_set] = True
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
    """The entries of h at flat positions pos, as an ENTRY array."""
    out = np.empty(pos.size, dtype=ENTRY)
    out["row"], out["col"] = np.divmod(pos, h.shape[0])
    out["val"] = h.ravel()[pos]
    return out


def _top(h, mask, m):
    """The m off-core entries ranked first."""
    if m == 0:
        return []
    ranked = _ranked_top(h, np.flatnonzero(mask & (h != 0.0)), m)
    return _entries(h, ranked[:m])


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
        for r, c, v in _entries(h, _ranked_top(h, pool, size)).tolist():
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
    after m acceptances. Ties are broken by (row, col) order. topn with
    m = n * n keeps every off-core entry: the untruncated form.
    """
    n = h.shape[0]
    core = h[np.ix_(row_set, col_set)]
    mask = _offcore_mask(n, row_set, col_set)
    m = rule.m if rule.m is not None else max(n - len(row_set), 0)
    if rule.kind == CORE_DIAGONAL:
        diag = np.flatnonzero(np.diagonal(mask) & (np.diagonal(h) != 0.0))
        kept = _entries(h, diag * (n + 1))
    elif rule.kind == TOP_N:
        kept = _top(h, mask, m)
    else:
        kept = _greedy_disjoint(h, mask, m, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    return CoreSparse(n, row_set, col_set, core, kept)


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
    non[core_set] = False
    mask = np.triu(np.ones((n, n), dtype=bool), 1) & non[:, None] & non[None, :]
    used = np.zeros(n, dtype=bool)
    kept = []
    for p, q, v in _greedy_disjoint(h, mask, int(non.sum()) // 2, used, used):
        kept += [(p, q, v), (q, p, -v)]
    core = h[np.ix_(core_set, core_set)]
    return CoreSparse(n, core_set, core_set, core, kept)
