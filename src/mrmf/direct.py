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
from functools import partial

import numpy as np

from .cores import CoreSparse, Sparsifier, sparsify
from .jacobi import conjugation_sweep, two_basis_reconstruct, two_basis_sweep, unpermute
from .matrices import ROTATION, SquareMatrix, check_parity, frozen
from .storage import stored_scalars


@dataclass(frozen=True, eq=False)
class Factorization:
    """Left rotations P, right rotations Q, truncated core H, retired labels.

    left and right are matrices.ROTATION record arrays in application order;
    row_retired/col_retired are int64 arrays of the label removed at each
    level, so the active sets are recoverable for any level prefix. Each is
    stored as a read-only copy. With conjugate, right and col_retired are
    left and row_retired themselves, one array for both sides, and the core
    row and column sets are one set.
    """

    n: int
    left: np.ndarray
    right: np.ndarray
    H: CoreSparse
    row_retired: np.ndarray
    col_retired: np.ndarray
    conjugate: bool = False

    def __post_init__(self):
        for name, twin, dtype in (("left", "right", ROTATION),
                                  ("row_retired", "col_retired", np.int64)):
            kept = frozen(getattr(self, name), dtype)
            object.__setattr__(self, name, kept)
            # conjugate: one array for both sides, so a reconstruction
            # schedules the waves once
            object.__setattr__(self, twin, kept if self.conjugate
                               else frozen(getattr(self, twin), dtype))

    @property
    def core_rows(self):
        return self.H.row_set

    @property
    def core_cols(self):
        return self.H.col_set

    @property
    def storage_scalars(self):
        twins = () if self.conjugate else (self.right, self.H.col_set)
        return stored_scalars(self.left, self.H.row_set, self.H.core, self.H.offcore, *twins)


def sizes_of(size):
    """A route's size argument as a tuple: a tuple as given, any other value
    as the one-element tuple."""
    sizes = size if isinstance(size, tuple) else (size,)
    if not sizes:
        raise ValueError("no size to factor to")
    return sizes


def shaped_like(size, results):
    """The results of sizes_of(size): a tuple for a tuple, else the one result."""
    return tuple(results) if isinstance(size, tuple) else results[0]


def kept_by(rule):
    """The cut that stores what the cores.Sparsifier rule keeps of h."""
    return lambda h, rows, cols: sparsify(h, rows, cols, rule)


def sweep_and_truncate(A, cuts, seed, parity, owned=False):
    """Sweep A once and cut one Factorization per (core_size, truncate) pair.

    parity None runs two_basis_sweep. False (symmetric) or True (skew) runs
    conjugation_sweep after check_parity has passed on A, so a wrong-parity
    input raises before any level. The sweep runs to the smallest core size
    and stops at each larger one; a conjugation sweep ends at one active
    index, so there core sizes 0 and 1 are one stop. At each stop the
    rotated matrix is unpermuted once, and every cut at that stop truncates
    it: truncate(h, rows, cols) turns it and the surviving core sets into
    the stored CoreSparse. So one n x n snapshot is alive at a time, and
    each cut is bit for bit the one a sweep of its own would give. The
    working copy is dropped once the last stop is unpermuted, before its
    cuts truncate, so for a COO input at most two n x n arrays are alive
    here. owned says that A's dense array is the caller's to give up
    (hybrid's fresh M = CUR): the sweep then works in it, not in a copy.

    Returns the factorizations in the order of cuts. Each core size must
    lie in [1, n], or [0, n] for a skew sweep.
    """
    n = A.n
    lo = 0 if parity else 1
    for d, _ in cuts:
        if not lo <= d <= n:
            raise ValueError(f"core_size must be in [{lo}, {n}]")
    conjugate = parity is not None
    if conjugate:
        check_parity(A, skew=parity)
    a = A.to_dense()
    if A.is_sparse or owned:  # a fresh array no one else holds: sweep it in place
        a.flags.writeable = True
    else:
        a = a.copy()
    rng = np.random.default_rng(seed)
    stop_of = [max(d, 1) if conjugate else d for d, _ in cuts]
    out = [None] * len(cuts)

    def cut(left, right, row_perm, col_perm, row_ret, col_ret, last=False):
        nonlocal a
        hbar = unpermute(a, row_perm, col_perm)
        if last:  # the sweep is over; an intermediate stop keeps a, since it goes on
            a = None
        for k, (d, truncate) in enumerate(cuts):
            if stop_of[k] == n - len(left):
                rows, cols = (np.sort(p[:d]) for p in (row_perm, col_perm))
                h = truncate(hbar, rows, cols)
                out[k] = Factorization(n, left, right, h, row_ret, col_ret, conjugate)

    deepest = min(d for d, _ in cuts)
    stops = set(stop_of) - {min(stop_of)}
    sweep = partial(conjugation_sweep, parity=parity) if conjugate else two_basis_sweep
    cut(*sweep(a, deepest, rng, stops=stops, at_stop=cut), last=True)
    return out


def factor_direct(A, core_size, sparsifier, seed):
    """Greedy two-sided factorization down to a core_size x core_size core.

    sparsifier: a cores.Sparsifier; its entry budget m defaults to n - d.
    Sparsifier("topn", m=n * n) keeps every entry, the untruncated form:
    the unpermuted working matrix after the first n - core_size levels of
    any deeper run (the same cut of a conjugation sweep is the untruncated
    symmetric or skew form). core_size may be a tuple of core sizes with a
    matching tuple of sparsifiers: one sweep then serves them all, and a
    tuple of Factorizations comes back, each bit for bit the one its own
    call would return.
    """
    sizes, rules = sizes_of(core_size), sizes_of(sparsifier)
    if len(rules) != len(sizes):
        raise ValueError("give one sparsifier per core size")
    if not all(isinstance(rule, Sparsifier) for rule in rules):
        raise TypeError("sparsifier must be a cores.Sparsifier")
    cuts = [(d, kept_by(rule)) for d, rule in zip(sizes, rules)]
    return shaped_like(core_size, sweep_and_truncate(A, cuts, seed, parity=None))


def reconstruct(F):
    """Dense reconstruction P H Q^T of the matrix a Factorization implies."""
    return SquareMatrix._owning(two_basis_reconstruct(F.H, F.left, F.right))
