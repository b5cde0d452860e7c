"""Multiresolution factorization of skew-symmetric matrices.

The conjugate form of direct.Factorization, with the rotation selection of
the symmetric route (the row Gram of a skew K is K^T K) but a different
terminal core: a skew matrix has no useful diagonal, so the non-core
indices are paired into disjoint antisymmetric 2x2 blocks [[0, v], [-v, 0]]
by greedy magnitude matching.
"""

from __future__ import annotations

from .cores import murnaghan_sparsify
from .direct import shaped_like, sizes_of, sweep_and_truncate


def _pairs(h, rows, cols):
    return murnaghan_sparsify(h, rows)


def factor_skew(K, core_size, seed):
    """Greedy skew factorization; core_size may be zero (pure pairing form).

    The level loop needs two active indices to rotate, so it stops at one
    active index when core_size = 0 and that leftover joins the pairing pool.
    Every off-core entry (p, q, v) of H is stored with its exact mirror
    (q, p, -v) and no index appears in two pairs. A tuple of core sizes
    gives a tuple of factorizations from one sweep, each bit for bit the
    one its own call would return.
    """
    cuts = [(d, _pairs) for d in sizes_of(core_size)]
    return shaped_like(core_size, sweep_and_truncate(K, cuts, seed, parity=True))
