"""Multiresolution factorization of skew-symmetric matrices.

The conjugate form of direct.Factorization, with the rotation selection of
the symmetric route (the row Gram of a skew K is K^T K) but a different
terminal core: a skew matrix has no useful diagonal, so the non-core
indices are paired into disjoint antisymmetric 2x2 blocks [[0, v], [-v, 0]]
by greedy magnitude matching.
"""

from __future__ import annotations

from .cores import murnaghan_sparsify
from .direct import sweep_and_truncate


def _pairs(h, rows, cols):
    return murnaghan_sparsify(h, rows)


def factor_skew(K, core_size, seed, truncate=True):
    """Greedy skew factorization; core_size may be zero (pure pairing form).

    The level loop needs two active indices to rotate, so it stops at one
    active index when core_size = 0 and that leftover joins the pairing pool.
    With the default truncation every off-core entry (p, q, v) of H is
    stored with its exact mirror (q, p, -v) and no index appears in two
    pairs; truncate=False keeps the rotated matrix verbatim instead, the
    unpermuted working matrix after the first n - core_size levels of any
    deeper run.
    """
    if not 0 <= core_size <= K.n:
        raise ValueError(f"core_size must be in [0, {K.n}]")
    rule = _pairs if truncate else None
    return sweep_and_truncate(K, core_size, seed, parity=True, truncate=rule)
