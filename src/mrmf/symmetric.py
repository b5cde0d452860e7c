"""Multiresolution factorization of symmetric matrices.

A ~ G_1 ... G_L H G_L^T ... G_1^T with L = n - d sparse rotations: the
conjugate form of direct.Factorization, with H in core-diagonal form (dense
on the d surviving indices, diagonal elsewhere). Each level pairs a random
active index with its most similar partner under the active-row Gram,
rotates to diagonalize the 2x2 Gram block, and retires the index whose
off-diagonal residual is smaller.
"""

from __future__ import annotations

from .cores import CORE_DIAGONAL, Sparsifier
from .direct import kept_by, shaped_like, sizes_of, sweep_and_truncate


def factor_symmetric(A, core_size, seed):
    """Greedy symmetric factorization down to a core of core_size indices.

    A tuple of core sizes gives a tuple of factorizations from one sweep,
    each bit for bit the one its own call would return.
    """
    cuts = [(d, kept_by(Sparsifier(CORE_DIAGONAL))) for d in sizes_of(core_size)]
    return shaped_like(core_size, sweep_and_truncate(A, cuts, seed, parity=False))
