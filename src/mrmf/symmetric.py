"""Multiresolution factorization of symmetric matrices.

A ~ G_1 ... G_L H G_L^T ... G_1^T with L = n - d sparse rotations: the
conjugate form of direct.Factorization, with H in core-diagonal form (dense
on the d surviving indices, diagonal elsewhere). Each level pairs a random
active index with its most similar partner under the active-row Gram,
rotates to diagonalize the 2x2 Gram block, and retires the index whose
off-diagonal residual is smaller.
"""

from __future__ import annotations

from .cores import CORE_DIAGONAL, Sparsifier, sparsify
from .direct import sweep_and_truncate


def _corediag(h, rows, cols):
    return sparsify(h, rows, cols, Sparsifier(CORE_DIAGONAL))


def factor_symmetric(A, core_size, seed, truncate=True):
    """Greedy symmetric factorization down to a core of core_size indices.

    truncate=False keeps the full rotated matrix in H (lossless): the
    unpermuted working matrix after the first n - core_size levels of any
    deeper run.
    """
    if not 1 <= core_size <= A.n:
        raise ValueError(f"core_size must be in [1, {A.n}]")
    rule = _corediag if truncate else None
    return sweep_and_truncate(A, core_size, seed, parity=False, truncate=rule)
