"""Multiresolution factorization of symmetric matrices.

A ~ G_1 ... G_L H G_L^T ... G_1^T with L = n - d sparse rotations: the
conjugate form of direct.Factorization, with H in core-diagonal form (dense
on the d surviving indices, diagonal elsewhere). Each level pairs a random
active index with its most similar partner under the active-row Gram,
rotates to diagonalize the 2x2 Gram block, and retires the index whose
off-diagonal residual is smaller.
"""

from __future__ import annotations

from .cores import CORE_DIAGONAL, Sparsifier, keep_all, sparsify
from .direct import sweep_and_truncate
from .matrices import check_symmetric


def _corediag(h, rows, cols):
    return sparsify(h, rows, cols, Sparsifier(CORE_DIAGONAL))


def factor_symmetric(A, core_size, seed, truncate=True, level_callback=None):
    """Greedy symmetric factorization down to a core of core_size indices.

    truncate=False keeps the full rotated matrix in H (lossless; useful for
    round-trip checks). level_callback, when given, sees the working matrix
    after every rotation (rows/columns compacted, i.e. permuted).
    """
    if not 1 <= core_size <= A.n:
        raise ValueError(f"core_size must be in [1, {A.n}]")
    check_symmetric(A.to_dense())
    rule = _corediag if truncate else keep_all
    return sweep_and_truncate(
        A, core_size, seed, conjugate=True, truncate=rule, level_callback=level_callback
    )
