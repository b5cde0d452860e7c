"""Additive factorization of a general square matrix.

A = S + K with S symmetric and K skew-symmetric; each half gets its own
multiresolution factorization and the approximant is the sum of the two
reconstructions. The halves are Frobenius-orthogonal, so the storage budget
is split proportionally to their squared masses: scalars spent where the
energy is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import CoreSparse
from .direct import Factorization, reconstruct
from .matrices import IndexSet, SquareMatrix, split_symmetric_skew
from .skew import factor_skew
from .storage import BudgetError, StorageBudget, minimum_storage, solve_core_size
from .symmetric import factor_symmetric


@dataclass(frozen=True)
class AdditiveFactorization:
    """Independent symmetric and skew factorizations of the two halves."""

    sym: Factorization
    skew: Factorization
    n: int

    def __post_init__(self):
        if self.sym.n != self.n or self.skew.n != self.n:
            raise ValueError("half factorizations disagree on dimension")

    @property
    def storage_scalars(self):
        return self.sym.storage_scalars + self.skew.storage_scalars


def _empty(n):
    """The factorization of a zero half: no rotations, no core, nothing stored."""
    empty = IndexSet((), n)
    h = CoreSparse(n, empty, empty, np.zeros((0, 0)), ())
    return Factorization(n, (), (), h, (), (), conjugate=True)


def _sq_mass(M):
    _, _, vals = M.to_coo()
    return float(np.dot(vals, vals))


def factor_additive(A, budget, seed):
    """Factor the symmetric and skew halves of A under a shared budget.

    budget is a StorageBudget (measured against A) or an explicit scalar
    count. A half with zero mass costs nothing and cedes its entire share;
    otherwise each half is floored at its own minimum storable footprint
    before the mass-proportional split is applied.
    """
    n = A.n
    total = budget.scalars(A) if isinstance(budget, StorageBudget) else int(budget)
    S, K = split_symmetric_skew(A)
    mass_s, mass_k = _sq_mass(S), _sq_mass(K)
    sym_seed, skew_seed = np.random.SeedSequence(seed).spawn(2)

    if mass_s == 0.0 and mass_k == 0.0:
        return AdditiveFactorization(_empty(n), _empty(n), n)
    if mass_k == 0.0:
        d = solve_core_size(S, "symmetric", total)
        return AdditiveFactorization(factor_symmetric(S, d, sym_seed), _empty(n), n)
    if mass_s == 0.0:
        d = solve_core_size(K, "skew", total)
        return AdditiveFactorization(_empty(n), factor_skew(K, d, skew_seed), n)

    min_s = minimum_storage(n, "symmetric")
    min_k = minimum_storage(n, "skew")
    if total < min_s + min_k:
        raise BudgetError(
            f"budget of {total} scalars cannot store both halves "
            f"(minimum {min_s + min_k} at n={n})"
        )
    share_s = int(round(total * mass_s / (mass_s + mass_k)))
    share_s = min(max(share_s, min_s), total - min_k)
    d_s = solve_core_size(S, "symmetric", share_s)
    d_k = solve_core_size(K, "skew", total - share_s)
    return AdditiveFactorization(
        factor_symmetric(S, d_s, sym_seed), factor_skew(K, d_k, skew_seed), n
    )


def reconstruct_additive(F):
    """Sum of the two half reconstructions."""
    return SquareMatrix.from_dense(
        reconstruct(F.sym).to_dense() + reconstruct(F.skew).to_dense()
    )
