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
from .direct import Factorization, shaped_like, sizes_of
from .jacobi import two_basis_reconstruct
from .matrices import SquareMatrix, split_symmetric_skew
from .skew import factor_skew
from .storage import BudgetError, minimum_storage, solve_core_size
from .symmetric import factor_symmetric


@dataclass(frozen=True)
class AdditiveFactorization:
    """Independent symmetric and skew factorizations of the two halves."""

    sym: Factorization
    skew: Factorization

    @property
    def n(self):
        return self.sym.n

    @property
    def storage_scalars(self):
        return self.sym.storage_scalars + self.skew.storage_scalars


def _empty(n):
    """The factorization of a zero half: no rotations, no core, nothing stored."""
    h = CoreSparse(n, [], [], np.zeros((0, 0)), [])
    return Factorization(n, [], [], h, [], [], conjugate=True)


def _sq_mass(M):
    _, _, vals = M.to_coo()
    # einsum sums the squares in its own fixed order, where np.dot calls a
    # BLAS dot whose result depends on the BLAS thread count
    return float(np.einsum("i,i->", vals, vals))


def half_masses(A):
    """Squared Frobenius masses of A's symmetric and skew halves."""
    return tuple(_sq_mass(half) for half in split_symmetric_skew(A))


def split_budget(n, masses, budget):
    """The (symmetric, skew) shares of a scalar budget, given the halves' masses.

    Each half with mass is floored at its own minimum storable footprint
    before the mass-proportional split is applied; a half with zero mass has
    minimum and share 0 and stores nothing. Raises BudgetError when the
    budget is below the sum of the minimums.
    """
    mass_s, mass_k = masses
    min_s = minimum_storage(n, "symmetric") if mass_s else 0
    min_k = minimum_storage(n, "skew") if mass_k else 0
    if budget < min_s + min_k:
        raise BudgetError(
            f"budget of {budget} scalars cannot store the nonzero halves "
            f"(minimum {min_s + min_k} at n={n})"
        )
    share_s = int(round(budget * mass_s / (mass_s + mass_k))) if mass_s else 0
    share_s = min(max(share_s, min_s), budget - min_k)
    return share_s, budget - share_s


def factor_additive(A, budget, seed):
    """Factor the symmetric and skew halves of A under a shared budget.

    budget is a scalar count (convert a fraction with StorageBudget.scalars(A)),
    split between the halves by split_budget. A tuple of budgets gives a
    tuple of factorizations: A is split once, every budget is checked before
    any sweep, and one sweep per half serves them all, each result bit for
    bit the one its own call would return.
    """
    n = A.n
    budgets = sizes_of(budget)
    S, K = split_symmetric_skew(A)
    masses = _sq_mass(S), _sq_mass(K)
    shares = [split_budget(n, masses, b) for b in budgets]
    sym_seed, skew_seed = np.random.SeedSequence(seed).spawn(2)
    sym = skew = (_empty(n),) * len(budgets)
    if masses[0]:
        sizes = tuple(solve_core_size(S, "symmetric", share) for share, _ in shares)
        sym = factor_symmetric(S, sizes, sym_seed)
    if masses[1]:
        sizes = tuple(solve_core_size(K, "skew", share) for _, share in shares)
        skew = factor_skew(K, sizes, skew_seed)
    return shaped_like(budget, [AdditiveFactorization(*halves) for halves in zip(sym, skew)])


def reconstruct_additive(F):
    """Sum of the two half reconstructions, formed in the symmetric one's buffer."""
    total = two_basis_reconstruct(F.sym.H, F.sym.left, F.sym.right)
    total += two_basis_reconstruct(F.skew.H, F.skew.left, F.skew.right)
    return SquareMatrix._owning(total)
