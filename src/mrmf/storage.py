"""Storage accounting: the common scalar ruler for every method.

Every stored number or index counts as one scalar, so a result's count is
stored_scalars, the one ruler, of the arrays its reconstruction reads. A
Givens rotation is one matrices.ROTATION record, 3 scalars (i, j, theta); a
truncated core is its dense block plus one 3-scalar matrices.ENTRY record
per off-core entry plus its index sets; CUR counts the entries of C, U and
R plus the selected row/column ids. The retired labels a factorization
keeps are not read by reconstruction and not counted. Budgets are a
fraction of the input's base size: 3*nnz under the default sparse-coo
accounting, n^2 under dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPARSE_COO = "sparse-coo"
DENSE = "dense"


class BudgetError(ValueError):
    """Budget too small to store any factorization of the requested kind."""


@dataclass(frozen=True)
class StorageBudget:
    """Fraction of the input's base storage, under one of two rulers."""

    fraction: float
    accounting: str = SPARSE_COO

    def __post_init__(self):
        if not 0.0 < self.fraction < math.inf:
            raise ValueError(f"fraction must be finite and positive, got {self.fraction}")
        if self.accounting not in (SPARSE_COO, DENSE):
            raise ValueError(f"unknown accounting mode {self.accounting!r}")

    def base(self, A):
        return 3 * A.nnz if self.accounting == SPARSE_COO else A.n * A.n

    def scalars(self, A):
        k = self.fraction * self.base(A)
        if not math.isfinite(k):
            raise ValueError(f"fraction {self.fraction} of {self.base(A)} scalars is not finite")
        return int(math.ceil(k))


def stored_scalars(*arrays):
    """Scalars held by arrays: one per element, or one per field of a record (ROTATION: 3)."""
    return sum(a.size * len(a.dtype.names or (a.dtype,)) for a in arrays)


def predicted_storage(n, method, d):
    """Worst-case scalar count of a method's output at core size d.

    Used to size d before a run; actual storage never exceeds it (greedy
    selection may retain fewer entries, and corediag's off-core diagonal
    count depends on the run's core overlap, bounded here pessimistically).
    """
    if method == "symmetric":
        return 3 * (n - d) + d * d + 3 * (n - d) + d
    if method == "skew":
        return 3 * (n - max(d, 1)) + d * d + 6 * ((n - d) // 2) + d
    if method in ("direct-topn", "direct-greedytopn", "hybrid"):
        return 6 * (n - d) + d * d + 3 * (n - d) + 2 * d
    if method == "direct-corediag":
        off_diag = n - max(0, 2 * d - n)
        return 6 * (n - d) + d * d + 3 * off_diag + 2 * d
    if method == "cur":
        return 2 * n * d + d * d + 2 * d
    raise ValueError(f"no storage model for method {method!r}")


def solve_core_size(A, method, budget):
    """Largest core size (or CUR rank) whose predicted storage fits the budget.

    budget is a scalar count (convert a fraction with StorageBudget.scalars(A)).
    Deterministic descending scan — predicted storage is not monotone in d
    at small d, and n stays small enough that a scan costs nothing.
    """
    n = A.n
    lo = 0 if method == "skew" else 1
    for d in range(n, lo - 1, -1):
        if predicted_storage(n, method, d) <= budget:
            return d
    raise BudgetError(
        f"budget of {budget} scalars is below the minimum footprint of {method} at n={n}"
    )


def minimum_storage(n, method):
    lo = 0 if method == "skew" else 1
    return min(predicted_storage(n, method, d) for d in range(lo, n + 1))
