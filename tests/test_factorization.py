"""The one Factorization form as the symmetric, skew and additive routes build it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    SquareMatrix,
    factor_additive,
    factor_skew,
    factor_symmetric,
    minimum_storage,
    reconstruct,
)
from mrmf.jacobi import conjugate_reconstruct


def _check_conjugate(F):
    assert F.conjugate
    assert F.left == F.right
    assert F.row_retired == F.col_retired
    assert F.core_rows == F.core_cols
    # the rotations and the core index set are stored once
    assert F.storage_scalars == (
        3 * len(F.left) + F.H.core.size + 3 * len(F.H.offcore) + len(F.core_rows)
    )
    # routing a conjugate factorization through the two-sided reconstruction
    # changes no bits
    want = conjugate_reconstruct(F.H.to_dense(), F.left)
    assert reconstruct(F).to_dense().tobytes() == want.tobytes()


@st.composite
def _conjugate_inputs(draw):
    """A small symmetric or skew matrix on a coarse grid (many ties)."""
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n))
    m = np.array(cells, dtype=np.float64).reshape(n, n) / 4.0
    kind = draw(st.sampled_from(("symmetric", "skew")))
    a = m + m.T if kind == "symmetric" else m - m.T
    return kind, SquareMatrix.from_dense(a)


@settings(max_examples=150, deadline=None)
@given(_conjugate_inputs(), st.data())
def test_conjugate_routes_store_one_sequence_and_core_set(case, data):
    kind, A = case
    n = A.n
    seed = data.draw(st.integers(0, 2**32 - 1))
    truncate = data.draw(st.booleans())
    if kind == "symmetric":
        d = data.draw(st.integers(1, n))
        _check_conjugate(factor_symmetric(A, d, seed, truncate=truncate))
    else:
        d = data.draw(st.integers(0, n))
        _check_conjugate(factor_skew(A, d, seed, truncate=truncate))

    # a purely symmetric or purely skew input leaves the other half empty
    budget = data.draw(st.integers(minimum_storage(n, kind), n * n + n))
    F = factor_additive(A, budget, seed)
    empty = F.skew if kind == "symmetric" else F.sym
    assert empty.left == () and empty.storage_scalars == 0
    for half in (F.sym, F.skew):
        _check_conjugate(half)
