"""The one Factorization form as the symmetric, skew and additive routes build it,
and the storage count of every method against the arrays it stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    BENCH_METHODS,
    AdditiveFactorization,
    CurFactors,
    Sparsifier,
    SquareMatrix,
    StorageBudget,
    compression_error,
    cur_decompose,
    factor_additive,
    factor_direct,
    factor_skew,
    factor_symmetric,
    hybrid_compress,
    minimum_storage,
    reconstruct,
    solve_core_size,
)
from mrmf import direct
from mrmf.jacobi import conjugate_reconstruct
from mrmf.storage import DENSE
from untruncated import untruncated


def _check_conjugate(F):
    assert F.conjugate
    assert F.left.tolist() == F.right.tolist()
    assert np.array_equal(F.row_retired, F.col_retired)
    assert np.array_equal(F.core_rows, F.core_cols)
    # the rotations and the core index set are stored once
    assert F.storage_scalars == (
        3 * len(F.left) + F.H.core.size + 3 * len(F.H.offcore) + len(F.core_rows)
    )
    # routing a conjugate factorization through the two-sided reconstruction
    # changes no bits
    want = conjugate_reconstruct(F.H.to_dense(), F.left)
    assert reconstruct(F).to_dense().tobytes() == want.tobytes()


@pytest.mark.parametrize("conjugate", (True, False))
def test_factorization_stores_read_only_copies_once(conjugate, monkeypatch):
    m = np.random.default_rng(4).standard_normal((12, 12))
    F = factor_symmetric(SquareMatrix.from_dense(m + m.T), 5, 2)
    caller = {side: np.array(getattr(F, side)) for side in
             ("left", "right", "row_retired", "col_retired")}
    copies = []
    freeze = direct.frozen

    def counting(values, dtype):
        copies.append(values)
        return freeze(values, dtype)

    monkeypatch.setattr(direct, "frozen", counting)
    G = direct.Factorization(F.n, H=F.H, conjugate=conjugate, **caller)
    # a conjugate factorization copies only the fields it keeps
    kept = ("left", "row_retired") if conjugate else tuple(caller)
    assert [id(v) for v in copies] == [id(caller[side]) for side in kept]
    assert (G.right is G.left and G.col_retired is G.row_retired) == conjugate
    for side, arr in caller.items():
        stored = getattr(G, side)
        assert not np.shares_memory(stored, arr) and not stored.flags.writeable
        assert stored.tolist() == arr.tolist()


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
        _check_conjugate(factor_symmetric(A, d, seed) if truncate
                         else untruncated(A, d, seed, parity=False))
    else:
        d = data.draw(st.integers(0, n))
        _check_conjugate(factor_skew(A, d, seed) if truncate
                         else untruncated(A, d, seed, parity=True))

    # a purely symmetric or purely skew input leaves the other half empty
    budget = data.draw(st.integers(minimum_storage(n, kind), n * n + n))
    F = factor_additive(A, budget, seed)
    empty = F.skew if kind == "symmetric" else F.sym
    assert len(empty.left) == 0 and empty.storage_scalars == 0
    for half in (F.sym, F.skew):
        _check_conjugate(half)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.data())
def test_shallower_runs_are_prefixes_of_deeper_runs(n, seed, data):
    # the per-level view of criterion 3 rests on this: the run to core size
    # k1 is the first n - k1 levels of the run to any smaller k2
    m = np.random.default_rng(seed).standard_normal((n, n))
    k1 = data.draw(st.integers(2, n))
    k2 = data.draw(st.integers(1, k1 - 1))
    runs = [
        lambda k: factor_symmetric(SquareMatrix.from_dense(m + m.T), k, seed),
        lambda k: factor_skew(SquareMatrix.from_dense(m - m.T), k, seed),
        lambda k: factor_direct(SquareMatrix.from_dense(m), k, Sparsifier("topn"), seed),
    ]
    for run in runs:
        shallow, deep = run(k1), run(k2)
        assert len(shallow.left) == n - k1
        for side in ("left", "right", "row_retired", "col_retired"):
            assert getattr(shallow, side).tolist() == getattr(deep, side)[: n - k1].tolist()


def _route(A, method, scalars, seed):
    """The stored result of one method, built the way compression_error builds it."""
    if method == "additive":
        return factor_additive(A, scalars, seed)
    if method == "cur":
        return cur_decompose(A, solve_core_size(A, "cur", scalars), seed)
    if method == "hybrid":
        return hybrid_compress(A, solve_core_size(A, "cur", scalars), scalars, seed)
    d = solve_core_size(A, method, scalars)
    return factor_direct(A, d, Sparsifier(method.partition("-")[2]), seed)


def _scalars_held(F):
    """Scalars in the arrays F stores: a ROTATION or ENTRY record holds 3.

    Retired labels are not counted (reconstruction does not read them), and
    a conjugate factorization stores its rotations and core set once.
    """
    if isinstance(F, AdditiveFactorization):
        return _scalars_held(F.sym) + _scalars_held(F.skew)
    if isinstance(F, CurFactors):
        arrays = (F.C, F.U, F.R, F.col_ids, F.row_ids)
    else:
        arrays = (F.left, F.H.row_set, F.H.core, F.H.offcore)
        if not F.conjugate:
            arrays += (F.right, F.H.col_set)
    return sum(a.size * len(a.dtype.names or (a.dtype,)) for a in arrays)


@pytest.mark.parametrize("method", BENCH_METHODS)
@pytest.mark.parametrize("kind", ("general", "symmetric"))
def test_storage_count_is_the_stored_arrays(method, kind):
    m = np.random.default_rng(17).standard_normal((24, 24))
    m *= np.random.default_rng(18).random((24, 24)) < 0.3
    A = SquareMatrix.from_dense(m if kind == "general" else m + m.T)
    for fraction in (0.5, 0.7, 0.9):  # 0.5 is above the additive minimum at n=24
        scalars = StorageBudget(fraction, DENSE).scalars(A)
        F = _route(A, method, scalars, seed=3)
        assert F.storage_scalars == _scalars_held(F) <= scalars
        assert compression_error(A, method, scalars, 3)[1] == F.storage_scalars
