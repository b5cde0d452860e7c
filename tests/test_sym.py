"""Symmetric factorization: greedy conjugation, truncation, budget behavior."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    SquareMatrix,
    factor_symmetric,
    frobenius_relative_error,
    reconstruct,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


def random_symmetric(n, seed, scale=1.0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return dense((a + a.T) * (0.5 * scale))


def rel_err(A, F):
    return frobenius_relative_error(A, reconstruct(F))


# ---------------------------------------------------------------- basics


def test_diagonal_input_exact_any_core():
    A = dense(np.diag([5.0, -3.0, 2.0, 0.5, 1.0]))
    for d in (1, 2, 4):
        for seed in (0, 1, 2):
            assert rel_err(A, factor_symmetric(A, d, seed)) <= 1e-12


def test_full_core_is_lossless_with_full_storage():
    A = random_symmetric(10, seed=6)
    F = factor_symmetric(A, 10, seed=0)
    assert len(F.left) == 0
    assert np.allclose(F.H.to_dense(), A.to_dense(), atol=1e-15)
    assert rel_err(A, F) == 0.0
    assert F.storage_scalars == 100 + 10


def test_untruncated_round_trip():
    A = random_symmetric(12, seed=3)
    F = factor_symmetric(A, 4, seed=1, truncate=False)
    assert rel_err(A, F) <= 1e-10
    assert len(F.left) == 12 - 4


def test_rejects_asymmetric_input():
    a = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(ValueError):
        factor_symmetric(dense(a), 2, seed=0)


def test_rejects_bad_core_size():
    A = random_symmetric(4, seed=0)
    with pytest.raises(ValueError):
        factor_symmetric(A, 0, seed=0)
    with pytest.raises(ValueError):
        factor_symmetric(A, 5, seed=0)


def test_core_block_symmetric_and_core_diagonal_form():
    A = random_symmetric(9, seed=4)
    F = factor_symmetric(A, 3, seed=2)
    h = F.H.to_dense()
    core = sorted(F.core_rows)
    assert np.max(np.abs(h - h.T)) <= 1e-12
    for i in range(9):
        for j in range(9):
            if i != j and not (i in F.core_rows and j in F.core_rows):
                assert h[i, j] == 0.0
    assert len(core) == 3
    assert len(F.row_retired) == 6


def test_reconstruction_symmetric():
    A = random_symmetric(11, seed=9)
    R = reconstruct(factor_symmetric(A, 4, seed=5)).to_dense()
    assert np.max(np.abs(R - R.T)) <= 1e-11


def test_zeroed_core_reconstructs_zero():
    A = random_symmetric(6, seed=2)
    F = factor_symmetric(A, 2, seed=0)
    Z = type(F.H)(F.H.n, F.H.row_set, F.H.col_set, np.zeros_like(F.H.core), ())
    F0 = dataclasses.replace(F, H=Z)
    assert np.max(np.abs(reconstruct(F0).to_dense())) == 0.0


# ---------------------------------------------------------------- oracles


def test_dropped_mass_identity():
    A = random_symmetric(10, seed=7)
    d, seed = 3, 11
    full = factor_symmetric(A, d, seed, truncate=False)
    trunc = factor_symmetric(A, d, seed)
    hbar = full.H.to_dense()
    dropped = hbar - trunc.H.to_dense()
    want = np.linalg.norm(dropped) / np.linalg.norm(A.to_dense())
    got = rel_err(A, trunc)
    assert abs(got - want) <= 1e-10


def test_beats_static_truncation_on_block_eigenstructure():
    # A = Q diag(5,4,0.1,0.05) Q^T with Q = blockdiag(R(a), R(b)): two
    # rotations recover the diagonal, so the greedy result must beat every
    # rotation-free core-diagonal truncation of A itself
    ca, sa = math.cos(0.6), math.sin(0.6)
    cb, sb = math.cos(1.1), math.sin(1.1)
    q = np.zeros((4, 4))
    q[:2, :2] = [[ca, -sa], [sa, ca]]
    q[2:, 2:] = [[cb, -sb], [sb, cb]]
    a = q @ np.diag([5.0, 4.0, 0.1, 0.05]) @ q.T
    A = dense(a)

    best_static = math.inf
    for core in itertools.combinations(range(4), 2):
        kept = np.diag(np.diag(a)).copy()
        kept[np.ix_(core, core)] = a[np.ix_(core, core)]
        best_static = min(best_static, np.linalg.norm(a - kept))
    best_static /= np.linalg.norm(a)

    for seed in range(4):
        assert rel_err(A, factor_symmetric(A, 2, seed)) <= best_static + 1e-12


def test_exhaustive_small_check():
    # n = 4, d = 2: replaying the returned rotations on A and truncating
    # must give exactly the reported core and error
    A = random_symmetric(4, seed=13)
    F = factor_symmetric(A, 2, seed=3)
    work = A.to_dense().copy()
    for g in F.left:
        gm = g.matrix()
        work = gm.T @ work @ gm
    core = sorted(F.core_rows)
    kept = np.diag(np.diag(work)).copy()
    kept[np.ix_(core, core)] = work[np.ix_(core, core)]
    assert np.max(np.abs(kept - F.H.to_dense())) <= 1e-12


# ---------------------------------------------------------------- invariants


def test_monotone_budget():
    A = random_symmetric(14, seed=8)
    errs = [rel_err(A, factor_symmetric(A, d, seed=6)) for d in range(1, 15)]
    for lo, hi in zip(errs[:-1], errs[1:]):
        assert hi <= lo + 1e-12


def test_retired_indices_never_rotated_again():
    A = random_symmetric(12, seed=10)
    F = factor_symmetric(A, 3, seed=4)
    seen = set()
    for g, retired in zip(F.left, F.row_retired):
        assert g.i not in seen and g.j not in seen
        assert retired in (g.i, g.j)
        seen.add(retired)
    assert seen.isdisjoint(F.core_rows)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_diagonal_exact_for_every_seed(seed):
    A = dense(np.diag([4.0, 1.0, -2.0, 3.0, 0.25, -1.5]))
    assert rel_err(A, factor_symmetric(A, 2, seed)) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_untruncated_round_trip_property(seed, d):
    A = random_symmetric(8, seed=seed % 1000)
    F = factor_symmetric(A, d, seed, truncate=False)
    assert rel_err(A, F) <= 1e-10
