"""Skew factorization: pairing core, skewness preservation, dropped mass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import (
    IndexSet,
    SquareMatrix,
    factor_skew,
    frobenius_relative_error,
    murnaghan_sparsify,
    reconstruct,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


def random_skew(n, seed, scale=1.0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return dense((a - a.T) * (0.5 * scale))


def pair_block(lam):
    return np.array([[0.0, lam], [-lam, 0.0]])


def rel_err(K, F):
    return frobenius_relative_error(K, reconstruct(F))


# ---------------------------------------------------------------- basics


def test_single_pair_exact():
    K = dense(pair_block(3.5))
    F = factor_skew(K, 0, seed=0)
    assert rel_err(K, F) <= 1e-12
    assert len(F.core_rows) == 0


def test_two_pair_block_diagonal_exact():
    k = np.zeros((4, 4))
    k[:2, :2] = pair_block(2.0)
    k[2:, 2:] = pair_block(-1.25)
    K = dense(k)
    for seed in range(3):
        assert rel_err(K, factor_skew(K, 0, seed)) <= 1e-10


def test_untruncated_round_trip():
    K = random_skew(10, seed=4)
    F = factor_skew(K, 3, seed=2, truncate=False)
    assert rel_err(K, F) <= 1e-10


def test_rejects_non_skew():
    with pytest.raises(ValueError):
        factor_skew(dense(np.eye(3)), 1, seed=0)


def test_rejects_negative_core():
    with pytest.raises(ValueError):
        factor_skew(random_skew(4, 0), -1, seed=0)


def test_reconstruction_is_skew():
    K = random_skew(9, seed=7)
    M = reconstruct(factor_skew(K, 3, seed=1)).to_dense()
    assert np.max(np.abs(M + M.T)) <= 1e-11 * max(np.max(np.abs(M)), 1.0)


# ---------------------------------------------------------------- murnaghan pairing


def test_pairing_golden_greedy_matching():
    # non-core {1,2,3,4}: |h12| = 5 beats |h13| = 4.5, which is then blocked,
    # so (3,4) with |h34| = 4 completes the matching
    h = np.zeros((5, 5))
    h[0, 1] = 0.7  # core-row entry, not pairable, dropped
    h[1, 2], h[1, 3], h[3, 4] = 5.0, 4.5, 4.0
    h -= h.T
    out = murnaghan_sparsify(h, IndexSet((0,), 5))
    entries = set(out.offcore)
    assert (1, 2, 5.0) in entries and (2, 1, -5.0) in entries
    assert (3, 4, 4.0) in entries and (4, 3, -4.0) in entries
    assert len(entries) == 4
    off_mass = sum(v * v for _, _, v in entries)
    assert off_mass == 2 * (25.0 + 16.0)


def test_pairing_disjoint_and_mirrored():
    K = random_skew(11, seed=3)
    F = factor_skew(K, 3, seed=5)
    entries = {(r, c): v for r, c, v in F.H.offcore}
    used = []
    for (r, c), v in entries.items():
        assert entries[(c, r)] == -v
        used.extend([r, c])
    # each index appears in exactly one pair (twice in the flat list: once
    # as row of its entry, once as column of the mirror)
    counts = {i: used.count(i) for i in set(used)}
    assert all(c == 2 for c in counts.values())
    assert all(i not in F.core_rows for i in counts)


def test_pairing_odd_leftover_dropped():
    h = np.zeros((3, 3))
    h[0, 1], h[0, 2], h[1, 2] = 2.0, 1.0, 0.5
    h -= h.T
    out = murnaghan_sparsify(h, IndexSet((), 3))
    entries = set(out.offcore)
    assert entries == {(0, 1, 2.0), (1, 0, -2.0)}  # index 2 left out entirely


def test_pairing_lossless_when_already_in_form():
    h = np.zeros((4, 4))
    h[0, 1] = 3.0
    h[2, 3] = -1.5
    h -= h.T
    out = murnaghan_sparsify(h, IndexSet((), 4))
    assert np.array_equal(out.to_dense(), h)


# ---------------------------------------------------------------- identities


def test_dropped_mass_identity():
    K = random_skew(6, seed=9)
    full = factor_skew(K, 2, seed=8, truncate=False)
    trunc = factor_skew(K, 2, seed=8)
    dropped = full.H.to_dense() - trunc.H.to_dense()
    want = np.linalg.norm(dropped) / np.linalg.norm(K.to_dense())
    assert abs(rel_err(K, trunc) - want) <= 1e-10


def test_skewness_preserved_at_every_level():
    K = random_skew(12, seed=6)
    worst = []

    def check(work):
        worst.append(np.max(np.abs(work + work.T)))

    factor_skew(K, 2, seed=3, level_callback=check)
    scale = np.max(np.abs(K.to_dense()))
    assert len(worst) == 10
    assert max(worst) <= 1e-11 * scale


def test_rayleigh_quotient_vanishes_on_skew():
    K = random_skew(15, seed=12).to_dense()
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(15)
        scale = np.linalg.norm(K) * (v @ v)
        assert abs(v @ (K @ v)) <= 1e-12 * scale


# ---------------------------------------------------------------- properties


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7))
def test_untruncated_round_trip_property(seed, d):
    K = random_skew(7, seed=seed % 997)
    F = factor_skew(K, d, seed, truncate=False)
    assert rel_err(K, F) <= 1e-10


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1))
def test_truncated_output_exactly_skew_offcore(seed):
    K = random_skew(8, seed=seed % 991)
    F = factor_skew(K, 2, seed)
    h = F.H.to_dense()
    core = sorted(F.core_rows)
    mask = np.ones((8, 8), dtype=bool)
    mask[np.ix_(core, core)] = False
    assert np.array_equal(h[mask & mask.T], -h.T[mask & mask.T])
