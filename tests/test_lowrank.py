"""CUR decomposition and the two-stage CUR-then-rotation pipeline."""

import numpy as np
import pytest

from mrmf import (
    CurFactors,
    SquareMatrix,
    cur_decompose,
    cur_relative_error,
    frobenius_relative_error,
    gen_low_rank,
    hybrid_compress,
    reconstruct,
    reconstruct_cur,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


def random_general(n, seed):
    return dense(np.random.default_rng(seed).standard_normal((n, n)))


def exact_rank(n, r, seed):
    """Rank-r test matrix, resampled if a draw is numerically degenerate."""
    for attempt in range(10):
        A = gen_low_rank(n, r, seed=seed + 1000 * attempt)
        s = np.linalg.svd(A.to_dense(), compute_uv=False)
        if s[r - 1] > 1e-8 * s[0]:
            return A
    raise AssertionError("could not draw a well-conditioned low-rank matrix")


# ---------------------------------------------------------------- exactness


def test_exact_on_rank_r():
    for r in (3, 8):
        for seed in range(5):
            A = exact_rank(30, r, seed=seed)
            best = min(
                cur_relative_error(A, cur_decompose(A, r, seed=s)) for s in range(4)
            )
            assert best <= 1e-8, (r, seed)


def test_full_rank_selection_exact():
    A = random_general(12, seed=3)
    f = cur_decompose(A, 12, seed=0)
    assert cur_relative_error(A, f) <= 1e-9


def test_factors_are_verbatim_slices():
    A = random_general(9, seed=5)
    f = cur_decompose(A, 3, seed=1)
    a = A.to_dense()
    assert np.array_equal(f.C, a[:, f.col_ids])
    assert np.array_equal(f.R, a[f.row_ids, :])
    assert list(f.col_ids) == sorted(f.col_ids)
    assert list(f.row_ids) == sorted(f.row_ids)


def test_factors_refuse_bad_ids():
    # the kept ids are sorted distinct indices in range(n), one per rank
    C, U, R = np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 4))
    f = CurFactors(C, U, R, [0, 3], (1, 2))
    assert f.col_ids.dtype == np.int64 and f.row_ids.tolist() == [1, 2]
    for bad in ([1, 1], [0, 4], [-1, 2], [2, 0], [0]):
        with pytest.raises(ValueError):
            CurFactors(C, U, R, bad, [1, 2])
        with pytest.raises(ValueError):
            CurFactors(C, U, R, [1, 2], bad)


def test_rejects_bad_rank_and_zero_matrix():
    A = random_general(6, seed=0)
    with pytest.raises(ValueError):
        cur_decompose(A, 0, seed=0)
    with pytest.raises(ValueError):
        cur_decompose(A, 7, seed=0)
    with pytest.raises(ValueError):
        cur_decompose(dense(np.zeros((4, 4))), 2, seed=0)


def test_diagonal_dominant_rank_one():
    d = np.array([100.0, 0.3, 0.2, 0.1])
    A = dense(np.diag(d))
    f = cur_decompose(A, 1, seed=7)
    assert list(f.col_ids) == [0] and list(f.row_ids) == [0]
    want = np.linalg.norm(d[1:]) / np.linalg.norm(d)
    assert abs(cur_relative_error(A, f) - want) <= 1e-12


def test_rank_above_the_nonzero_columns_draws_the_rest_without_repeats():
    # two nonzero columns: each is drawn, and the deficit comes from the zero columns
    a = np.zeros((8, 8))
    a[:, [2, 5]] = np.random.default_rng(6).standard_normal((8, 2))
    A = dense(a)
    for r in (4, 6, 8):
        for seed in range(4):
            f = cur_decompose(A, r, seed=seed)
            ids = f.col_ids.tolist()
            assert len(ids) == r and ids == sorted(set(ids)), (r, seed)
            assert {2, 5} <= set(ids)
            assert cur_relative_error(A, f) <= 1e-12


# ---------------------------------------------------------------- storage


def test_storage_golden():
    A = random_general(10, seed=9)
    f = cur_decompose(A, 2, seed=0)
    assert f.storage_scalars == 2 * 10 * 2 + 4 + 4  # 48


def test_storage_monotone_in_rank():
    A = random_general(10, seed=11)
    sizes = [cur_decompose(A, r, seed=0).storage_scalars for r in (1, 2, 4, 8)]
    assert sizes == sorted(sizes)
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------- error paths


def test_error_statistically_monotone_in_rank():
    A = random_general(40, seed=13)
    ranks = (2, 5, 10, 20, 32)
    medians = []
    for r in ranks:
        errs = [cur_relative_error(A, cur_decompose(A, r, seed=s)) for s in range(10)]
        medians.append(float(np.median(errs)))
    for lo, hi in zip(medians[:-1], medians[1:]):
        assert hi <= lo * 1.05


def test_u_recomputation_stability():
    A = random_general(25, seed=15)
    f = cur_decompose(A, 6, seed=2)
    a = A.to_dense()
    direct = f.C @ (np.linalg.pinv(f.C) @ a @ np.linalg.pinv(f.R)) @ f.R
    kept = reconstruct_cur(f).to_dense()
    assert np.linalg.norm(kept - direct) <= 1e-9 * np.linalg.norm(a)


def test_error_never_negative():
    A = exact_rank(20, 4, seed=19)
    f = cur_decompose(A, 4, seed=0)
    assert cur_relative_error(A, f) >= 0.0


# ---------------------------------------------------------------- hybrid


def test_hybrid_full_rank_full_budget_lossless():
    A = random_general(10, seed=21)
    F = hybrid_compress(A, 10, 10 * 10 * 10, seed=0)
    assert frobenius_relative_error(A, reconstruct(F)) <= 1e-9


def test_hybrid_full_budget_matches_cur_error():
    A = random_general(12, seed=23)
    for r in (3, 6):
        F = hybrid_compress(A, r, 12 * 12 * 10, seed=4)
        f = cur_decompose(A, r, seed=_first_spawn(4))
        err = frobenius_relative_error(A, reconstruct(F))
        assert abs(err - cur_relative_error(A, f)) <= 1e-10


def _first_spawn(seed):
    return np.random.SeedSequence(seed).spawn(2)[0]


def test_hybrid_error_nonnegative_and_k_respected():
    A = random_general(16, seed=25)
    F = hybrid_compress(A, 5, 140, seed=1)
    assert frobenius_relative_error(A, reconstruct(F)) >= 0.0
    assert F.storage_scalars <= 140
