"""Additive split factorization: budget sharing and Pythagorean errors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrmf
from mrmf import (
    BudgetError,
    SquareMatrix,
    StorageBudget,
    factor_additive,
    frobenius_relative_error,
    reconstruct,
    reconstruct_additive,
    split_symmetric_skew,
)


def dense(a):
    return SquareMatrix.from_dense(np.asarray(a, dtype=float))


def random_general(n, seed):
    return dense(np.random.default_rng(seed).standard_normal((n, n)))


# ---------------------------------------------------------------- degenerate halves


def test_symmetric_input_gets_entire_budget():
    a = np.random.default_rng(1).standard_normal((8, 8))
    A = dense(a + a.T)
    F = factor_additive(A, 80, seed=0)
    assert F.skew.storage_scalars == 0
    assert len(F.skew.left) == 0
    # the reported error is exactly the symmetric half's error
    err_add = frobenius_relative_error(A, reconstruct_additive(F))
    err_sym = frobenius_relative_error(A, reconstruct(F.sym))
    assert err_add == err_sym


def test_skew_input_mirror_case():
    a = np.random.default_rng(2).standard_normal((8, 8))
    A = dense(a - a.T)
    F = factor_additive(A, 80, seed=0)
    assert F.sym.storage_scalars == 0
    assert F.n == F.sym.n == F.skew.n == 8  # the empty half keeps the dimension
    err_add = frobenius_relative_error(A, reconstruct_additive(F))
    err_skew = frobenius_relative_error(A, reconstruct(F.skew))
    assert err_add == err_skew


def test_zero_matrix_is_free():
    F = factor_additive(dense(np.zeros((5, 5))), 10, seed=0)
    assert F.storage_scalars == 0 and F.n == 5
    assert np.max(np.abs(reconstruct_additive(F).to_dense())) == 0.0


_M12 = np.random.default_rng(21).standard_normal((12, 12))
_HALF_INPUTS = {
    "zero": np.zeros_like(_M12), "symmetric": _M12 + _M12.T, "skew": _M12 - _M12.T, "mixed": _M12,
}


@pytest.mark.parametrize(
    "name,budget,storage,cores",
    [
        ("zero", 140, (0, 0), (0, 0)),
        ("zero", 180, (0, 0), (0, 0)),
        ("symmetric", 140, (138, 0), (11, 0)),
        ("symmetric", 180, (156, 0), (12, 0)),
        ("skew", 140, (0, 135), (0, 11)),
        ("skew", 180, (0, 156), (0, 12)),
        ("mixed", 140, (72, 63), (5, 3)),
        ("mixed", 180, (96, 69), (8, 5)),
    ],
)
def test_half_storage_and_core_sizes_pinned(name, budget, storage, cores):
    # one budget split serves every input: a zero-mass half has minimum
    # and share 0 and stores nothing, the other half gets the whole budget
    F = factor_additive(dense(_HALF_INPUTS[name]), budget, seed=3)
    assert (F.sym.storage_scalars, F.skew.storage_scalars) == storage
    assert (len(F.sym.core_rows), len(F.skew.core_rows)) == cores


@pytest.mark.parametrize("name,minimum", [("symmetric", 66), ("skew", 63)])
def test_one_half_budget_too_small_raises(name, minimum):
    with pytest.raises(BudgetError, match=f"nonzero halves \\(minimum {minimum} at n=12\\)"):
        factor_additive(dense(_HALF_INPUTS[name]), 20, seed=0)


# ---------------------------------------------------------------- budget accounting


def test_budget_respected_and_split_by_mass():
    A = random_general(12, seed=5)
    total = 200
    F = factor_additive(A, total, seed=3)
    assert F.storage_scalars <= total
    assert F.sym.storage_scalars > 0 and F.skew.storage_scalars > 0


def test_budget_too_small_raises():
    A = random_general(12, seed=5)
    with pytest.raises(BudgetError):
        factor_additive(A, 20, seed=0)


def test_storage_budget_converted_at_call_site():
    A = random_general(12, seed=7)
    F = factor_additive(A, StorageBudget(0.95, accounting="dense").scalars(A), seed=1)
    assert F.storage_scalars <= int(np.ceil(0.95 * 144))


def test_deterministic_under_seed():
    A = random_general(10, seed=9)
    e1 = frobenius_relative_error(A, reconstruct_additive(factor_additive(A, 150, seed=4)))
    e2 = frobenius_relative_error(A, reconstruct_additive(factor_additive(A, 150, seed=4)))
    assert e1 == e2


# ---------------------------------------------------------------- error structure


def test_triangle_inequality_on_halves():
    A = random_general(8, seed=11)
    S, K = split_symmetric_skew(A)
    F = factor_additive(A, 100, seed=2)  # lossy for both halves at n = 8
    a = A.to_dense()
    err_total = np.linalg.norm(a - reconstruct_additive(F).to_dense())
    err_s = np.linalg.norm(S.to_dense() - reconstruct(F.sym).to_dense())
    err_k = np.linalg.norm(K.to_dense() - reconstruct(F.skew).to_dense())
    assert err_total <= err_s + err_k + 1e-12


def test_pythagorean_error_split():
    A = random_general(10, seed=13)
    S, K = split_symmetric_skew(A)
    F = factor_additive(A, 140, seed=6)
    a = A.to_dense()
    total_sq = np.linalg.norm(a - reconstruct_additive(F).to_dense()) ** 2
    s_sq = np.linalg.norm(S.to_dense() - reconstruct(F.sym).to_dense()) ** 2
    k_sq = np.linalg.norm(K.to_dense() - reconstruct(F.skew).to_dense()) ** 2
    assert abs(total_sq - (s_sq + k_sq)) <= 1e-9 * max(total_sq, 1e-30)


def test_reconstruction_parts_match_halves():
    A = random_general(9, seed=15)
    F = factor_additive(A, 120, seed=8)
    R = reconstruct_additive(F).to_dense()
    scale = max(np.max(np.abs(R)), 1.0)
    skew_part = (R - R.T) * 0.5
    sym_part = (R + R.T) * 0.5
    assert np.max(np.abs(skew_part - reconstruct(F.skew).to_dense())) <= 1e-11 * scale
    assert np.max(np.abs(sym_part - reconstruct(F.sym).to_dense())) <= 1e-11 * scale


def test_untruncated_budget_reconstructs_exactly():
    A = random_general(8, seed=17)
    F = factor_additive(A, 10 * 64, seed=5)  # room for both full cores
    assert frobenius_relative_error(A, reconstruct_additive(F)) <= 1e-10


def test_storage_is_sum_of_halves():
    A = random_general(10, seed=19)
    F = factor_additive(A, 160, seed=7)
    assert F.storage_scalars == F.sym.storage_scalars + F.skew.storage_scalars


HALF_MASSES = """
import numpy as np
from mrmf import SquareMatrix
from mrmf.additive import half_masses
rng = np.random.default_rng(1)
n = 2000
a = np.zeros((n, n))
rows, cols = rng.integers(0, n, size=(2, 6 * n))
a[rows, cols] = rng.standard_normal(6 * n)
rows, cols = np.nonzero(a)
print([m.hex() for m in half_masses(SquareMatrix.from_coo(n, rows, cols, a[rows, cols]))])
"""


def test_half_masses_do_not_depend_on_blas_threads():
    # each half holds about 24,000 stored values, past the length at which
    # a BLAS dot splits its sum across threads; the masses set the budget split
    src = str(Path(mrmf.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", HALF_MASSES], env=env,
                             capture_output=True, text=True, check=True)
        printed.append(run.stdout)
    assert printed[0] == printed[1]
