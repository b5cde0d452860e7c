"""A run reconstructs and measures in n x n buffers it owns.

With a COO input a direct, symmetric, skew or additive run keeps at most
two n x n arrays alive at once: at a sweep stop the working copy and its
unpermuted snapshot, at the error the densified input and the
reconstruction; a reconstruction alone holds its one buffer and a wave
batch. A hybrid run sweeps its fresh M = CUR in place, not a copy of it.
These tests pin those bounds and the contracts the owned
buffers rest on: a reconstruction never writes to an array its caller
passed, the in-place transpose only moves data, and the parity check of a
COO input, which runs on its triplets, decides as the dense check does.
test_matcore.py checks that the error, which forms A - B in a COO A's
fresh dense array, gives the bits of the dense path.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import jacobi
from mrmf.bench import compression_error
from mrmf.cores import Sparsifier
from mrmf.direct import factor_direct, reconstruct
from mrmf.jacobi import conjugate_reconstruct, two_basis_reconstruct
from mrmf.matrices import SquareMatrix, check_parity
from mrmf.skew import factor_skew
from mrmf.storage import DENSE, StorageBudget
from mrmf.symmetric import factor_symmetric
from test_kernels import _spread


def _coo(a):
    r, c = np.nonzero(a)
    return SquareMatrix.from_coo(a.shape[0], r, c, a[r, c])


def _factorizations():
    a = _spread(90, 21)
    A = SquareMatrix.from_dense(a)
    return (
        factor_direct(A, 12, Sparsifier("topn"), seed=1),
        factor_symmetric(SquareMatrix.from_dense((a + a.T) * 0.5), 12, seed=2),
        factor_skew(SquareMatrix.from_dense((a - a.T) * 0.5), 12, seed=3),
    )


# ---------------------------------------------------------------- memory


MEMORY_N = 700  # above jacobi._SUPPORT_FLOOR, so the large levels gather


@pytest.mark.parametrize(
    "method", ["direct-topn", "direct-greedytopn", "direct-corediag", "additive", "hybrid"])
def test_compression_error_holds_at_most_two_and_a_half_arrays(method):
    n = MEMORY_N
    A = _coo(_spread(n, 31))
    scalars = StorageBudget(0.05, DENSE).scalars(A)
    tracemalloc.start()
    try:
        err, storage, _ = compression_error(A, method, scalars, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < err < 1.0 and storage <= scalars
    assert peak <= 2.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


@pytest.mark.parametrize("n", [512, MEMORY_N])
def test_reconstruct_holds_one_and_a_half_arrays(n):
    # the buffer is built from the stored core, with no dense copy of H,
    # and a wave batch adds at most 4 * jacobi._WAVE_PAIRS rows to it
    F = factor_direct(_coo(_spread(n, 31)), n // 10, Sparsifier("topn"), seed=4)
    tracemalloc.start()
    try:
        reconstruct(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


def test_coo_parity_check_never_densifies():
    n = 2000
    a = _spread(n, 32)
    S = _coo((a + a.T) * 0.5)
    tracemalloc.start()
    try:
        check_parity(S, skew=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 16


# ---------------------------------------------------------------- reconstruction


@pytest.mark.parametrize("order", ["C", "F"])
def test_reconstruct_leaves_the_callers_array_and_equals_the_owned_path(order):
    for F in _factorizations():
        h = np.array(F.H.to_dense(), order=order)
        h.flags.writeable = False  # a write would raise
        before = h.tobytes()
        if F.conjugate:
            got = conjugate_reconstruct(h, F.left)
            owned = conjugate_reconstruct(F.H, F.left)
        else:
            got = two_basis_reconstruct(h, F.left, F.right)
            owned = two_basis_reconstruct(F.H, F.left, F.right)
        assert h.tobytes() == before
        assert got.tobytes() == owned.tobytes()
        R = reconstruct(F).to_dense()  # wrapped without a copy, read-only
        assert R.tobytes() == got.tobytes() and not R.flags.writeable
        # the transposed view of one C-ordered buffer, as before the change
        assert got.flags.f_contiguous and owned.flags.f_contiguous


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([1, jacobi._TILE - 1, jacobi._TILE, jacobi._TILE + 1, 700]),
       seed=st.integers(0, 2**32 - 1))
def test_transpose_in_place_equals_transpose(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    k = min(n * n, 8)
    specials = np.array([np.nan, -0.0, np.inf, -np.inf, 5e-324])
    m.ravel()[rng.integers(0, n * n, size=k)] = rng.choice(specials, size=k)
    want = np.ascontiguousarray(m.T)
    jacobi._transpose_in_place(m)
    assert m.flags.c_contiguous
    assert m.tobytes() == want.tobytes()


# ---------------------------------------------------------------- parity


def _decision(A, skew):
    try:
        check_parity(A, skew)
    except ValueError as exc:
        return str(exc)
    return None


def _same_decision(a, skew):
    got = _decision(_coo(a), skew)
    assert got == _decision(SquareMatrix.from_dense(a), skew)
    return got


@pytest.mark.parametrize("skew", [False, True])
def test_parity_check_decides_alike_at_the_threshold(skew):
    a = _spread(40, 35)
    a = (a - a.T) * 0.5 if skew else (a + a.T) * 0.5
    assert _same_decision(a, skew) is None
    scale = np.max(np.abs(a))
    # an entry whose mirror is zero deviates by its own magnitude
    i, j = next((i, j) for i, j in zip(*np.nonzero(a == 0.0)) if i != j and a[j, i] == 0.0)
    at = 1e-12 * scale
    for v, raises in ((at, False), (np.nextafter(at, np.inf), True), (-at, False)):
        b = a.copy()
        b[i, j] = v
        assert (_same_decision(b, skew) is not None) == raises
    # a skew diagonal entry deviates by twice its magnitude
    if skew:
        k = int(np.flatnonzero(np.diagonal(a) == 0.0)[0])
        for v, raises in ((at / 2, False), (np.nextafter(at / 2, np.inf), True)):
            b = a.copy()
            b[k, k] = v
            assert (_same_decision(b, skew) is not None) == raises


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), skew=st.booleans(),
       factor=st.sampled_from([0.25, 0.999, 1.0, 1.001, 4.0, 1e6]))
def test_parity_check_decides_alike_on_perturbed_inputs(seed, skew, factor):
    rng = np.random.default_rng(seed)
    a = _spread(24, seed % 1000, per_row=3)
    a = (a - a.T) * 0.5 if skew else (a + a.T) * 0.5
    if not a.any():
        a[0, 1] = 1.0
        a[1, 0] = -1.0 if skew else 1.0
    i, j = np.argwhere(a != 0.0)[rng.integers(np.count_nonzero(a))]
    a[i, j] += factor * 1e-12 * np.max(np.abs(a))
    _same_decision(a, skew)

