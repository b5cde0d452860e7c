"""The level kernel's sparse-support product against the full product.

Above the kernel's row floor, a level whose pivot row is sparse scores its
partners on that row's nonzero columns only. Zero terms add nothing, so
every pair, retirement and permutation must match the full product; only
the summation order of the nonzero terms changes, which moves the rotated
matrix and the angles by round-off.
"""

import numpy as np
import pytest

import mrmf
from mrmf import jacobi
from mrmf.additive import factor_additive, reconstruct_additive
from mrmf.bench import compression_error
from mrmf.cores import Sparsifier
from mrmf.direct import factor_direct, reconstruct
from mrmf.matrices import SquareMatrix, frobenius_relative_error
from mrmf.skew import factor_skew
from mrmf.storage import DENSE, StorageBudget, solve_core_size
from mrmf.symmetric import factor_symmetric
from test_kernels import INPUTS


def _count_supports(monkeypatch):
    """Wrap the kernel's support choice and its row gather.

    The first list holds (strided, support size, cols) for each level that
    gathered, the second the skew flag of the conjugation levels among them
    that read the pivot's support along rows.
    """
    gathered, by_rows = [], []
    choose, gather = jacobi._pivot_support, jacobi._row_gather

    def counting(x, rows, strided):
        nz = choose(x, rows, strided)
        if nz is not None:
            gathered.append((strided, nz.size, x.size))
        return nz

    def counting_rows(x, nz, a, rows, skew):
        by_rows.append(skew)
        return gather(x, nz, a, rows, skew)

    monkeypatch.setattr(jacobi, "_pivot_support", counting)
    monkeypatch.setattr(jacobi, "_row_gather", counting_rows)
    return gathered, by_rows


def _sweep(a, d, parity):
    """(working matrix, rotations per side, perms, retired labels) of one sweep."""
    a = a.copy()
    rng = np.random.default_rng(d)
    if parity is not None:
        rotations, _, perm, _, retired, _ = jacobi.conjugation_sweep(a, d, rng, parity=parity)
        return a, [rotations], [perm], [retired]
    left, right, row_perm, col_perm, row_ret, col_ret = jacobi.two_basis_sweep(a, d, rng)
    return a, [left, right], [row_perm, col_perm], [row_ret, col_ret]


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("half", ("general", "symmetric", "skew"))
def test_forced_support_product_matches_full_product(name, half, monkeypatch):
    a = INPUTS[name]()
    a = {"general": a, "symmetric": (a + a.T) * 0.5, "skew": (a - a.T) * 0.5}[half]
    n, parity = a.shape[0], {"general": None, "symmetric": False, "skew": True}[half]
    for d in (1, n // 10, n - 1):
        with monkeypatch.context() as patch:
            gathered, by_rows = _count_supports(patch)
            want = _sweep(a, d, parity)
            assert gathered == [] and by_rows == []  # n < floor: the full product
            # ratios low enough that these n <= 300 inputs gather in every
            # direction; at 1, a level of spread64's skew half gathers on a
            # Gram block that is a multiple of the identity up to round-off,
            # where the angle may jump between 0 and pi/4 (both diagonalize it)
            patch.setattr(jacobi, "_SUPPORT_FLOOR", 0)
            patch.setattr(jacobi, "_SUPPORT_RATIO", 8)
            patch.setattr(jacobi, "_ROW_SUPPORT_RATIO", 8)
            got = _sweep(a, d, parity)
        if d == 1:
            assert gathered  # the sparse inputs gather on their early levels
        # conjugation gathers along rows, with its half's sign; the
        # two-basis sweep never does
        assert by_rows == [parity] * (len(gathered) if parity is not None else 0)
        for g, w in zip(got[1], want[1]):
            assert np.array_equal(g[["i", "j"]], w[["i", "j"]])
            assert np.allclose(g["theta"], w["theta"], rtol=0, atol=1e-10)
        for g, w in zip(got[2] + got[3], want[2] + want[3]):
            assert np.array_equal(g, w)
        assert np.linalg.norm(got[0] - want[0]) <= 1e-12 * np.linalg.norm(want[0])


def _parsed(n, seed, per_row=6):
    """A parsed Matrix Market input (COO storage) with per_row entries a row."""
    rng = np.random.default_rng(seed)
    codes = np.unique(rng.integers(0, n * n, size=per_row * n))
    vals = rng.standard_normal(codes.size) * (1 + 9 * (rng.random(codes.size) < 0.15))
    A = SquareMatrix.from_coo(n, codes // n, codes % n, vals)
    parsed, _ = mrmf.parse_matrix_market(mrmf.write_matrix_market(A))
    assert parsed.is_sparse
    return parsed


@pytest.fixture(scope="module")
def above_floor():
    A = _parsed(700, 21)
    assert A.n > jacobi._SUPPORT_FLOOR
    return A, StorageBudget(0.02, DENSE).scalars(A)


def _factored(A, scalars, method):
    """(error, pairs per side, retired labels per side) of one route on A."""
    if method == "additive":
        G = factor_additive(A, scalars, seed=5)
        approx, sides = reconstruct_additive(G), (G.sym.left, G.skew.left)
        retired = (G.sym.row_retired, G.skew.row_retired)
    else:
        d = solve_core_size(A, method, scalars)
        F = factor_direct(A, d, Sparsifier("greedytopn"), seed=5)
        approx, sides, retired = reconstruct(F), (F.left, F.right), (F.row_retired, F.col_retired)
    return (frobenius_relative_error(A, approx), [s[["i", "j"]].tolist() for s in sides],
            [r.tolist() for r in retired])


def _direct_and_additive(A, scalars):
    return tuple(zip(*(_factored(A, scalars, m) for m in ("direct-greedytopn", "additive"))))


def test_support_product_runs_above_the_floor(above_floor, monkeypatch):
    A, scalars = above_floor
    gathered, by_rows = _count_supports(monkeypatch)
    got_errors, got_pairs, got_retired = _direct_and_additive(A, scalars)
    # a refactor that stops the sparse-support product from running fails
    # here: both sweeps gather on their early levels of this input, and the
    # additive halves' conjugation sweeps gather along rows
    assert len(gathered) > A.n - jacobi._SUPPORT_FLOOR
    assert by_rows.count(False) > 0 and by_rows.count(True) > 0
    gathered.clear()
    by_rows.clear()
    monkeypatch.setattr(jacobi, "_SUPPORT_FLOOR", A.n)
    want_errors, want_pairs, want_retired = _direct_and_additive(A, scalars)
    assert gathered == [] and by_rows == []
    assert got_pairs == want_pairs
    assert got_retired == want_retired
    for got, want in zip(got_errors, want_errors):
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("method", ("direct-greedytopn", "additive"))
def test_each_direction_gathers_at_its_own_ratio(above_floor, method, monkeypatch):
    A, scalars = above_floor
    gathered, by_rows = _count_supports(monkeypatch)
    got = _factored(A, scalars, method)
    strided = [(nz, cols) for s, nz, cols in gathered if s]
    rows = [(nz, cols) for s, nz, cols in gathered if not s]
    # the two-basis row phase gathers strided columns only below cols / 48;
    # conjugation and the direct column phase read contiguous rows, and
    # some of their levels gather pivots the strided ratio would not
    assert all(jacobi._SUPPORT_RATIO * nz < cols for nz, cols in strided)
    assert all(jacobi._ROW_SUPPORT_RATIO * nz < cols for nz, cols in rows)
    assert any(cols <= jacobi._SUPPORT_RATIO * nz for nz, cols in rows)
    if method == "additive":
        assert strided == [] and len(by_rows) == len(rows)
    else:
        assert strided and by_rows == []
    monkeypatch.setattr(jacobi, "_SUPPORT_FLOOR", A.n)
    want = _factored(A, scalars, method)
    assert got[1:] == want[1:]
    assert abs(got[0] - want[0]) <= 1e-12 * want[0]


@pytest.mark.parametrize("method, densified", (("additive", 3), ("direct-greedytopn", 2)))
def test_coo_input_is_densified_once_per_sweep(method, densified, monkeypatch):
    # one dense working copy per sweep (two halves for additive), plus the
    # error against A; the parity check reads a COO input's triplets
    A = _parsed(600, 22)
    calls = []
    to_dense = SquareMatrix.to_dense

    def counting(self):
        if self.is_sparse:
            calls.append(self.n)
        return to_dense(self)

    monkeypatch.setattr(SquareMatrix, "to_dense", counting)
    compression_error(A, method, StorageBudget(0.02, DENSE).scalars(A), 3)
    assert len(calls) == densified


@pytest.mark.parametrize("factor, wrong", ((factor_symmetric, "skew"), (factor_skew, "symmetric")))
def test_wrong_parity_raises_before_any_level(factor, wrong, monkeypatch):
    a = INPUTS["spread64"]()
    a = (a - a.T) * 0.5 if wrong == "skew" else (a + a.T) * 0.5

    def no_level(*args, **kwargs):
        raise AssertionError("a level ran on a wrong-parity input")

    monkeypatch.setattr(jacobi, "_level", no_level)
    kind = "symmetric" if factor is factor_symmetric else "skew-symmetric"
    r, c = np.nonzero(a)
    for A in (SquareMatrix.from_dense(a), SquareMatrix.from_coo(a.shape[0], r, c, a[r, c])):
        with pytest.raises(ValueError, match=f"matrix is not {kind}"):
            factor(A, 4, seed=0)
