"""The shared sweep kernel, wave reconstruction and lazy sparsifiers against references.

reference_kernels.py holds the loop-per-level sweeps and reconstructions
the package used before; the sparsifier references below rank every
candidate with one full lexsort. The package's versions must agree exactly,
except that conjugation reconstruction may round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from mrmf import direct, jacobi
from mrmf.additive import factor_additive, reconstruct_additive
from mrmf.cores import Sparsifier, murnaghan_sparsify, sparsify
from mrmf.direct import factor_direct, reconstruct
from mrmf.matrices import IndexSet, SquareMatrix
from mrmf.skew import factor_skew
from mrmf.symmetric import factor_symmetric

SPARSIFIERS = ("corediag", "topn", "greedytopn")


def _spread(n, seed, per_row=6):
    """Sparse nonsymmetric matrix with heavy-tailed magnitudes."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    idx = rng.integers(0, n, size=(2, per_row * n))
    vals = rng.standard_normal(per_row * n)
    vals *= 1 + 9 * (rng.random(per_row * n) < 0.15)
    a[idx[0], idx[1]] = vals
    return a


def _tied(n, seed):
    """Sparse 0/+-1 matrix: many rows share their similarity scores exactly."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, n)) < 0.08) * rng.choice([-1.0, 1.0], size=(n, n))


INPUTS = {
    "spread64": lambda: _spread(64, 11),
    "spread300": lambda: _spread(300, 12),
    "tied64": lambda: _tied(64, 13),
}


def _halves(name):
    a = INPUTS[name]()
    return a, (a + a.T) * 0.5, (a - a.T) * 0.5


def _use_reference(monkeypatch):
    """Route the factorizers through the reference sweeps and reconstruction."""
    for name in ("two_basis_sweep", "conjugation_sweep", "two_basis_reconstruct"):
        monkeypatch.setattr(direct, name, getattr(ref, name))


def _same_core(F, R):
    assert F.H.core.tobytes() == R.H.core.tobytes()
    assert F.H.offcore == R.H.offcore


def _close(x, y):
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def _rotation_bytes(rotations):
    return np.array([(g.i, g.j, g.theta) for g in rotations]).tobytes()


# ---------------------------------------------------------------- sweeps


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_two_basis_sweep_matches_reference(name):
    a = INPUTS[name]()
    n = a.shape[0]
    for d in (1, n // 10, n - 1, n):
        new, old = a.copy(), a.copy()
        got = jacobi.two_basis_sweep(new, d, np.random.default_rng(d))
        want = ref.two_basis_sweep(old, d, np.random.default_rng(d))
        assert _rotation_bytes(got[0]) == _rotation_bytes(want[0])
        assert _rotation_bytes(got[1]) == _rotation_bytes(want[1])
        for g, w in zip(got[2:], want[2:]):
            assert np.array_equal(g, w)
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("half", (1, 2))
def test_conjugation_sweep_matches_reference(name, half):
    a = _halves(name)[half]
    n = a.shape[0]
    for d in (0, 1, n // 10, n):
        new, old = a.copy(), a.copy()
        seen_new, seen_old = [], []
        got = jacobi.conjugation_sweep(
            new, d, np.random.default_rng(d), lambda m: seen_new.append(m.sum()))
        want = ref.conjugation_sweep(
            old, d, np.random.default_rng(d), lambda m: seen_old.append(m.sum()))
        assert _rotation_bytes(got[0]) == _rotation_bytes(want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert new.tobytes() == old.tobytes()
        assert seen_new == seen_old


# ---------------------------------------------------------------- factorizations


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("kind", SPARSIFIERS)
def test_factor_direct_matches_reference(name, kind, monkeypatch):
    A = SquareMatrix.from_dense(INPUTS[name]())
    d = max(A.n // 8, 1)
    F = factor_direct(A, d, Sparsifier(kind), seed=3)
    got = reconstruct(F).to_dense()
    _use_reference(monkeypatch)
    R = factor_direct(A, d, Sparsifier(kind), seed=3)
    want = reconstruct(R).to_dense()
    assert F.left == R.left and F.right == R.right
    assert F.row_retired == R.row_retired and F.col_retired == R.col_retired
    assert F.core_rows == R.core_rows and F.core_cols == R.core_cols
    _same_core(F, R)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_factor_symmetric_and_skew_match_reference(name, monkeypatch):
    _, s, k = _halves(name)
    S, K = SquareMatrix.from_dense(s), SquareMatrix.from_dense(k)
    d = max(S.n // 8, 1)
    Fs, Fk = factor_symmetric(S, d, seed=4), factor_skew(K, d, seed=5)
    got_s, got_k = reconstruct(Fs).to_dense(), reconstruct(Fk).to_dense()
    _use_reference(monkeypatch)
    Rs, Rk = factor_symmetric(S, d, seed=4), factor_skew(K, d, seed=5)
    for F, R in ((Fs, Rs), (Fk, Rk)):
        assert F.left == R.left and F.row_retired == R.row_retired
        assert F.core_rows == R.core_rows
        _same_core(F, R)
    _close(got_s, reconstruct(Rs).to_dense())
    _close(got_k, reconstruct(Rk).to_dense())


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_factor_additive_matches_reference(name, monkeypatch):
    A = SquareMatrix.from_dense(INPUTS[name]())
    budget = A.n * A.n // 4
    F = factor_additive(A, budget, seed=6)
    got = reconstruct_additive(F).to_dense()
    _use_reference(monkeypatch)
    R = factor_additive(A, budget, seed=6)
    for f, r in ((F.sym, R.sym), (F.skew, R.skew)):
        assert f.left == r.left and f.row_retired == r.row_retired
        _same_core(f, r)
    _close(got, reconstruct_additive(R).to_dense())


# ---------------------------------------------------------------- reconstruction


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_reconstructions_match_reference(name):
    a = INPUTS[name]()
    n = a.shape[0]
    h = _spread(n, 99)
    left, right = jacobi.two_basis_sweep(a.copy(), n // 10, np.random.default_rng(1))[:2]
    assert (jacobi.two_basis_reconstruct(h, left, right).tobytes()
            == ref.two_basis_reconstruct(h, left, right).tobytes())
    rotations = jacobi.conjugation_sweep(_halves(name)[1], 1, np.random.default_rng(2))[0]
    _close(jacobi.conjugate_reconstruct(h, rotations), ref.conjugate_reconstruct(h, rotations))
    assert np.array_equal(jacobi.two_basis_reconstruct(h, [], []), h)


# ---------------------------------------------------------------- pivot draws


def test_vector_pivot_draw_matches_scalar_draws():
    """One rng.integers(highs) call is the stream of per-level scalar draws."""
    n, d = 300, 7
    highs = np.repeat(np.arange(n, d, -1), 2)  # row and column phase per level
    vec_rng, seq_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    drawn = vec_rng.integers(highs)
    assert drawn.tolist() == [int(seq_rng.integers(int(h))) for h in highs]
    assert vec_rng.bit_generator.state == seq_rng.bit_generator.state


# ---------------------------------------------------------------- sparsifiers


def _full_ranking(h, mask):
    rr, cc = np.nonzero(mask & (h != 0.0))
    vv = h[rr, cc]
    order = np.lexsort((cc, rr, -np.abs(vv)))
    return rr[order], cc[order], vv[order]


def _reference_sparsify(h, rows, cols, kind, m):
    n = h.shape[0]
    row_in, col_in = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    row_in[list(rows)] = True
    col_in[list(cols)] = True
    rr, cc, vv = _full_ranking(h, ~(row_in[:, None] & col_in[None, :]))
    m = m if m is not None else max(n - len(rows), 0)
    if kind == "topn":
        return [(int(r), int(c), float(v)) for r, c, v in zip(rr[:m], cc[:m], vv[:m])]
    kept, rows_used, cols_used = [], set(), set()
    for r, c, v in zip(rr.tolist(), cc.tolist(), vv.tolist()):
        if len(kept) == m:
            break
        if r not in rows_used and c not in cols_used:
            rows_used.add(r)
            cols_used.add(c)
            kept.append((r, c, v))
    return kept


def _reference_murnaghan(h, core):
    n = h.shape[0]
    non = np.ones(n, dtype=bool)
    non[list(core)] = False
    rr, cc, vv = _full_ranking(h, np.triu(np.ones((n, n), dtype=bool), 1)
                               & non[:, None] & non[None, :])
    pairable = (int(non.sum()) // 2) * 2
    kept, used = [], set()
    for p, q, v in zip(rr.tolist(), cc.tolist(), vv.tolist()):
        if len(used) >= pairable:
            break
        if p in used or q in used:
            continue
        used.update((p, q))
        kept += [(p, q, v), (q, p, -v)]
    return kept


@st.composite
def _tied_cases(draw):
    """Small matrices of one-decimal values (heavy ties), random cores and budgets."""
    n = draw(st.integers(1, 14))
    cells = draw(st.lists(st.integers(-12, 12), min_size=n * n, max_size=n * n))
    h = np.array(cells, dtype=np.float64).reshape(n, n) / 10.0
    index = st.sets(st.integers(0, n - 1))
    rows = draw(st.one_of(st.just(set()), st.just(set(range(n))), index))
    cols = draw(st.one_of(st.just(rows), st.just(set()), index))
    m = draw(st.one_of(st.none(), st.just(0), st.integers(0, n * n + 2)))
    return h, IndexSet(tuple(sorted(rows)), n), IndexSet(tuple(sorted(cols)), n), m


@settings(max_examples=300, deadline=None)
@given(_tied_cases())
def test_lazy_ranking_matches_full_lexsort(case):
    h, rows, cols, m = case
    for kind in ("topn", "greedytopn"):
        got = sparsify(h, rows, cols, Sparsifier(kind, m))
        assert list(got.offcore) == _reference_sparsify(h, rows, cols, kind, m)
    assert list(murnaghan_sparsify(h, rows).offcore) == _reference_murnaghan(h, rows)


@pytest.mark.parametrize("m", (0, 1, 5, 10_000))
@pytest.mark.parametrize("core", ("empty", "some", "full"))
def test_lazy_ranking_edge_budgets(m, core):
    n = 12
    h = np.round(np.random.default_rng(m).standard_normal((n, n)), 1)
    members = {"empty": (), "some": (0, 3, 4), "full": tuple(range(n))}[core]
    s = IndexSet(members, n)
    for kind in ("topn", "greedytopn"):
        assert list(sparsify(h, s, s, Sparsifier(kind, m)).offcore) == \
            _reference_sparsify(h, s, s, kind, m)
    assert list(murnaghan_sparsify(h, s).offcore) == _reference_murnaghan(h, s)
