"""One sweep serves every core size, method and budget of one seed.

A sweep to core size d is the first n - d levels of any deeper sweep with
the same seed, so a sweep that stops at larger core sizes on its way must
hand over, at each stop, exactly what a sweep to that size returns: the
same rotations, permutations, retired labels and working matrix, bit for
bit. The route functions build on that (a tuple of sizes gives a tuple of
results from one sweep), and so does run_sweep, whose rows must equal
standalone compression_error runs at their seeds.
"""

import zlib

import numpy as np
import pytest

import reference_kernels as ref
from mrmf import bench, direct, jacobi
from mrmf.additive import factor_additive, reconstruct_additive
from mrmf.bench import (
    BENCH_METHODS,
    SweepConfig,
    compression_error,
    derive_seed,
    run_sweep,
)
from mrmf.cores import Sparsifier
from mrmf.data import write_matrix_market
from mrmf.direct import factor_direct, reconstruct
from mrmf.matrices import SquareMatrix
from mrmf.storage import StorageBudget
from mrmf.skew import factor_skew
from mrmf.symmetric import factor_symmetric
from test_kernels import INPUTS, _spread
from untruncated import untruncated

SPARSE700 = 700  # above jacobi._SUPPORT_FLOOR: its large levels gather


def _input(name):
    return _spread(SPARSE700, 14) if name == "spread700" else INPUTS[name]()


NAMES = sorted(INPUTS) + ["spread700"]


def _parts(name, half):
    a = _input(name)
    return (a, (a + a.T) * 0.5, (a - a.T) * 0.5)[half]


def _sweep(a, core_size, seed, half, **stops):
    rng = np.random.default_rng(seed)
    if half:
        return jacobi.conjugation_sweep(a, core_size, rng, parity=half == 2, **stops)
    return jacobi.two_basis_sweep(a, core_size, rng, **stops)


def _bytes(state):
    return [np.asarray(x).tobytes() for x in state]


def _stop_sizes(n, half):
    """Core sizes for one sweep to the last: d = n, one level, mid and deep."""
    return [n, n - 1, n // 2, max(n // 10, 2), 1 if half else n // 10 or 1]


# ---------------------------------------------------------------- sweeps


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("half", (0, 1, 2))  # general, symmetric, skew
def test_each_stop_is_the_sweep_to_its_size(name, half, monkeypatch):
    gathered = []
    support = jacobi._pivot_support

    def counting(x, rows, strided):
        nz = support(x, rows, strided)
        gathered.append(nz is not None)
        return nz

    monkeypatch.setattr(jacobi, "_pivot_support", counting)
    a = _parts(name, half)
    n = a.shape[0]
    sizes = _stop_sizes(n, half)
    deepest, stops = sizes[-1], set(sizes[:-1])
    work, seen = a.copy(), {}

    def keep(*state):
        seen[n - len(state[0])] = (_bytes(state), work.tobytes())

    keep(*_sweep(work, deepest, 9, half, stops=stops, at_stop=keep))
    assert sorted(seen) == sorted(set(sizes))
    for d in sizes:
        alone = a.copy()
        want = _bytes(_sweep(alone, d, 9, half))
        assert seen[d] == (want, alone.tobytes()), d
    assert any(gathered) == (name == "spread700")


def test_reference_sweeps_stop_where_the_package_does():
    # the loop-per-level reference defers nothing: its stops are the state
    # as it stands, an independent check of the replay at each stop
    a = INPUTS["spread64"]()
    for half in (0, 1):
        x = (a, (a + a.T) * 0.5)[half]
        got, want = {}, {}
        for sweep, seen in ((jacobi, got), (ref, want)):
            work = x.copy()

            def keep(*state, seen=seen, work=work):
                rotations = np.array([tuple(r) for r in state[0]]).tobytes()
                seen[len(state[0])] = (rotations, work.tobytes())

            stops = {64, 40, 17}
            rng = np.random.default_rng(4)
            if half:
                sweep.conjugation_sweep(work, 3, rng, parity=False, stops=stops, at_stop=keep)
            else:
                sweep.two_basis_sweep(work, 3, rng, stops=stops, at_stop=keep)
        assert got == want and sorted(got) == [0, 24, 47]


# ---------------------------------------------------------------- routes


def _same(F, G):
    """Bit-identical stored forms and reconstructions."""
    assert (F.n, F.conjugate) == (G.n, G.conjugate)
    for side in ("left", "right", "row_retired", "col_retired"):
        assert getattr(F, side).tobytes() == getattr(G, side).tobytes(), side
    for part in ("row_set", "col_set", "core", "offcore"):
        assert getattr(F.H, part).tobytes() == getattr(G.H, part).tobytes(), part
    assert reconstruct(F).to_dense().tobytes() == reconstruct(G).to_dense().tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_direct_cuts_equal_their_own_runs(name):
    A = SquareMatrix.from_dense(_input(name))
    n = A.n
    sizes = (n, n // 2, n // 2, n // 3, max(n // 10, 1))
    rules = tuple(Sparsifier(kind) for kind in
                  ("topn", "corediag", "greedytopn", "topn", "greedytopn"))
    many = factor_direct(A, sizes, rules, seed=5)
    assert isinstance(many, tuple) and len(many) == len(sizes)
    for F, d, rule in zip(many, sizes, rules):
        _same(F, factor_direct(A, d, rule, seed=5))
    keep_all = Sparsifier("topn", m=n * n)
    lossless = factor_direct(A, sizes[:2], (keep_all, keep_all), seed=5)
    for F, d in zip(lossless, sizes):
        _same(F, factor_direct(A, d, keep_all, seed=5))


@pytest.mark.parametrize("name", NAMES)
def test_symmetric_and_skew_cuts_equal_their_own_runs(name):
    a = _input(name)
    S = SquareMatrix.from_dense((a + a.T) * 0.5)
    K = SquareMatrix.from_dense((a - a.T) * 0.5)
    n = S.n
    # skew sizes 0 and 1 are one stop: the sweep ends at one active index
    for route, M, sizes in ((factor_symmetric, S, (n, n // 2, n // 2, 1)),
                            (factor_skew, K, (n, n // 2, 1, 0, 0, 1))):
        many = route(M, sizes, 6)
        assert len(many) == len(sizes)
        for F, d in zip(many, sizes):
            _same(F, route(M, d, 6))
        parity = route is factor_skew
        for F, d in zip(untruncated(M, sizes[:2], 6, parity), sizes):
            _same(F, untruncated(M, d, 6, parity))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_additive_budgets_equal_their_own_runs(name):
    A = SquareMatrix.from_dense(INPUTS[name]())
    n = A.n
    budgets = (n * n // 2, n * n // 4, n * n // 4, 30 * n)
    many = factor_additive(A, budgets, seed=8)
    assert len(many) == len(budgets)
    for F, budget in zip(many, budgets):
        G = factor_additive(A, budget, seed=8)
        _same(F.sym, G.sym)
        _same(F.skew, G.skew)
        assert (reconstruct_additive(F).to_dense().tobytes()
                == reconstruct_additive(G).to_dense().tobytes())


def test_multi_cut_routes_match_the_reference_sweeps(monkeypatch):
    A = SquareMatrix.from_dense(INPUTS["tied64"]())
    sizes, rules = (64, 30, 8), (Sparsifier("topn"),) * 3
    budgets = (1500, 900)
    got = factor_direct(A, sizes, rules, seed=2), factor_additive(A, budgets, seed=2)
    for sweep in ("two_basis_sweep", "conjugation_sweep"):
        monkeypatch.setattr(direct, sweep, getattr(ref, sweep))
    want = factor_direct(A, sizes, rules, seed=2), factor_additive(A, budgets, seed=2)
    pairs = list(zip(got[0], want[0]))
    pairs += [(f, r) for F, R in zip(got[1], want[1]) for f, r in ((F.sym, R.sym), (F.skew, R.skew))]
    for F, R in pairs:
        assert F.left.tolist() == R.left.tolist() and F.right.tolist() == R.right.tolist()
        assert np.array_equal(F.row_retired, R.row_retired)
        assert F.H.core.tobytes() == R.H.core.tobytes()
        assert F.H.offcore.tolist() == R.H.offcore.tolist()


def test_tuple_arguments_are_checked():
    A = SquareMatrix.from_dense(INPUTS["spread64"]())
    with pytest.raises(ValueError, match="one sparsifier per core size"):
        factor_direct(A, (4, 8), (Sparsifier("topn"),), seed=0)
    with pytest.raises(ValueError, match=r"core_size must be in \[1, 64\]"):
        factor_direct(A, (4, 0), (Sparsifier("topn"),) * 2, seed=0)
    with pytest.raises(ValueError, match="no size"):
        factor_symmetric(A, (), seed=0)


# ---------------------------------------------------------------- sweeps of the bench


@pytest.fixture(scope="module")
def two_matrices(tmp_path_factory):
    """A dense and a sparse nonsymmetric input under G/dense and G/sparse."""
    tmp = tmp_path_factory.mktemp("shared")
    rng = np.random.default_rng(21)
    dense = rng.standard_normal((24, 24))
    sparse = dense * (rng.random((24, 24)) < 0.6)
    (tmp / "cache" / "G").mkdir(parents=True)
    mats = {}
    for name, m in (("dense", dense), ("sparse", sparse)):
        A = SquareMatrix.from_dense(m)
        (tmp / "cache" / "G" / f"{name}.mtx").write_bytes(write_matrix_market(A))
        mats[f"G/{name}"] = A
    (tmp / "manifest.txt").write_text("".join(f"{k}\n" for k in mats))
    return tmp, mats


def _no_net(url):
    raise AssertionError(f"sweep tried the network: {url}")


def _config(tmp, manifest="manifest.txt", **kwargs):
    return SweepConfig(manifest=str(tmp / manifest), output=str(tmp / "out.csv"),
                       cache_dir=str(tmp / "cache"), seed=3, **kwargs)


@pytest.mark.parametrize("workers", (1, 2, 4))
def test_every_sweep_row_equals_its_standalone_run(two_matrices, workers):
    tmp, mats = two_matrices
    config = _config(tmp, methods=BENCH_METHODS, fractions=(0.3, 0.5, 0.8), trials=2,
                     max_workers=workers)
    result = run_sweep(config, http_get=_no_net)
    assert result.failures == ()
    assert len(result.rows) == 2 * 6 * 3 * 2
    for row in result.rows:
        label = f"{row['group']}/{row['name']}"
        route = "direct" if row["method"].startswith("direct-") else row["method"]
        assert row["seed"] == derive_seed(3, label, route, row["trial"])
        got = compression_error(mats[label], row["method"], row["budget"], row["seed"])
        assert (row["error"], row["storage"], row["param"]) == got, row
        assert row["wall_time_s"] > 0.0


def test_a_failed_solve_stays_on_its_own_row(two_matrices):
    tmp, mats = two_matrices
    (tmp / "one.txt").write_text("G/dense\n")
    config = _config(tmp, "one.txt", methods=("direct-topn", "additive"),
                     fractions=(0.02, 0.25), trials=1, max_workers=2)
    result = run_sweep(config, http_get=_no_net)
    assert [(f["matrix"], f["stage"], f["type"]) for f in result.failures] == [
        ("G/dense", "direct-topn@0.02/trial0", "BudgetError"),
        ("G/dense", "additive@0.02/trial0", "BudgetError"),
    ]
    assert [(r["method"], r["fraction"]) for r in result.rows] == [
        ("direct-topn", 0.25), ("additive", 0.25),
    ]
    for row in result.rows:
        got = compression_error(mats["G/dense"], row["method"], row["budget"], row["seed"])
        assert (row["error"], row["storage"], row["param"]) == got


class BuildFailed(RuntimeError):
    pass


def test_a_failed_build_stays_in_its_group(two_matrices, monkeypatch):
    # a direct build fails every direct row of its (matrix, trial); a cur
    # build fails only its own row; every other row keeps its standalone value
    tmp, mats = two_matrices
    (tmp / "one.txt").write_text("G/dense\n")
    A = mats["G/dense"]
    config = _config(tmp, "one.txt", methods=("direct-topn", "cur", "direct-corediag", "additive"),
                     fractions=(0.3, 0.5), trials=2, max_workers=2)
    bad_rank = bench._solve(A, "cur", StorageBudget(0.5, config.accounting).scalars(A))
    bad_cur_seed = derive_seed(3, "G/dense", "cur", 0)
    bad_direct_seed = derive_seed(3, "G/dense", "direct", 1)
    cur_decompose, factor_direct_ = bench.cur_decompose, bench.factor_direct

    def failing_cur(A, r, seed):
        if (r, seed) == (bad_rank, bad_cur_seed):
            raise BuildFailed(f"rank {r}")
        return cur_decompose(A, r, seed)

    def failing_direct(A, sizes, rules, seed):
        if seed == bad_direct_seed:
            raise BuildFailed("direct sweep")
        return factor_direct_(A, sizes, rules, seed)

    monkeypatch.setattr(bench, "cur_decompose", failing_cur)
    monkeypatch.setattr(bench, "factor_direct", failing_direct)
    result = run_sweep(config, http_get=_no_net)
    assert [(f["matrix"], f["stage"], f["type"]) for f in result.failures] == [
        ("G/dense", "direct-topn@0.3/trial1", "BuildFailed"),
        ("G/dense", "direct-topn@0.5/trial1", "BuildFailed"),
        ("G/dense", "cur@0.5/trial0", "BuildFailed"),
        ("G/dense", "direct-corediag@0.3/trial1", "BuildFailed"),
        ("G/dense", "direct-corediag@0.5/trial1", "BuildFailed"),
    ]
    assert len(result.rows) == 4 * 2 * 2 - 5
    assert {r["method"] for r in result.rows} == set(config.methods)
    for row in result.rows:
        got = compression_error(A, row["method"], row["budget"], row["seed"])
        assert (row["error"], row["storage"], row["param"]) == got, row


def test_a_non_ascii_name_gets_its_own_seed(tmp_path):
    # a name the manifest spells in UTF-8 is seeded from its UTF-8 bytes;
    # an ASCII name keeps the seed it always had
    rng = np.random.default_rng(22)
    (tmp_path / "cache" / "G").mkdir(parents=True)
    mats = {}
    for name in ("café", "plain"):
        A = SquareMatrix.from_dense(rng.standard_normal((16, 16)))
        (tmp_path / "cache" / "G" / f"{name}.mtx").write_bytes(write_matrix_market(A))
        mats[f"G/{name}"] = A
    (tmp_path / "manifest.txt").write_text("G/café\nG/plain\n", encoding="utf-8")
    config = _config(tmp_path, methods=("cur", "direct-topn"), fractions=(0.5,), trials=1)
    result = run_sweep(config, http_get=_no_net)
    assert result.failures == ()
    assert [f"{r['group']}/{r['name']}" for r in result.rows] == ["G/café"] * 2 + ["G/plain"] * 2
    assert derive_seed(3, "G/plain", "cur", 0) == 112311422
    assert derive_seed(3, "G/café", "cur", 0) == zlib.crc32("3|G/café|cur|0".encode("utf-8"))
    for row in result.rows:
        label = f"{row['group']}/{row['name']}"
        assert row["seed"] == derive_seed(3, label, bench._route(row["method"]), 0)
        got = compression_error(mats[label], row["method"], row["budget"], row["seed"])
        assert (row["error"], row["storage"], row["param"]) == got, row
