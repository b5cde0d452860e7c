"""Benchmark harness tests: storage accounting, configs, sweeps, win tables.

The sweep tests run fully offline against a tmp cache seeded with a written
matrix file; any attempt to touch the network fails the test.
"""

import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mrmf.bench
import mrmf.storage
from mrmf import (
    BudgetError,
    Factorization,
    Sparsifier,
    SquareMatrix,
    StorageBudget,
    cur_decompose,
    factor_additive,
    factor_direct,
    factor_symmetric,
    frobenius_relative_error,
    hybrid_compress,
    predicted_storage,
    solve_core_size,
    write_matrix_market,
)
from mrmf.bench import (
    BENCH_METHODS,
    RUN_CSV_HEADER,
    CompressionReport,
    SweepConfig,
    compression_error,
    derive_seed,
    format_win_table,
    load_manifest,
    load_sweep_config,
    run_decay_sweep,
    run_rank_sweep,
    run_sweep,
    sweep_csv,
    sweep_json,
    win_table,
)
from mrmf.data import MatrixMetadata, MatrixNotFoundError
from mrmf.direct import reconstruct
from mrmf.storage import minimum_storage


def _no_net(url, timeout=60.0):
    raise AssertionError(f"sweep tried the network: {url}")


def _random_square(n, seed):
    return SquareMatrix.from_dense(np.random.default_rng(seed).standard_normal((n, n)))


# ---------------------------------------------------------------- storage


def test_budget_scalars_sparse_coo():
    A = SquareMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert A.nnz == 3
    assert StorageBudget(0.5).base(A) == 9
    assert StorageBudget(0.5).scalars(A) == 5  # ceil(4.5)
    assert StorageBudget(1.0).scalars(A) == 9


def test_budget_scalars_dense():
    A = _random_square(16, 0)
    b = StorageBudget(0.25, accounting="dense")
    assert b.base(A) == 256
    assert b.scalars(A) == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fraction": 0.0},
        {"fraction": -0.1},
        {"fraction": 0.5, "accounting": "bits"},
        {"fraction": math.inf},  # ceil(inf * base) has no integer value
        {"fraction": math.nan},
    ],
)
def test_budget_validation(kwargs):
    with pytest.raises(ValueError):
        StorageBudget(**kwargs)


def test_full_core_storage_golden():
    # d = n keeps zero rotations and the whole matrix as the core: n^2 + n
    S = np.random.default_rng(1).standard_normal((10, 10))
    A = SquareMatrix.from_dense(S + S.T)
    F = factor_symmetric(A, 10, seed=0)
    assert F.storage_scalars == 110
    assert predicted_storage(10, "symmetric", 10) == 110


def test_predicted_storage_matches_actual_runs():
    # on generic dense input every method hits its worst-case count exactly
    S = np.random.default_rng(11).standard_normal((14, 14))
    F = factor_symmetric(SquareMatrix.from_dense(S + S.T), 4, seed=2)
    assert F.storage_scalars == predicted_storage(14, "symmetric", 4) == 80

    G = _random_square(12, 11)
    for kind, method in [("topn", "direct-topn"), ("greedytopn", "direct-greedytopn")]:
        F = factor_direct(G, 3, Sparsifier(kind), seed=5)
        assert F.storage_scalars == predicted_storage(12, method, 3)

    # corediag's bound assumes minimal core overlap; runs may come in under
    F = factor_direct(G, 3, Sparsifier("corediag"), seed=5)
    assert F.storage_scalars == 102
    assert F.storage_scalars <= predicted_storage(12, "direct-corediag", 3) == 105

    f = cur_decompose(G, 4, seed=9)
    assert f.storage_scalars == predicted_storage(12, "cur", 4) == 120


def test_predicted_storage_bounds_actual_everywhere():
    G = _random_square(10, 3)
    S = SquareMatrix.from_dense(G.to_dense() + G.to_dense().T)
    for d in (1, 3, 5, 8):
        F = factor_symmetric(S, d, seed=d)
        assert F.storage_scalars <= predicted_storage(10, "symmetric", d)
        for kind in ("topn", "greedytopn", "corediag"):
            F = factor_direct(G, d, Sparsifier(kind), seed=d)
            assert F.storage_scalars <= predicted_storage(10, f"direct-{kind}", d)


def test_solve_full_budget_is_lossless_core():
    A = _random_square(12, 4)
    for method in BENCH_METHODS:
        if method == "additive":
            continue
        assert solve_core_size(A, method, 10_000) == 12


def test_solve_monotone_in_budget():
    A = _random_square(16, 5)
    for method in ("symmetric", "skew", "direct-greedytopn", "cur"):
        s = minimum_storage(16, method)
        sizes = [solve_core_size(A, method, s * k) for k in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)


def test_solve_boundary_at_quarter_dense_50x50():
    A = _random_square(50, 11)
    budget = StorageBudget(0.25, accounting="dense")
    assert budget.scalars(A) == 625
    expected = {
        "symmetric": 20,
        "skew": 20,
        "direct-corediag": 15,
        "direct-topn": 17,
        "direct-greedytopn": 17,
        "cur": 5,
        "hybrid": 17,
    }
    for method, d_frozen in expected.items():
        d = solve_core_size(A, method, budget.scalars(A))
        assert d == d_frozen
        # independent linear-scan oracle over the storage model
        lo = 0 if method == "skew" else 1
        oracle = max(
            k for k in range(lo, 51) if predicted_storage(50, method, k) <= 625
        )
        assert d == oracle
        assert predicted_storage(50, method, d) <= 625
        if d < 50:
            assert predicted_storage(50, method, d + 1) > 625


def test_solve_takes_scalar_count():
    A = _random_square(50, 11)
    want = solve_core_size(A, "cur", 625)
    assert solve_core_size(A, "cur", StorageBudget(0.25, accounting="dense").scalars(A)) == want
    assert solve_core_size(A, "cur", np.int64(625)) == want


@pytest.mark.parametrize("method", ["symmetric", "skew", "svd"])
def test_compression_error_refuses_an_unknown_method(method):
    # symmetric would otherwise solve as a core size and be built by hybrid_compress
    A = _random_square(12, 3)
    with pytest.raises(ValueError, match=f"unknown method {method!r}"):
        compression_error(A, method, A.n * A.n, 0)


def test_solve_below_minimum_raises():
    A = _random_square(16, 6)
    assert minimum_storage(16, "cur") == 35
    assert solve_core_size(A, "cur", 35) == 1
    with pytest.raises(BudgetError):
        solve_core_size(A, "cur", 34)


def test_solve_skew_allows_empty_core():
    A = _random_square(16, 7)
    assert minimum_storage(16, "skew") == 87
    assert solve_core_size(A, "skew", 87) >= 0
    with pytest.raises(BudgetError):
        solve_core_size(A, "skew", 86)


def test_additive_has_no_single_storage_model():
    # additive splits its budget between two factorizations at run time
    with pytest.raises(ValueError):
        predicted_storage(16, "additive", 4)


# ---------------------------------------------------------------- seeds


def test_derive_seed_stable_golden():
    assert derive_seed(0) == 4108050209
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(7, "Test/tiny", "cur", "0.25", 0) == 1701485466


def test_derive_seed_distinguishes_parts():
    seeds = {
        derive_seed(0, "a", "b"),
        derive_seed(0, "b", "a"),
        derive_seed(0, "ab"),
        derive_seed(1, "a", "b"),
    }
    assert len(seeds) == 4
    for s in seeds:
        assert 0 <= s < 2**32


# ---------------------------------------------------------------- configs


def test_load_sweep_config_full(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# compression sweep\n"
        "manifest = manifest.txt\n"
        "\n"
        "methods = additive, cur\n"
        "fractions = 0.01, 0.25\n"
        "trials = 2\n"
        "seed = 9\n"
        "output = out/run.csv\n"
        "accounting = dense\n"
        "cache_dir = /tmp/cache\n"
        "max_workers = 2\n"
    )
    cfg = load_sweep_config(path)
    assert cfg.manifest == "manifest.txt"
    assert cfg.methods == ("additive", "cur")
    assert cfg.fractions == (0.01, 0.25)
    assert cfg.trials == 2
    assert cfg.seed == 9
    assert cfg.output == "out/run.csv"
    assert cfg.accounting == "dense"
    assert cfg.cache_dir == "/tmp/cache"
    assert cfg.max_workers == 2


def test_load_sweep_config_defaults(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "manifest=m.txt\nmethods=cur\nfractions=0.5\noutput=o.csv\n"
    )
    cfg = load_sweep_config(path)
    assert cfg.trials == 3
    assert cfg.seed == 0
    assert cfg.accounting == "sparse-coo"
    assert cfg.cache_dir == "cache"
    assert cfg.max_workers == 1


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("manifest m.txt\n", "key=value"),
        ("manifest=m.txt\nbudget=3\n", "unknown config key"),
        ("manifest=m.txt\nmanifest=n.txt\n", "duplicate"),
        ("methods=cur\nfractions=0.5\n", "missing required"),
        ("manifest=m.txt\nmethods=cur\nfractions=0.1, .10\noutput=o.csv\n", "fractions list rep"),
    ],
)
def test_load_sweep_config_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        load_sweep_config(path)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({"methods": ()}, "methods"),
        ({"methods": ("svd",)}, "unknown method"),
        ({"fractions": ()}, "fractions"),
        ({"fractions": (0.0,)}, "outside"),
        ({"fractions": (1.5,)}, "outside"),
        ({"trials": 0}, "trials"),
        ({"max_workers": 0}, "max_workers"),
        ({"accounting": "bits"}, "unknown accounting mode 'bits'"),
        ({"methods": ("cur", "additive", "cur")}, "methods list repeats an entry"),
        ({"fractions": (0.5, 0.25, 0.5)}, "fractions list repeats an entry"),
    ],
)
def test_sweep_config_validation(kwargs, fragment):
    base = dict(
        manifest="m.txt",
        methods=("cur",),
        fractions=(0.5,),
        trials=1,
        seed=0,
        output="o.csv",
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=fragment):
        SweepConfig(**base)


def test_load_manifest(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("# corpus\nHB/west0479\n\n  Bai/tols1090  \n")
    assert load_manifest(path) == [("HB", "west0479"), ("Bai", "tols1090")]


def test_load_manifest_refuses_repeated_matrix(tmp_path):
    # a repeat reruns the same seeds, and its rows would count as extra trials
    path = tmp_path / "manifest.txt"
    path.write_text("Test/tiny\nHB/west0479\n# again\n Test / tiny \n")
    with pytest.raises(ValueError, match=r"manifest.txt:4: 'Test / tiny' repeats line 1$"):
        load_manifest(path)


def test_load_manifest_requires_group(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("west0479\n")
    with pytest.raises(ValueError, match="group/name"):
        load_manifest(path)


@pytest.mark.parametrize("line", ["HB/", "/west0479", " / west0479"])
def test_load_manifest_refuses_empty_group_or_name(tmp_path, line):
    # either form would reach the download with an empty part in its URL
    path = tmp_path / "manifest.txt"
    path.write_text(f"Test/tiny\n{line}\n")
    with pytest.raises(ValueError, match=rf"manifest.txt:2: expected group/name, got "
                                         rf"{re.escape(repr(line.strip()))}$"):
        load_manifest(path)


@pytest.mark.parametrize("line", ["../notes", "./x", "g//tmp/x", "a/b/c", "a\\b/c"])
def test_load_manifest_refuses_a_key_outside_the_cache(tmp_path, line):
    # each would make fetch_suitesparse read or write a file outside the cache
    path = tmp_path / "manifest.txt"
    path.write_text(f"Test/tiny\n{line}\n")
    with pytest.raises(ValueError, match=rf"manifest.txt:2: expected group/name, got "
                                         rf"{re.escape(repr(line))}$"):
        load_manifest(path)


def test_compression_report_validation():
    meta = MatrixMetadata(name="m", group="G", n=4, nnz=16, kind="", numerical_symmetry=0.0)
    with pytest.raises(ValueError):
        CompressionReport(meta, "cur", 0.5, 0, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        CompressionReport(meta, "cur", 0.5, 1, -0.1, 0.0, 0.0)


# ---------------------------------------------------------------- sweeps


@pytest.fixture(scope="module")
def sweep_env(tmp_path_factory):
    """Warm offline cache with one symmetric 16x16 matrix under Test/tiny."""
    tmp = tmp_path_factory.mktemp("sweep")
    rng = np.random.default_rng(0)
    S = rng.standard_normal((16, 16))
    A = SquareMatrix.from_dense(S + S.T)
    cache = tmp / "cache"
    (cache / "Test").mkdir(parents=True)
    (cache / "Test" / "tiny.mtx").write_bytes(write_matrix_market(A))
    manifest = tmp / "manifest.txt"
    manifest.write_text("Test/tiny\n")
    return tmp, manifest, cache, A


def _config(tmp, manifest, cache, **overrides):
    kwargs = dict(
        manifest=str(manifest),
        methods=("additive", "cur"),
        fractions=(0.25, 0.5),
        trials=2,
        seed=7,
        output=str(tmp / "out.csv"),
        cache_dir=str(cache),
        max_workers=2,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def sweep_result(sweep_env):
    tmp, manifest, cache, _ = sweep_env
    cfg = _config(tmp, manifest, cache)
    return cfg, run_sweep(cfg, http_get=_no_net)


def test_sweep_structure(sweep_result):
    cfg, res = sweep_result
    assert len(res.reports) == 4  # 1 matrix x 2 methods x 2 fractions
    assert len(res.rows) == 8  # x 2 trials
    assert res.failures == ()
    assert sorted(res.win_tables) == ["additive"]  # never cur-vs-cur
    for row in res.rows:
        assert row["storage"] <= row["budget"]
        # one seed per (matrix, route, trial): every fraction shares it
        assert row["seed"] == derive_seed(cfg.seed, "Test/tiny", row["method"], row["trial"])
    for rep in res.reports:
        assert rep.trials == 2
        assert rep.mean_error >= 0.0
        assert rep.wall_time_s >= 0.0


def test_sweep_rows_follow_item_order(sweep_result):
    _, res = sweep_result
    keys = [(r["method"], r["fraction"], r["trial"]) for r in res.rows]
    expect = [
        (m, f, t)
        for m in ("additive", "cur")
        for f in (0.25, 0.5)
        for t in (0, 1)
    ]
    assert keys == expect


def test_sweep_rerun_is_byte_identical(sweep_env, sweep_result):
    tmp, manifest, cache, _ = sweep_env
    cfg, res = sweep_result
    again = run_sweep(cfg, http_get=_no_net)
    assert sweep_csv(res) == sweep_csv(again)


def test_sweep_win_table_has_kind_and_total_rows(sweep_result):
    _, res = sweep_result
    table = res.win_tables["additive"]
    kinds = [row["kind"] for row in table["rows"]]
    assert kinds == ["unknown", "total"]  # written file carries no kind tag
    assert sorted(table["rows"][-1]["cells"]) == ["0.25", "0.5"]


def test_sweep_failures_logged_not_fatal(sweep_env):
    tmp, manifest, cache, _ = sweep_env
    manifest2 = tmp / "manifest2.txt"
    manifest2.write_text("Test/tiny\nMissing/gone\n")

    def not_found(url, timeout=60.0):
        raise MatrixNotFoundError("no such matrix")

    # 0.02 of the base is below the cur minimum: a per-run failure
    cfg = _config(
        tmp,
        manifest2,
        cache,
        methods=("cur",),
        fractions=(0.02, 0.25),
        trials=1,
        seed=0,
        output=str(tmp / "out2.csv"),
        max_workers=1,
    )
    res = run_sweep(cfg, http_get=not_found)
    stages = [(f["matrix"], f["stage"], f["type"]) for f in res.failures]
    assert ("Missing/gone", "load", "MatrixNotFoundError") in stages
    assert ("Test/tiny", "cur@0.02/trial0", "BudgetError") in stages
    assert [(r.method, r.fraction) for r in res.reports] == [("cur", 0.25)]


def test_win_table_self_comparison_is_all_ties(sweep_result):
    _, res = sweep_result
    table = win_table(res.reports, "cur", "cur")
    total = table["rows"][-1]["cells"]["0.25"]
    assert total["wins"] == 0 and total["losses"] == 0 and total["ties"] == 1
    assert total["win_pct"] == 0.0 and total["tie_pct"] == 100.0


def _report(name, kind, method, err, fraction=0.1):
    meta = MatrixMetadata(
        name=name, group="G", n=8, nnz=64, kind=kind, numerical_symmetry=0.0
    )
    return CompressionReport(meta, method, fraction, 1, err, 0.0, 0.0)


def test_win_table_percentages():
    reports = [
        _report("a", "graph", "mmf", 0.2),
        _report("a", "graph", "cur", 0.3),  # win
        _report("b", "graph", "mmf", 0.4),
        _report("b", "graph", "cur", 0.3),  # loss
        _report("c", "graph", "mmf", 0.5),
        _report("c", "graph", "cur", 0.5),  # tie
        _report("d", "circuit", "mmf", 0.1),
        _report("d", "circuit", "cur", 0.9),  # win
        _report("e", "circuit", "mmf", 0.1),  # no baseline: skipped
    ]
    table = win_table(reports, "mmf", "cur")
    assert [row["kind"] for row in table["rows"]] == ["circuit", "graph", "total"]
    graph = table["rows"][1]["cells"]["0.1"]
    assert (graph["wins"], graph["losses"], graph["ties"]) == (1, 1, 1)
    assert graph["win_pct"] == graph["loss_pct"] == graph["tie_pct"] == pytest.approx(33.3)
    total = table["rows"][-1]["cells"]["0.1"]
    assert (total["matrices"], total["wins"]) == (4, 2)
    assert total["win_pct"] + total["loss_pct"] + total["tie_pct"] == pytest.approx(100.0, abs=0.1)


def test_format_win_table_lists_fractions(sweep_result):
    _, res = sweep_result
    text = format_win_table(res.win_tables["additive"])
    lines = text.splitlines()
    assert lines[0] == "win rate of additive vs cur (% of matrices)"
    assert "@0.25" in lines[1] and "@0.5" in lines[1]
    assert lines[-1].startswith("total")
    assert len(lines) == 2 + 2  # banner, header, one kind row, totals


def test_sweep_csv_format(sweep_result):
    _, res = sweep_result
    lines = sweep_csv(res).splitlines()
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == 1 + len(res.rows)
    for line, row in zip(lines[1:], res.rows):
        fields = line.split(",")
        assert len(fields) == 13  # no timing column
        assert fields[0] == "Test" and fields[1] == "tiny"
        assert fields[5] == row["method"]
        assert fields[6] == f"{row['fraction']:g}"
        assert float(fields[12]) == row["error"]


def _timeless(text):
    payload = json.loads(text)
    for rep in payload["reports"]:
        rep["wall_time_s"] = 0.0
    return payload


def test_sweep_outputs_do_not_depend_on_worker_count(sweep_env, monkeypatch):
    tmp, _, cache, _ = sweep_env
    manifest = tmp / "manifest-workers.txt"
    manifest.write_text("Test/tiny\nMissing/gone\n")

    def not_found(url):
        raise MatrixNotFoundError("no such matrix")

    # every item runs in the calling thread, whatever max_workers says
    run_item, threads = mrmf.bench._run_item, []

    def recording(A, rows):
        threads.append(threading.get_ident())
        return run_item(A, rows)

    monkeypatch.setattr(mrmf.bench, "_run_item", recording)
    methods, fractions = ("hybrid", "additive", "cur"), (0.5, 0.02, 0.25)
    outputs = []
    for workers in (1, 2):
        cfg = _config(tmp, manifest, cache, methods=methods, fractions=fractions,
                      max_workers=workers)
        res = run_sweep(cfg, http_get=not_found)
        outputs.append((sweep_csv(res), _timeless(sweep_json(res, cfg))))
    assert threads and set(threads) == {threading.get_ident()}
    assert outputs[0] == outputs[1]
    # 0.02 is below every method's minimum here: those cells fail and drop
    # out, and the others keep the methods-then-fractions order
    reports = outputs[0][1]["reports"]
    expect = [(m, f) for m in methods for f in (0.5, 0.25)]
    assert [(r["method"], r["fraction"]) for r in reports] == expect
    assert all(r["trials"] == 2 for r in reports)


def test_sweep_json_config_block(sweep_result):
    # the recipe only: where the run writes, caches and how many workers
    # it uses change no result
    cfg, res = sweep_result
    assert json.loads(sweep_json(res, cfg))["config"] == {
        "manifest": cfg.manifest,
        "methods": ["additive", "cur"],
        "fractions": [0.25, 0.5],
        "trials": 2,
        "seed": 7,
        "accounting": "sparse-coo",
    }


@pytest.mark.parametrize("method", BENCH_METHODS)
def test_compression_error_refuses_storage_over_budget(method, monkeypatch):
    # a storage model that calls every size free makes the solvers pick the
    # largest one; the stored count is taken from the output, so it overshoots
    monkeypatch.setattr(mrmf.storage, "predicted_storage", lambda n, method, d: 0)
    A = _random_square(12, 3)
    message = rf"^{method} stored \d+ scalars over its budget of 100$"
    with pytest.raises(RuntimeError, match=message):
        compression_error(A, method, 100, 7)


def test_sweep_json_report(sweep_result):
    cfg, res = sweep_result
    payload = json.loads(sweep_json(res, cfg))
    assert sorted(payload) == ["config", "failures", "reports", "win_tables"]
    assert payload["config"]["methods"] == ["additive", "cur"]
    assert len(payload["reports"]) == 4
    for rep in payload["reports"]:
        assert rep["matrix"]["group"] == "Test"
        assert rep["wall_time_s"] >= 0.0
    assert payload["failures"] == []


# ---------------------------------------------------------------- scans


def test_decay_sweep_rows():
    rows = run_decay_sweep(60, [1.0, 2.0], seed=3)
    assert [t for t, _ in rows] == [1.0, 2.0]
    assert all(err >= 0.0 for _, err in rows)


def test_decay_sweep_deterministic():
    assert run_decay_sweep(60, [1.0, 2.0], seed=3) == run_decay_sweep(
        60, [1.0, 2.0], seed=3
    )


def test_decay_sweep_rejects_t_zero():
    with pytest.raises(ValueError):
        run_decay_sweep(60, [0.0], seed=3)


def test_rank_sweep_series():
    A = _random_square(20, 3)
    rows = run_rank_sweep(A, [3, 20], fraction=0.15, seed=5)
    assert len(rows) == len([3, 20]) + 2
    assert [s for s, _, _ in rows] == ["hybrid", "hybrid", "cur", "mmf"]
    assert rows[0][1] == 3 and rows[1][1] == 20
    assert rows[2][1] == 3  # rank a stored CUR affords at 15% of 3*nnz
    assert rows[3][1] == 7  # core size the direct method affords


def test_rank_sweep_deterministic():
    A = _random_square(20, 3)
    assert run_rank_sweep(A, [3, 8], fraction=0.15, seed=5) == run_rank_sweep(
        A, [3, 8], fraction=0.15, seed=5
    )


def test_hybrid_at_full_rank_matches_direct_run():
    # lossless CUR stage: the pipeline reduces to the direct method alone
    A = _random_square(20, 3)
    scalars = 180
    H = hybrid_compress(A, 20, scalars, 123)
    mmf_seed = np.random.SeedSequence(123).spawn(2)[1]
    d = solve_core_size(A, "direct-greedytopn", scalars)
    F = factor_direct(A, d, Sparsifier("greedytopn"), mmf_seed)
    err = frobenius_relative_error(A, reconstruct(F))
    assert abs(frobenius_relative_error(A, reconstruct(H)) - err) <= 1e-9


def test_hybrid_is_measured_against_a_at_the_cur_rank():
    # compression_error scores the stored factorization of M = CUR against A
    A = _random_square(20, 3)
    scalars = 180
    err, storage, param = compression_error(A, "hybrid", scalars, 9)
    assert param == solve_core_size(A, "cur", scalars)
    F = hybrid_compress(A, param, scalars, 9)
    assert isinstance(F, Factorization)
    assert (err, storage) == (frobenius_relative_error(A, reconstruct(F)), F.storage_scalars)


def test_hybrid_budget_error_names_hybrid():
    A = _random_square(20, 3)
    assert minimum_storage(20, "cur") == 43 < 100 < minimum_storage(20, "hybrid") == 168
    with pytest.raises(BudgetError, match="minimum footprint of hybrid at n=20"):
        hybrid_compress(A, 3, 100, 0)


def test_additive_param_is_the_core_size_of_a_stored_half():
    # the symmetric half's core size, or the skew half's when only it exists
    m = np.random.default_rng(4).standard_normal((40, 40))
    for A, half in ((SquareMatrix.from_dense(m - m.T), "skew"),
                    (SquareMatrix.from_dense(m), "sym")):
        _, storage, param = compression_error(A, "additive", 800, 1)
        F = factor_additive(A, 800, 1)
        assert storage == F.storage_scalars <= 800
        assert param == len(getattr(F, half).core_rows) > 0


# the rows of perfbench's suite-sparse matrix perf/s0_n256_r4 at seed 5, with
# what README says does not depend on the BLAS thread count: every row's
# size parameter, every storage but hybrid's and the additive budget split
THREAD_ROWS = """
import sys, tempfile
sys.path.insert(0, sys.argv[1])
import workloads
from mrmf import bench
from mrmf.additive import half_masses, split_budget
from mrmf.data import parse_matrix_market

with tempfile.TemporaryDirectory() as work:
    wl = workloads.SuiteSparse(work, 5, max_workers=1)
    wl.setup()
    wl.manifest.write_text("perf/s0_n256_r4\\n")
    A, _ = parse_matrix_market((wl.cache_dir / "perf" / "s0_n256_r4.mtx").read_bytes())
    result = bench.run_sweep(wl.config(1), http_get=workloads._no_network)
assert len(result.rows) == 18 and not result.failures
for row in result.rows:
    method, budget = row["method"], row["budget"]
    storage = "-" if method == "hybrid" else row["storage"]
    split = split_budget(A.n, half_masses(A), budget) if method == "additive" else ""
    print(method, row["fraction"], row["param"], storage, split)
"""


def test_sizes_and_storage_do_not_depend_on_blas_threads():
    # a hybrid run's off-core selection ranks entries of M = CUR at its
    # round-off level, so its storage may move with the thread count (here
    # 2,718 scalars at 5% dense on one thread, 2,715 on two); README says so
    root = Path(__file__).resolve().parents[1]
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", THREAD_ROWS, str(root / "perfbench")],
                             env=env, capture_output=True, text=True, check=True)
        printed.append(run.stdout)
    assert printed[0] == printed[1]
