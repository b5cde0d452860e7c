"""End-to-end command-line tests, fully offline.

Matrices come from local .mtx files or a pre-warmed cache directory; the
only test that exercises a cache miss replaces the download with a 404 and
asserts the failure path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrmf
import mrmf.cli
import mrmf.data
from mrmf import SquareMatrix, gen_mixed_matrix, parse_matrix_market, write_matrix_market
from mrmf.bench import (
    BENCH_METHODS,
    RUN_CSV_HEADER,
    SweepConfig,
    compression_error,
    derive_seed,
    load_sweep_config,
    run_decay_sweep,
    run_rank_sweep,
    run_sweep,
    sweep_csv,
    sweep_json,
)
from mrmf.cli import main
from mrmf.data import MatrixNotFoundError
from mrmf.storage import StorageBudget, minimum_storage


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    S = rng.standard_normal((16, 16))
    A = SquareMatrix.from_dense(S + S.T)
    cache = tmp / "cache"
    (cache / "Test").mkdir(parents=True)
    mtx = cache / "Test" / "tiny.mtx"
    mtx.write_bytes(write_matrix_market(A))
    manifest = tmp / "manifest.txt"
    manifest.write_text("Test/tiny\n")
    return tmp, cache, manifest, mtx


def test_fetch_warm_cache(cli_env, capsys):
    tmp, cache, manifest, _ = cli_env
    rc = main(["fetch", str(manifest), "--cache-dir", str(cache)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("ok Test/tiny: n=16 nnz=256 sym=1.000")
    assert "kind=?" in out


def test_fetch_missing_matrix_fails(cli_env, capsys, monkeypatch):
    tmp, cache, _, _ = cli_env

    def not_found(url, timeout=60.0):
        raise MatrixNotFoundError(f"no such matrix in the collection: {url}")

    monkeypatch.setattr(mrmf.data, "_default_http_get", not_found)
    manifest = tmp / "missing.txt"
    manifest.write_text("Missing/gone\n")
    rc = main(["fetch", str(manifest), "--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL Missing/gone:" in captured.err


def test_factor_local_mtx_with_report(cli_env, capsys):
    tmp, cache, _, mtx = cli_env
    out = tmp / "report.json"
    rc = main([
        "factor", "--matrix", str(mtx), "--method", "direct-greedytopn",
        "--fraction", "0.3", "--seed", "0", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert stdout.startswith("direct-greedytopn @ 0.3: error=0.")
    assert f"wrote {out}" in stdout

    report = json.loads(out.read_text())
    assert sorted(report) == [
        "accounting", "budget_scalars", "error", "fraction",
        "matrix", "method", "size_param", "storage_scalars",
    ]
    assert sorted(report["matrix"]) == [
        "group", "kind", "n", "name", "nnz", "numerical_symmetry", "source",
    ]
    assert report["matrix"]["source"] == str(mtx)
    assert report["matrix"]["group"] == ""  # a bare file has no collection identity
    assert report["matrix"]["n"] == 16
    assert report["storage_scalars"] <= report["budget_scalars"]

    # the report is a pure function of (matrix, method, fraction, seed)
    A, _ = parse_matrix_market(mtx.read_bytes())
    scalars = StorageBudget(0.3).scalars(A)
    seed = derive_seed(0, "/", "direct", 0)  # the direct route's trial 0
    err, storage, param = compression_error(A, "direct-greedytopn", scalars, seed)
    assert report["error"] == err
    assert report["storage_scalars"] == storage
    assert report["size_param"] == param
    assert report["budget_scalars"] == scalars


def test_factor_from_cache_by_name(cli_env, capsys):
    tmp, cache, _, _ = cli_env
    rc = main([
        "factor", "--matrix", "Test/tiny", "--method", "cur",
        "--fraction", "0.25", "--cache-dir", str(cache),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("cur @ 0.25: error=")


def test_factor_strips_group_and_name_as_the_manifest_does(cli_env, capsys, tmp_path,
                                                            monkeypatch):
    _, cache, _, _ = cli_env

    def no_download(url, timeout=60.0):
        pytest.fail(f"a cached matrix reached the download: {url}")

    monkeypatch.setattr(mrmf.data, "_default_http_get", no_download)
    reports = []
    for spec in ("Test/tiny", " Test / tiny"):
        out = tmp_path / "report.json"
        rc = main(["factor", "--matrix", spec, "--method", "cur", "--fraction", "0.3",
                   "--seed", "4", "--cache-dir", str(cache), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["matrix"].pop("source") == spec
        reports.append(report)
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert reports[0]["matrix"]["group"] == "Test"
    assert reports[0]["matrix"]["name"] == "tiny"


def test_factor_seeds_by_matrix_identity_not_path(tmp_path, capsys):
    # one file at two paths is one matrix: one seed, one report
    m = np.random.default_rng(2).standard_normal((24, 24))
    text = write_matrix_market(SquareMatrix.from_dense(m))
    reports = []
    for sub in ("a", "b/c"):
        mtx = tmp_path / sub / "copy.mtx"
        mtx.parent.mkdir(parents=True)
        mtx.write_bytes(text)
        out = tmp_path / sub / "report.json"
        rc = main([
            "factor", "--matrix", str(mtx), "--method", "additive",
            "--fraction", "0.3", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["matrix"].pop("source") == str(mtx)
        reports.append(report)
    capsys.readouterr()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("method", BENCH_METHODS)
def test_factor_by_name_repeats_the_sweeps_first_trial(cli_env, capsys, tmp_path, method):
    _, cache, manifest, _ = cli_env
    config = SweepConfig(
        manifest=str(manifest), methods=(method,), fractions=(0.3,), trials=2, seed=4,
        output=str(tmp_path / "sweep.csv"), cache_dir=str(cache), max_workers=1,
    )
    (row,) = [r for r in run_sweep(config).rows if r["trial"] == 0]
    out = tmp_path / "report.json"
    rc = main([
        "factor", "--matrix", "Test/tiny", "--method", method, "--fraction", "0.3",
        "--seed", "4", "--cache-dir", str(cache), "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["budget_scalars"] == row["budget"]
    assert report["error"] == row["error"]
    assert report["storage_scalars"] == row["storage"]
    assert report["size_param"] == row["param"]


def test_factor_equals_trial_zero_of_a_sweep_of_every_method(tmp_path, capsys):
    # in the sweep, the direct methods share one sweep and the additive
    # fractions one per half; factor runs each alone, at the route's seed
    cache = tmp_path / "cache"
    (cache / "Test").mkdir(parents=True)
    m = np.random.default_rng(3).standard_normal((20, 20))
    (cache / "Test" / "general.mtx").write_bytes(write_matrix_market(SquareMatrix.from_dense(m)))
    (tmp_path / "manifest.txt").write_text("Test/general\n")
    fractions = (0.4, 0.7)
    config = SweepConfig(
        manifest=str(tmp_path / "manifest.txt"), methods=BENCH_METHODS, fractions=fractions,
        trials=2, seed=6, output=str(tmp_path / "sweep.csv"), cache_dir=str(cache),
        max_workers=2,
    )
    result = run_sweep(config)
    assert result.failures == ()
    rows = {(r["method"], r["fraction"]): r for r in result.rows if r["trial"] == 0}
    assert len(rows) == len(BENCH_METHODS) * len(fractions)
    for (method, fraction), row in rows.items():
        out = tmp_path / f"{method}-{fraction}.json"
        rc = main([
            "factor", "--matrix", "Test/general", "--method", method,
            "--fraction", repr(fraction), "--seed", "6", "--cache-dir", str(cache),
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        got = (report["budget_scalars"], report["storage_scalars"], report["size_param"],
               report["error"])
        assert got == (row["budget"], row["storage"], row["param"], row["error"]), method
    capsys.readouterr()


@pytest.mark.parametrize("fraction, scalars", [(0.1, 26), (0.3, 77)])
def test_hybrid_budget_too_small_names_hybrid(cli_env, capsys, fraction, scalars):
    # 26 scalars is below CUR's minimum at n=16, 77 between it and hybrid's
    _, _, _, mtx = cli_env
    assert minimum_storage(16, "cur") == 35 and minimum_storage(16, "hybrid") == 132
    rc = main([
        "factor", "--matrix", str(mtx), "--method", "hybrid",
        "--fraction", str(fraction), "--accounting", "dense",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        f"error: budget of {scalars} scalars is below the minimum footprint of hybrid at n=16\n"
    )


def test_factor_missing_file_is_usage_error(cli_env, capsys):
    tmp, _, _, _ = cli_env
    rc = main([
        "factor", "--matrix", str(tmp / "nope.mtx"),
        "--method", "cur", "--fraction", "0.25",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")


def test_factor_corrupt_cache_entry_exits_1(tmp_path, capsys):
    cached = tmp_path / "Bad" / "junk.mtx"
    cached.parent.mkdir()
    cached.write_bytes(b"garbage\n")
    rc = main([
        "factor", "--matrix", "Bad/junk", "--method", "cur",
        "--fraction", "0.25", "--cache-dir", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "corrupt cache entry" in captured.err
    assert (tmp_path / "Bad" / "junk.mtx.corrupt").exists()


def test_factor_bad_matrix_spec(cli_env, capsys):
    rc = main(["factor", "--matrix", "tiny", "--method", "cur", "--fraction", "0.25"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "expected group/name" in captured.err


@pytest.mark.parametrize("spec", ["Test/", "/tiny", " /tiny"])
def test_factor_empty_group_or_name_is_usage_error(cli_env, capsys, monkeypatch, spec):
    _, cache, _, _ = cli_env

    def no_download(url, timeout=60.0):
        pytest.fail(f"an empty group or name reached the download: {url}")

    monkeypatch.setattr(mrmf.data, "_default_http_get", no_download)
    rc = main(["factor", "--matrix", spec, "--method", "cur", "--fraction", "0.25",
               "--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"expected group/name or a .mtx path, got {spec!r}" in captured.err


@pytest.mark.parametrize("spec", ["../notes", "./x", "g//tmp/x", "a/b/c", "a\\b/c"])
def test_factor_key_outside_the_cache_is_usage_error(capsys, monkeypatch, tmp_path, spec):
    # the files beside the cache are what those keys would have named
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cache").mkdir()
    for name in ("notes.mtx", "x.mtx"):
        (tmp_path / name).write_bytes(b"not a matrix market file\n")
    before = sorted(tmp_path.rglob("*"))

    def no_download(url, timeout=60.0):
        pytest.fail(f"a key outside the cache reached the download: {url}")

    monkeypatch.setattr(mrmf.data, "_default_http_get", no_download)
    rc = main(["factor", "--matrix", spec, "--method", "cur", "--fraction", "0.1",
               "--cache-dir", "cache"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"expected group/name or a .mtx path, got {spec!r}" in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "notes.mtx").read_bytes() == b"not a matrix market file\n"


@pytest.mark.parametrize("command", ["factor", "rankscan"])
def test_infinite_fraction_is_usage_error(cli_env, capsys, tmp_path, command):
    _, _, _, mtx = cli_env
    argv = {
        "factor": ["factor", "--matrix", str(mtx), "--method", "cur"],
        "rankscan": ["rankscan", "--r-list", "3", "--out", str(tmp_path / "rank.csv")],
    }[command]
    # 1e308 is finite, but its scalar budget is not
    for fraction, message in (("inf", "fraction must be finite and positive"),
                              ("1e308", "scalars is not finite")):
        rc = main(argv + ["--fraction", fraction])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err


def test_factor_unknown_method_rejected_by_parser(cli_env):
    _, _, _, mtx = cli_env
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--matrix", str(mtx), "--method", "svd", "--fraction", "0.25"])
    assert exc.value.code == 2


def test_decay_subcommand(cli_env, capsys, tmp_path):
    out = tmp_path / "decay.csv"
    rc = main([
        "decay", "--n", "60", "--t-list", "1,2", "--seed", "3", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "t=1 error=0." in stdout
    assert "t=2 error=0." in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,error"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows == run_decay_sweep(60, [1.0, 2.0], seed=3)


def test_rankscan_subcommand(cli_env, capsys, tmp_path):
    _, _, _, mtx = cli_env
    out = tmp_path / "rank.csv"
    rc = main([
        "rankscan", "--matrix", str(mtx), "--r-list", "3,16",
        "--fraction", "0.25", "--seed", "5", "--out", str(out),
    ])
    stdout = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert stdout[0].startswith("hybrid")
    assert stdout[1].startswith("hybrid")
    assert stdout[2].startswith("cur")
    assert stdout[3].startswith("mmf")
    assert stdout[4].startswith("best hybrid r=")
    lines = out.read_text().splitlines()
    assert lines[0] == "series,param,error"
    assert len(lines) == 2 + 2 + 1  # header + one row per r + two baselines
    A, _ = parse_matrix_market(mtx.read_bytes())
    rows = [(s, int(p), float(e)) for s, p, e in (line.split(",") for line in lines[1:])]
    assert rows == run_rank_sweep(A, [3, 16], fraction=0.25, seed=5)


def test_rankscan_defaults_to_mixed_matrix_and_prints_verdict(capsys, tmp_path):
    out = tmp_path / "rank.csv"
    rc = main(["rankscan", "--r-list", "6,9", "--seed", "1", "--out", str(out)])
    stdout = capsys.readouterr().out.splitlines()
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    want = run_rank_sweep(gen_mixed_matrix(), [6, 9], fraction=0.05, seed=1)
    assert [(s, int(p), float(e)) for s, p, e in rows] == want
    hybrid = {p: e for s, p, e in want if s == "hybrid"}
    best_r = min(hybrid, key=hybrid.get)
    gain = min(e for s, _, e in want if s != "hybrid") - hybrid[best_r]
    verb = "beats" if gain > 0 else "trails"
    assert stdout[4] == (f"best hybrid r={best_r}: error {hybrid[best_r]:.6f} "
                         f"({verb} both baselines by {abs(gain):.6f})")
    assert stdout[5] == f"wrote {out}"


def test_sweep_subcommand(cli_env, capsys, tmp_path):
    _, cache, manifest, _ = cli_env
    csv_out = tmp_path / "sweep.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"manifest = {manifest}\n"
        "methods = additive, cur\n"
        "fractions = 0.25\n"
        "trials = 1\n"
        "seed = 7\n"
        f"output = {csv_out}\n"
        f"cache_dir = {cache}\n"
        "max_workers = 1\n"
    )
    rc = main(["sweep", "--config", str(config), "--verbose"])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "loaded Test/tiny: n=16 nnz=256" in stdout
    assert "2 runs, 0 failures" in stdout
    assert "win rate of additive vs cur" in stdout
    assert f"wrote {csv_out} and {csv_out.with_suffix('.json')}" in stdout
    assert csv_out.read_text().splitlines()[0] == RUN_CSV_HEADER

    # the files hold the library's own renderings of the same sweep; only
    # the per-cell wall times differ between the two runs
    cfg = load_sweep_config(config)

    def no_net(url, timeout=60.0):
        raise AssertionError(f"sweep tried the network: {url}")

    again = run_sweep(cfg, http_get=no_net)
    assert csv_out.read_text() == sweep_csv(again)

    def timeless(text):
        payload = json.loads(text)
        for rep in payload["reports"]:
            rep["wall_time_s"] = 0.0
        return payload

    written = csv_out.with_suffix(".json").read_text()
    assert timeless(written) == timeless(sweep_json(again, cfg))


def test_sweep_with_corrupt_cache_entry_writes_outputs_and_exits_1(cli_env, capsys, tmp_path):
    _, _, _, mtx = cli_env
    cache = tmp_path / "cache"
    (cache / "Test").mkdir(parents=True)
    (cache / "Test" / "tiny.mtx").write_bytes(mtx.read_bytes())
    (cache / "Bad").mkdir()
    (cache / "Bad" / "junk.mtx").write_bytes(b"garbage\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("Test/tiny\nBad/junk\n")
    csv_out = tmp_path / "sweep.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"manifest = {manifest}\n"
        "methods = cur\n"
        "fractions = 0.25\n"
        "trials = 1\n"
        f"output = {csv_out}\n"
        f"cache_dir = {cache}\n"
        "max_workers = 1\n"
    )
    rc = main(["sweep", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "1 runs, 1 failures" in captured.out
    assert "FAIL Bad/junk load: corrupt cache entry" in captured.err
    assert (cache / "Bad" / "junk.mtx.corrupt").exists()
    assert not (cache / "Bad" / "junk.mtx").exists()
    lines = csv_out.read_text().splitlines()
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == 2
    report = json.loads(csv_out.with_suffix(".json").read_text())
    assert [(f["matrix"], f["stage"]) for f in report["failures"]] == [("Bad/junk", "load")]


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("manifest=m.txt\nbudget=3\n", "unknown config key"),
        ("manifest=m.txt\nmethods=cur,cur\nfractions=0.5\noutput=o.csv\n", "repeats an entry"),
    ],
)
def test_sweep_bad_config_is_usage_error(cli_env, capsys, tmp_path, body, fragment):
    config = tmp_path / "bad.cfg"
    config.write_text(body)
    rc = main(["sweep", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert fragment in captured.err


def test_sweep_unknown_accounting_is_refused_before_any_load(cli_env, capsys, tmp_path,
                                                             monkeypatch):
    _, cache, manifest, _ = cli_env
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"manifest = {manifest}\nmethods = cur\nfractions = 0.25\naccounting = bits\n"
        f"output = {tmp_path / 'sweep.csv'}\ncache_dir = {cache}\n"
    )

    def no_load(*args, **kwargs):
        pytest.fail("a sweep with an unknown accounting mode loaded a matrix")

    monkeypatch.setattr(mrmf.bench, "fetch_suitesparse", no_load)
    rc = main(["sweep", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown accounting mode 'bits'" in captured.err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("output,message", [
    ("", "output '' must name a file apart from its .json"),
    ("res.json", "output 'res.json' must name a file apart from its .json"),
    ("taken", "sweep output taken is a directory"),
    ("taken.csv", "sweep output taken.json is a directory"),
    ("notes.txt/res.csv", "sweep output notes.txt/res.csv lies under the file notes.txt"),
], ids=["empty", "json", "directory", "json-directory", "under-a-file"])
def test_sweep_output_is_checked_before_the_sweep_runs(cli_env, capsys, tmp_path, monkeypatch,
                                                       output, message):
    # a .json output would be overwritten by its own report, and a directory
    # or a file on the way would fail only after the whole sweep had run
    _, cache, manifest, _ = cli_env
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken.json").mkdir()
    (tmp_path / "notes.txt").write_text("notes\n")
    config = tmp_path / "sweep.cfg"
    config.write_text(f"manifest = {manifest}\nmethods = cur\nfractions = 0.25\n"
                      f"output = {output}\ncache_dir = {cache}\n")
    before = sorted(tmp_path.rglob("*"))

    def no_run(*args, **kwargs):
        pytest.fail("the sweep ran before its output was checked")

    monkeypatch.setattr(mrmf.cli, "run_sweep", no_run)
    rc = main(["sweep", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {message}" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out,message", [
    ("taken", "--out taken is a directory"),
    ("notes.txt/d.csv", "--out notes.txt/d.csv lies under the file notes.txt"),
], ids=["directory", "under-a-file"])
@pytest.mark.parametrize("command", ["decay", "rankscan", "factor"])
def test_out_is_checked_before_any_work(cli_env, capsys, tmp_path, monkeypatch, command, out,
                                        message):
    # found after the run, a bad --out would fail with none of the run's results shown
    _, _, _, mtx = cli_env
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "notes.txt").write_text("notes\n")
    before = sorted(tmp_path.rglob("*"))

    def no_work(*args, **kwargs):
        pytest.fail(f"{command} started work before its --out was checked")

    for name in ("run_decay_sweep", "run_rank_sweep", "gen_mixed_matrix", "_load_matrix"):
        monkeypatch.setattr(mrmf.cli, name, no_work)
    argv = {
        "decay": ["decay"],
        "rankscan": ["rankscan", "--r-list", "2"],
        "factor": ["factor", "--matrix", str(mtx), "--method", "cur", "--fraction", "0.5"],
    }[command]
    rc = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_factor_non_finite_entry_is_usage_error(capsys, tmp_path, value):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {value}\n")
    rc = main(["factor", "--matrix", str(path), "--method", "cur", "--fraction", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: matrix entries must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fetch", "sweep"])
def test_repeated_manifest_line_is_usage_error(cli_env, capsys, tmp_path, command):
    _, cache, _, _ = cli_env
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("Test/tiny\nTest/tiny\n")
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"manifest = {manifest}\nmethods = cur\nfractions = 0.25\n"
        f"output = {tmp_path / 'sweep.csv'}\ncache_dir = {cache}\n"
    )
    argv = {
        "fetch": ["fetch", str(manifest), "--cache-dir", str(cache)],
        "sweep": ["sweep", "--config", str(config)],
    }[command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{manifest}:2: 'Test/tiny' repeats line 1" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


def test_every_export_resolves_and_star_import_works():
    # a name left in __all__ after its definition is deleted breaks `import *`
    assert all(hasattr(mrmf, name) for name in mrmf.__all__)
    namespace = {}
    exec("from mrmf import *", namespace)
    assert set(mrmf.__all__) <= set(namespace)


@pytest.mark.parametrize("module", ["mrmf", "mrmf.cli"])
def test_import_leaves_scipy_unloaded(module):
    # start-up cost: scipy.sparse alone took longer to import than all of mrmf
    src = str(Path(mrmf.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
