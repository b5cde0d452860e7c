"""End-to-end command-line tests, fully offline.

Matrices come from local .mtx files or a pre-warmed cache directory; the
only test that exercises a cache miss asserts the failure path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrmf
from mrmf import SquareMatrix, gen_mixed_matrix, parse_matrix_market, write_matrix_market
from mrmf.bench import RUN_CSV_HEADER, compression_error, derive_seed, run_rank_sweep
from mrmf.cli import main
from mrmf.storage import StorageBudget


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


def test_fetch_missing_matrix_fails(cli_env, capsys):
    tmp, cache, _, _ = cli_env
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
    assert report["matrix"]["source"] == str(mtx)
    assert report["matrix"]["group"] == ""  # a bare file has no collection identity
    assert report["matrix"]["n"] == 16
    assert report["storage_scalars"] <= report["budget_scalars"]

    # the report is a pure function of (matrix, method, fraction, seed)
    A, _ = parse_matrix_market(mtx.read_bytes())
    scalars = StorageBudget(0.3).scalars(A)
    seed = derive_seed(0, str(mtx), "direct-greedytopn", repr(0.3))
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
    assert len(lines) == 3


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
    assert csv_out.read_text().splitlines()[0] == RUN_CSV_HEADER
    json.loads(csv_out.with_suffix(".json").read_text())


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


def test_sweep_bad_config_is_usage_error(cli_env, capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("manifest=m.txt\nbudget=3\n")
    rc = main(["sweep", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown config key" in captured.err


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
