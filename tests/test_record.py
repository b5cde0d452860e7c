"""benchmarks/record.py turns perfbench's output into BENCH_<workload>.json records.

The runs here are canned: subprocess.run is replaced, so no benchmark runs.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_recorder():
    path = ROOT / "benchmarks" / "record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(workload, seed, pass_s, **more_metrics):
    env = {"git_revision": None, "numpy": "2.4.6", "blas_threads": 2}
    report = {
        "workload": workload, "seed": seed, "trace": 0, "environment": env,
        "pass_walls_s": [pass_s, pass_s + 0.25],
        "detail": {"time_s.additive": {"value": 1.4, "unit": "s"},
                   "error.additive": {"value": 0.8135, "unit": "relative Frobenius"},
                   "error.direct-greedytopn": {"value": 0.4548, "unit": "relative Frobenius"}},
        "failures": [],
    }
    metrics = {"setup_s": 0.21, "pass_s": pass_s, "cpu_s": 3.47, "peak_rss_mb": 109.1,
               **more_metrics}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    return json.dumps({"report": report}) + "\n" + json.dumps(result) + "\n"


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    rec = _load_recorder()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(rec, "ROOT", tmp_path)
    monkeypatch.setattr(rec, "git_state", lambda: ("0123abcd", True))
    rec.commands = []
    rec.outputs = []

    def run(cmd, cwd, capture_output, text, timeout):
        assert timeout == rec.RUN_TIMEOUT_S
        rec.commands.append((cmd[1:], cwd))
        out = rec.outputs.pop(0)
        if isinstance(out, Exception):
            raise out
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(rec.subprocess, "run", run)
    return rec


def test_records_append_one_per_run(recorder, tmp_path):
    recorder.outputs = [_canned("sweep-n2000", 11, 1.5), _canned("sweep-n2000", 12, 1.6)]
    assert recorder.main(["--seed", "11", "--workload", "sweep-n2000"]) == 0
    assert recorder.main(["--seed", "12", "--workload", "sweep-n2000"]) == 0
    assert recorder.commands[0] == (
        ["perfbench/run.py", "--workload", "sweep-n2000", "--seed", "11",
         "--seconds", "30", "--trace", "0"], tmp_path)
    records = json.loads((tmp_path / "BENCH_sweep-n2000.json").read_text())
    assert [r["seed"] for r in records] == [11, 12]
    first = records[0]
    assert first["revision"] == "0123abcd" and first["dirty"] is True
    assert first["workload"] == "sweep-n2000"
    assert first["environment"]["blas_threads"] == 2
    assert first["end_to_end"] == {"setup_s": 0.21, "pass_s": 1.5, "cpu_s": 3.47,
                                   "peak_rss_mb": 109.1}
    assert first["pass_walls_s"] == [1.5, 1.75]
    assert first["errors"] == {"error.additive": 0.8135, "error.direct-greedytopn": 0.4548}
    assert (first["correct"], first["failed"]) == (True, 0)


def test_every_declared_workload_runs_by_default(recorder, tmp_path):
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    recorder.outputs = [_canned(w, 3, 1.0) for w in names]
    assert recorder.main(["--seed", "3"]) == 0
    assert [c[0][2] for c in recorder.commands] == names
    for w in names:
        assert len(json.loads((tmp_path / f"BENCH_{w}.json").read_text())) == 1


def test_every_declared_end_to_end_metric_is_recorded(recorder, tmp_path):
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    bench["end_to_end"].append({"name": "gc_s", "unit": "s", "better": "lower", "bound": 0.25})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    recorder.outputs = [_canned("ingest-mtx", 9, 1.0, gc_s=0.05, trace_s=0.5)]
    assert recorder.main(["--seed", "9", "--workload", "ingest-mtx"]) == 0
    record, = json.loads((tmp_path / "BENCH_ingest-mtx.json").read_text())
    assert record["end_to_end"] == {"setup_s": 0.21, "pass_s": 1.0, "cpu_s": 3.47,
                                    "peak_rss_mb": 109.1, "gc_s": 0.05}


def test_output_that_is_not_perfbenchs_is_not_recorded(recorder, tmp_path, capsys):
    recorder.outputs = ["Traceback (most recent call last):\n", _canned("ingest-mtx", 4, 1.0)]
    assert recorder.main(["--seed", "4", "--workload", "ingest-mtx"]) == 1
    assert recorder.main(["--seed", "5", "--workload", "ingest-mtx"]) == 1  # seed mismatch
    assert not (tmp_path / "BENCH_ingest-mtx.json").exists()
    assert "not recorded" in capsys.readouterr().err


def test_a_hung_run_is_not_recorded(recorder, tmp_path, capsys):
    hung = subprocess.TimeoutExpired(["perfbench/run.py"], recorder.RUN_TIMEOUT_S)
    recorder.outputs = [hung, _canned("suite-sparse", 6, 2.0)]
    assert recorder.main(["--seed", "6", "--workload", "sweep-n2000",
                          "--workload", "suite-sparse"]) == 1
    assert "sweep-n2000: not recorded" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_sweep-n2000.json").exists()
    assert len(json.loads((tmp_path / "BENCH_suite-sparse.json").read_text())) == 1


def test_an_interrupted_append_keeps_the_old_records(recorder, tmp_path, monkeypatch):
    recorder.outputs = [_canned("ingest-mtx", 7, 1.0), _canned("ingest-mtx", 8, 1.0)]
    assert recorder.main(["--seed", "7", "--workload", "ingest-mtx"]) == 0
    path = tmp_path / "BENCH_ingest-mtx.json"
    before = path.read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(recorder.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        recorder.main(["--seed", "8", "--workload", "ingest-mtx"])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", path.name]
