"""The benchmark tracer's targets still exist and tracing changes no result.

perfbench/tracing.py wraps the library functions it names in TARGETS by
module and name. A rename or deletion there leaves a span unrecorded, so
these tests load the tracer read-only and check it against the package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mrmf
from mrmf import SquareMatrix, bench, write_matrix_market

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_target_exists(tracing):
    assert tracing.Tracer(mrmf).missing == []


def test_traced_runs_match_untraced(tracing):
    A = SquareMatrix.from_dense(np.random.default_rng(5).standard_normal((24, 24)))
    scalars = 360  # above the two-half additive minimum at n=24
    want = {m: bench.compression_error(A, m, scalars, 7) for m in bench.BENCH_METHODS}
    tracer = tracing.Tracer(mrmf)
    with tracer.installed():
        got = {m: bench.compression_error(A, m, scalars, 7) for m in bench.BENCH_METHODS}
    assert got == want
    names = {span.name for span in tracer.spans}
    assert {"bench.compression_error", "storage.solve", "cur.decompose"} <= names
    assert len([s for s in tracer.spans if s.name == "bench.compression_error"]) == len(want)


def test_traced_sweep_keeps_every_span(tracing, tmp_path):
    # a sweep that asks for 2 workers runs its items in the calling thread,
    # under bench.run; no span may go missing or end outside its parent
    rng = np.random.default_rng(6)
    (tmp_path / "cache" / "T").mkdir(parents=True)
    for name in ("a", "b"):
        A = SquareMatrix.from_dense(rng.standard_normal((20, 20)))
        (tmp_path / "cache" / "T" / f"{name}.mtx").write_bytes(write_matrix_market(A))
    (tmp_path / "manifest.txt").write_text("T/a\nT/b\n")
    config = bench.SweepConfig(
        manifest=str(tmp_path / "manifest.txt"), methods=("cur", "direct-topn", "additive"),
        fractions=(0.5,), trials=2, seed=3, output=str(tmp_path / "sweep.csv"),
        cache_dir=str(tmp_path / "cache"), max_workers=2,
    )

    def no_net(url):
        raise AssertionError(f"sweep tried the network: {url}")

    def timeless(result):
        return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in result.rows]

    want = bench.run_sweep(config, http_get=no_net)
    tracer = tracing.Tracer(mrmf)
    with tracer.installed():
        got = bench.run_sweep(config, http_get=no_net)
    assert got.failures == want.failures == ()
    assert timeless(got) == timeless(want)
    assert tracer.check({"bench.run", "bench.load", "bench.compression_error"}) == []
    runs = [s for s in tracer.spans if s.name == "bench.compression_error"]
    assert len(runs) == len(want.rows) == 12


def test_parsed_coo_runs_fire_the_workload_spans(tracing, workloads):
    # the span sets perfbench --trace 1 requires of sweep-n2000 (its two
    # methods) and suite-sparse (all six): a refactor that stops, say,
    # jacobi.reconstruct or matrices.error from firing fails here too
    rng = np.random.default_rng(8)
    text = workloads.mtx_text(24, *workloads.random_coo(rng, 24, 6 * 24))

    def run_all(methods):
        A, _ = mrmf.parse_matrix_market(text)
        assert A.is_sparse
        return {m: bench.compression_error(A, m, 360, 7) for m in methods}

    cur_spans = {"cur.decompose", "cur.error"}
    for methods, spans in ((workloads.SWEEP_METHODS, workloads.SWEEP_SPANS),
                           (bench.BENCH_METHODS, workloads.SWEEP_SPANS | cur_spans)):
        want = run_all(methods)
        tracer = tracing.Tracer(mrmf)
        with tracer.installed():
            got = run_all(methods)
        assert got == want
        assert tracer.check(spans) == []
