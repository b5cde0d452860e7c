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
from mrmf import SquareMatrix, bench

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
