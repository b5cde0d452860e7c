"""Both sweeps hand over one state, and the benchmark's sweep spans count it.

A sweep returns, and hands at_stop, (left, right, row_perm, col_perm,
row_retired, col_retired); under conjugation each right-hand field is the
left-hand object itself. perfbench/tracing.py reads a sweep span's levels
attribute from result[0] (and result[1] for a two-basis sweep), so a
reordered state would corrupt its jacobi.levels figure. The tracer is
loaded read-only, as in test_trace_targets.py.
"""

import numpy as np
import pytest

import mrmf
from mrmf import jacobi
from mrmf.cores import Sparsifier
from mrmf.direct import factor_direct
from mrmf.matrices import SquareMatrix
from mrmf.skew import factor_skew
from mrmf.symmetric import factor_symmetric
from test_trace_targets import _load


def _general(n=40, seed=15):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)


@pytest.mark.parametrize("parity", (False, True))
def test_conjugation_state_is_one_side_twice(parity):
    a = _general()
    a = a - a.T if parity else a + a.T
    states = []

    def keep(*state):
        states.append(state)

    states.append(jacobi.conjugation_sweep(a, 3, np.random.default_rng(1), parity=parity,
                                           stops={30, 12}, at_stop=keep))
    assert [len(s[0]) for s in states] == [10, 28, 37]
    for state in states:
        assert len(state) == 6
        assert state[1] is state[0] and state[3] is state[2] and state[5] is state[4]


def test_sweep_spans_count_the_stored_rotations():
    tracing = _load("tracing")
    a = _general()
    runs = (
        ("jacobi.conjugation_sweep",
         lambda: factor_symmetric(SquareMatrix.from_dense(a + a.T), 6, seed=2)),
        ("jacobi.conjugation_sweep",
         lambda: factor_skew(SquareMatrix.from_dense(a - a.T), 6, seed=3)),
        ("jacobi.two_basis_sweep",
         lambda: factor_direct(SquareMatrix.from_dense(a), 6, Sparsifier("topn"), seed=4)),
    )
    for name, run in runs:
        tracer = tracing.Tracer(mrmf)
        with tracer.installed():
            F = run()
        sweeps = [s for s in tracer.spans if s.name.endswith("_sweep")]
        assert [s.name for s in sweeps] == [name]
        stored = len(F.left) if F.conjugate else len(F.left) + len(F.right)
        assert stored == (34 if F.conjugate else 68)
        assert sweeps[0].attrs["levels"] == stored
