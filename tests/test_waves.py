"""The wave path of the reconstruction gives the per-rotation loop's bits.

A buffer of at most jacobi._WAVE_ROWS rows undoes its rotations in waves of
disjoint pairs, a larger one a rotation at a time. Each test forces both
paths by setting _WAVE_ROWS and requires byte-equal results from
two_basis_reconstruct and conjugate_reconstruct, for rotation lists that
reuse rows heavily, a dense h in either memory order and a stored core.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmf import jacobi
from mrmf.cores import CoreSparse
from test_kernels import _spread

WAVES, LOOP = sys.maxsize, 0  # _WAVE_ROWS values that force each path


def _reconstructions(h, left, right, wave_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobi, "_WAVE_ROWS", wave_rows)
        return (jacobi.two_basis_reconstruct(h, left, right).tobytes(),
                jacobi.conjugate_reconstruct(h, left).tobytes())


def _same_on_both_paths(h, left, right):
    assert _reconstructions(h, left, right, WAVES) == _reconstructions(h, left, right, LOOP)


def _stored(h, seed):
    """h as a stored core: a dense block on random sets plus a few off-core entries."""
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    rows, cols = (np.sort(rng.permutation(n)[:max(n // 3, 1)]) for _ in range(2))
    outside = np.ones((n, n), dtype=bool)
    outside[np.ix_(rows, cols)] = False
    r, c = np.nonzero(outside)
    keep = rng.permutation(r.size)[:n]
    offcore = [(int(i), int(j), float(h[i, j])) for i, j in zip(r[keep], c[keep])]
    return CoreSparse(n, rows, cols, h[np.ix_(rows, cols)], offcore)


def _h_forms(n, seed):
    h = np.random.default_rng(seed).standard_normal((n, n))
    return h, np.asfortranarray(h), _stored(h, seed)


@st.composite
def _rotation_lists(draw):
    """(n, rotations): labels drawn from a few hot rows, or a chain of pairs
    that each share a row with the one before, so every wave holds one pair."""
    n = draw(st.sampled_from([2, 3, 17, 64]))
    thetas = st.floats(-math.pi, math.pi, allow_nan=False)
    if draw(st.booleans()):
        path = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
        pairs = list(zip(path, path[1:]))
    else:
        hot = draw(st.integers(2, min(n, 6)))
        label = st.integers(0, hot - 1) if draw(st.booleans()) else st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(label, label).filter(lambda p: p[0] != p[1]),
                              max_size=60))
    return n, [(i, j, draw(thetas)) for i, j in pairs]


@settings(max_examples=200, deadline=None)
@given(case=_rotation_lists(), seed=st.integers(0, 2**32 - 1))
def test_hypothesis_lists_agree_on_both_paths(case, seed):
    n, rotations = case
    right = rotations[::-1]
    for h in _h_forms(n, seed):
        _same_on_both_paths(h, rotations, right)


def test_chains_undo_one_pair_per_wave():
    n = 17
    chain = [(k, k + 1, 0.1 * k - 0.7) for k in range(n - 1)]
    assert [len(rows) for rows, _, _ in jacobi._waves(chain, n)] == [2] * (n - 1)
    for h in _h_forms(n, 3):
        _same_on_both_paths(h, chain, chain[::-1])


@pytest.mark.parametrize("n", [1, 2, 64])
def test_empty_and_single_rotation_lists(n):
    one = [(0, n - 1, 0.3)] if n > 1 else []
    for h in _h_forms(n, 4):
        _same_on_both_paths(h, [], [])
        _same_on_both_paths(h, one, [])
        _same_on_both_paths(h, [], one)
        dense = h.to_dense() if isinstance(h, CoreSparse) else h
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jacobi, "_WAVE_ROWS", WAVES)
            assert jacobi.two_basis_reconstruct(h, [], []).tobytes() == dense.tobytes()


@pytest.mark.parametrize("extra", [0, 1])
def test_waves_of_a_full_batch_and_one_more(extra):
    pairs = jacobi._WAVE_PAIRS + extra
    n = 2 * pairs + 3
    rng = np.random.default_rng(extra)
    labels = rng.permutation(n)
    disjoint = [(labels[2 * k], labels[2 * k + 1], rng.uniform(-3, 3)) for k in range(pairs)]
    batches = jacobi._waves(disjoint, n)
    assert [len(c) for _, c, _ in batches] == [jacobi._WAVE_PAIRS] + [1] * extra
    # a second wave: each of its pairs shares a row with the first wave
    rotations = [(labels[2 * k + 1], labels[2 * k + 2], 0.25) for k in range(pairs)] + disjoint
    assert len(jacobi._waves(rotations, n)) == 2 * (1 + extra)
    for h in _h_forms(n, 5 + extra):
        _same_on_both_paths(h, rotations, disjoint)


@pytest.mark.parametrize("offset", [0, 1])
def test_the_size_selects_the_path_at_the_boundary(offset, monkeypatch):
    n = jacobi._WAVE_ROWS + offset
    a = _spread(n, 40)
    left, right = jacobi.two_basis_sweep(a, n - 48, np.random.default_rng(6))[:2]
    waved = []
    unrotate = jacobi._rotate_waves

    def spy(m, batches):
        waved.append(len(batches))
        unrotate(m, batches)

    monkeypatch.setattr(jacobi, "_rotate_waves", spy)
    default = (jacobi.two_basis_reconstruct(a, left, right).tobytes(),
               jacobi.conjugate_reconstruct(a, left).tobytes())
    assert bool(waved) == (offset == 0)
    assert default == _reconstructions(a, left, right, WAVES)
    assert default == _reconstructions(a, left, right, LOOP)
