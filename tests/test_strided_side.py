"""The strided side of a sweep level: contiguous copies and certified masses.

jacobi._level rotates the strided rows ip and jp of its strided side in
contiguous copies and writes them back once, with the retirement swap
folded in. In the direct column phase it picks the retiree from the
copies' masses, whose contiguous dots sum in another order than the
strided rows' dots, only where jacobi._masses_ordered certifies that every
summation order of the same squares orders them alike; elsewhere the
strided dots decide. These tests check the certification against four
summation orders, and that the fallback gives the reference sweeps' bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from mrmf import jacobi
from test_kernels import INPUTS, _rotation_bytes


def _masses(v, big):
    """v's sum of squares by four orders: a strided column of the square
    array big, a contiguous BLAS dot, einsum and an exact sum of the squares."""
    col = big[: v.size, -1]
    col[...] = v
    return (float(col @ col), float(v @ v), float(np.einsum("i,i->", v, v)),
            math.fsum((v * v).tolist()))


@st.composite
def _pairs(draw):
    """A vector of length 1-600 at scales 2^-40..2^40 and a partner of the
    same length: an equal or permuted copy, 1-ulp perturbations, the vector
    scaled across the certification's threshold, or an unrelated vector."""
    k = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = 2.0 ** draw(st.integers(-40, 40))
    else:
        scale = 2.0 ** rng.integers(-40, 41, size=k)
    v = rng.standard_normal(k) * scale
    kind = draw(st.sampled_from(("equal", "permuted", "ulp", "ulps", "scaled", "other")))
    if kind == "equal":
        w = v.copy()
    elif kind == "permuted":
        w = rng.permutation(v)
    elif kind == "ulp":
        w = v.copy()
        i = rng.integers(k)
        w[i] = np.nextafter(w[i], draw(st.sampled_from((-np.inf, np.inf))))
    elif kind == "ulps":
        w = np.nextafter(v, np.where(rng.random(k) < 0.5, -np.inf, np.inf))
    elif kind == "scaled":  # relative steps around the bound's 10 gamma_k
        w = v * (1.0 + draw(st.integers(-40, 40)) * k * 2.0**-53)
    else:
        w = rng.standard_normal(k) * scale
    return v, w


@settings(max_examples=400, deadline=None)
@given(_pairs())
def test_certified_masses_order_alike_in_every_summation(pair):
    v, w = pair
    k = v.size
    mi, mj = float(v @ v), float(w @ w)  # as _level sums its contiguous copies
    if not jacobi._masses_ordered(mi, mj, k):
        return
    big = np.zeros((k + 1, k + 1))
    for a, b in zip(_masses(v, big), _masses(w, big)):
        assert a != b and (a < b) == (mi < mj)


def test_certification_decides_clear_gaps_only():
    v = np.arange(1.0, 301.0)
    m = float(v @ v)
    assert jacobi._masses_ordered(m, 2 * m, v.size)
    assert jacobi._masses_ordered(2 * m, m, v.size)
    assert jacobi._masses_ordered(0.0, 1e-300, v.size)
    assert not jacobi._masses_ordered(m, m, v.size)
    assert not jacobi._masses_ordered(0.0, 0.0, v.size)
    assert not jacobi._masses_ordered(m, np.nextafter(m, np.inf), v.size)
    assert not jacobi._masses_ordered(math.nan, m, v.size)
    assert not jacobi._masses_ordered(m, math.inf, v.size)  # inf widened is inf


def _count_decisions(monkeypatch, decide=None):
    """Wrap _masses_ordered, or replace it by decide; count its answers."""
    answers = []
    certify = decide or jacobi._masses_ordered

    def counted(mi, mj, k):
        answers.append(certify(mi, mj, k))
        return answers[-1]

    monkeypatch.setattr(jacobi, "_masses_ordered", counted)
    return answers


def _two_basis_matches_reference(a, d):
    new, old = a.copy(), a.copy()
    got = jacobi.two_basis_sweep(new, d, np.random.default_rng(d))
    want = ref.two_basis_sweep(old, d, np.random.default_rng(d))
    assert _rotation_bytes(got[0]) == _rotation_bytes(want[0])
    assert _rotation_bytes(got[1]) == _rotation_bytes(want[1])
    for g, w in zip(got[2:], want[2:]):
        assert np.array_equal(g, w)
    assert new.tobytes() == old.tobytes()


def _tied_columns():
    """Zero columns and pairs of equal columns, which row steps keep equal:
    their column pairs have equal masses before the rotation."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((48, 48)) * (rng.random((48, 48)) < 0.3)
    a[:, 1::4] = 0.0
    a[:, 2::4] = a[:, 3::4]
    return a


CASES = {**INPUTS, "tiedcols48": _tied_columns}


@pytest.mark.parametrize("name", sorted(CASES))
def test_strided_fallback_matches_reference(name, monkeypatch):
    # every column-phase level writes its copies back and takes the strided dots
    answers = _count_decisions(monkeypatch, lambda mi, mj, k: False)
    a = CASES[name]()
    n = a.shape[0]
    for d in (1, n // 10, n - 1, n):
        _two_basis_matches_reference(a, d)
    assert answers and not any(answers)


def test_tied_masses_fall_back_and_match_reference(monkeypatch):
    # the copies' dots cannot order a pair of equal masses; distinct
    # columns give certified levels
    answers = _count_decisions(monkeypatch)
    for d in (1, 12):
        _two_basis_matches_reference(_tied_columns(), d)
    assert any(answers) and not all(answers)
