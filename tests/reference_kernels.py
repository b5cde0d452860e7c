"""Loop-per-level sweep and reconstruction kernels, kept only as a test reference.

These are the sweep and reconstruction routines as they stood before the
shared level kernel and the current reconstruction replaced them in
``mrmf.jacobi``. tests/test_kernels.py requires the package's kernels to
reproduce them: bit for bit for the sweeps and the direct reconstruction,
within rounding for the conjugation reconstruction. They record each
rotation as its own (i, j, theta) tuple, independent of the package's
stored form, and both sweeps return the package's one state shape.
"""

from __future__ import annotations

import math

import numpy as np

from mrmf.cores import CoreSparse
from mrmf.matrices import givens_from_gram2


def givens_matrix(n, i, j, theta):
    """The n x n rotation G on (i, j): G[i,i] = G[j,j] = cos(theta),
    G[i,j] = -sin(theta), G[j,i] = sin(theta), the identity elsewhere."""
    g = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def rotate_rows_inplace(a, i, j, theta):
    """a <- G^T a for the rotation G on (i, j); touches only rows i and j."""
    c, s = math.cos(theta), math.sin(theta)
    ri = a[i].copy()
    a[i] = c * ri + s * a[j]
    a[j] = -s * ri + c * a[j]


def rotate_cols_inplace(a, i, j, theta):
    """a <- a G for the rotation G on (i, j); touches only columns i and j."""
    c, s = math.cos(theta), math.sin(theta)
    ci = a[:, i].copy()
    a[:, i] = c * ci + s * a[:, j]
    a[:, j] = -s * ci + c * a[:, j]


def _argmax_by_label(scores, labels, k):
    """Position of the max over scores[:k]; ties resolved by smallest label."""
    view = scores[:k]
    best = view.max()
    tied = np.flatnonzero(view == best)
    if tied.size == 1:
        return int(tied[0])
    return int(tied[np.argmin(labels[tied])])


def _pick_retire(pos_a, pos_b, mass_a, mass_b, labels):
    if mass_a < mass_b:
        return pos_a
    if mass_b < mass_a:
        return pos_b
    return pos_a if labels[pos_a] <= labels[pos_b] else pos_b


def _swap_rows(a, perm, p, q):
    if p != q:
        a[[p, q], :] = a[[q, p], :]
        perm[[p, q]] = perm[[q, p]]


def _swap_cols(a, perm, p, q):
    if p != q:
        a[:, [p, q]] = a[:, [q, p]]
        perm[[p, q]] = perm[[q, p]]


def conjugation_sweep(a, core_size, rng, parity=None, stops=(), at_stop=None):
    """Two-sided greedy sweep: a <- G^T a G per level, one retirement per level.

    parity is accepted for the package's signature and unused: the full
    product scores partners the same way for either half.

    Runs until core_size positions stay active (but never below one). Mutates
    `a` in place; on exit a holds the rotated matrix with rows and columns
    permuted identically by the returned label array. Nothing is deferred,
    so at each active size k in stops, before that level, the state so far
    goes to at_stop in the returned form, as it stands.

    Returns the two-basis state (rotations, rotations, perm, perm,
    retired_labels, retired_labels): one rotation list, label array and
    retired list serve both sides.
    """
    n = a.shape[0]
    perm = np.arange(n)
    k = n
    stop = max(core_size, 1)
    rotations = []
    retired = []
    while k > stop:
        if k in stops:
            done, gone = list(rotations), list(retired)
            at_stop(done, done, perm, perm, gone, gone)
        ip = int(rng.integers(k))
        sims = a[:k, :k] @ a[ip, :k]
        g_ii = float(sims[ip])
        sims[ip] = -np.inf
        jp = _argmax_by_label(sims, perm, k)
        g_ij = float(sims[jp])
        g_jj = float(a[jp, :k] @ a[jp, :k])
        theta = givens_from_gram2(g_ii, g_ij, g_jj)
        rotations.append((int(perm[ip]), int(perm[jp]), theta))
        rotate_rows_inplace(a, ip, jp, theta)
        rotate_cols_inplace(a, ip, jp, theta)
        # retire the pair member whose active row carries less off-diagonal mass
        mi = float(a[ip, :k] @ a[ip, :k]) - float(a[ip, ip]) ** 2
        mj = float(a[jp, :k] @ a[jp, :k]) - float(a[jp, jp]) ** 2
        tp = _pick_retire(ip, jp, mi, mj, perm)
        retired.append(int(perm[tp]))
        # rows and columns share one label array here, so swap it only once
        if tp != k - 1:
            a[[tp, k - 1], :] = a[[k - 1, tp], :]
            a[:, [tp, k - 1]] = a[:, [k - 1, tp]]
            perm[[tp, k - 1]] = perm[[k - 1, tp]]
        k -= 1
    return rotations, rotations, perm, perm, retired, retired


def two_basis_sweep(a, core_size, rng, stops=(), at_stop=None):
    """Independent left/right greedy sweep: a <- P^T a, a <- a Q per level.

    Runs n - core_size levels; each level rotates and retires one row, then
    one column (the column phase sees the already-shrunk row set). Mutates
    `a`; rows end permuted by row_perm and columns by col_perm. At each
    active size in stops, before that level, the state so far goes to
    at_stop in the returned form.

    Returns (left, right, row_perm, col_perm, row_retired, col_retired).
    """
    n = a.shape[0]
    row_perm = np.arange(n)
    col_perm = np.arange(n)
    kr = kc = n
    left, right = [], []
    row_retired, col_retired = [], []
    for _ in range(n - core_size):
        if kr in stops:
            at_stop(list(left), list(right), row_perm, col_perm,
                    list(row_retired), list(col_retired))
        # row phase: partner by row similarity over active columns
        ip = int(rng.integers(kr))
        sims = a[:kr, :kc] @ a[ip, :kc]
        g_ii = float(sims[ip])
        sims[ip] = -np.inf
        jp = _argmax_by_label(sims, row_perm, kr)
        g_ij = float(sims[jp])
        g_jj = float(a[jp, :kc] @ a[jp, :kc])
        theta = givens_from_gram2(g_ii, g_ij, g_jj)
        left.append((int(row_perm[ip]), int(row_perm[jp]), theta))
        rotate_rows_inplace(a, ip, jp, theta)
        mi = float(a[ip, :kc] @ a[ip, :kc])
        mj = float(a[jp, :kc] @ a[jp, :kc])
        tp = _pick_retire(ip, jp, mi, mj, row_perm)
        row_retired.append(int(row_perm[tp]))
        _swap_rows(a, row_perm, tp, kr - 1)
        kr -= 1
        # column phase: mirror image on the column Gram
        ipc = int(rng.integers(kc))
        simsc = a[:kr, :kc].T @ a[:kr, ipc]
        g_ii = float(simsc[ipc])
        simsc[ipc] = -np.inf
        jpc = _argmax_by_label(simsc, col_perm, kc)
        g_ij = float(simsc[jpc])
        g_jj = float(a[:kr, jpc] @ a[:kr, jpc])
        theta = givens_from_gram2(g_ii, g_ij, g_jj)
        right.append((int(col_perm[ipc]), int(col_perm[jpc]), theta))
        rotate_cols_inplace(a, ipc, jpc, theta)
        mi = float(a[:kr, ipc] @ a[:kr, ipc])
        mj = float(a[:kr, jpc] @ a[:kr, jpc])
        tpc = _pick_retire(ipc, jpc, mi, mj, col_perm)
        col_retired.append(int(col_perm[tpc]))
        _swap_cols(a, col_perm, tpc, kc - 1)
        kc -= 1
    return left, right, row_perm, col_perm, row_retired, col_retired


def _dense(h):
    return h.to_dense() if isinstance(h, CoreSparse) else h


def conjugate_reconstruct(h, rotations):
    """G_1 (... (G_L h G_L^T) ...) G_1^T for the recorded rotation order.

    h is a dense array or a stored cores.CoreSparse, densified on entry.
    """
    m = np.array(_dense(h), dtype=np.float64)
    for i, j, theta in reversed(rotations):
        rotate_rows_inplace(m, i, j, -theta)
        rotate_cols_inplace(m, i, j, -theta)
    return m


def two_basis_reconstruct(h, left, right):
    """P_1 ... P_L h Q_L^T ... Q_1^T for the recorded rotation orders.

    h is a dense array or a stored cores.CoreSparse, densified on entry.
    """
    m = np.array(_dense(h), dtype=np.float64)
    for i, j, theta in reversed(left):
        rotate_rows_inplace(m, i, j, -theta)
    for i, j, theta in reversed(right):
        rotate_cols_inplace(m, i, j, -theta)
    return m
