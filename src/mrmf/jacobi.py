"""Greedy Givens sweeps driving every factorization.

The working matrix keeps active rows/columns compacted into its leading
block: each retirement swaps the retired row/column with the last active one,
so every per-level Gram product runs on the leading rows x cols view. A
permutation array maps positions back to original labels; recorded rotations
always carry original labels. A sweep returns its rotations as one
matrices.ROTATION record array and its retired labels as an int64 array.

While the active block has more than _SUPPORT_FLOOR rows, a level whose
pivot row is sparse enough scores partners on that row's support only,
gathering those columns instead of reading the whole block. How sparse
depends on the memory the gather reads. The two-basis row phase gathers
strided columns a[:rows, nz], which cost far more per entry than the GEMV,
so it gathers below cols / _SUPPORT_RATIO nonzeros. The column phase (the
kernel on ``a.T``) and conjugation read contiguous rows a[nz, :rows]:
under conjugation the active block is symmetric (or skew) up to round-off,
so the support columns are read as rows (negated for a skew half). Those
gathers break even with the GEMV between densities 1/4 and 1/6 and gather
below cols / _ROW_SUPPORT_RATIO nonzeros. Zero terms add nothing, so the
scores are the full product's up to the summation order of the nonzero
terms, and rows with disjoint support still score exactly 0. Smaller
blocks always run the full product.

Both sweeps are one driver (_sweep) running one row-level kernel. On the
transposed view ``a.T`` a row rotation or swap is the column rotation or
swap of ``a``, with the same elementwise arithmetic, so the direct column
phase is the kernel on ``a.T`` and conjugation is the kernel that also
applies each row step to ``a.T``. Those column steps read strided memory,
so a level applies them to the active rows only, reads and writes each of
its two strided rows once through a contiguous copy with the swap folded
into the write (_level), and records them; the retired rows, which no
later level reads or writes, get them at the end of the sweep in one
blocked pass (_replay_tail), in level order and with the same arithmetic,
so the deferral changes no bit of the result. A sweep draws all its pivots
with one ``rng.integers(highs)`` call, one high per phase of each level,
the same stream as one scalar draw per phase, so a sweep to a smaller core
size repeats the levels of a shallower one and continues. A sweep can
therefore pause at larger core sizes (``stops``): there it replays the
tail so far in place, which no later level reads, and hands its caller
the state a sweep to that size returns, so one sweep serves every core
size of one seed. Both sweeps return one state shape, (left, right,
row_perm, col_perm, row_retired, col_retired); under conjugation each
right-hand field is the left-hand object itself.
"""

from __future__ import annotations

import math

import numpy as np

from .cores import CoreSparse
from .matrices import ROTATION, givens_from_gram2

# up to the floor a sweep stays bit for bit the full product's, so small
# inputs keep their outputs. The two-basis row phase gathers strided
# columns, which cost 15-44x the GEMV per entry (n = 2000 and 4000, one and
# two BLAS threads; at density 1/8 the gather still costs 1.6-7x the GEMV),
# so its ratio sits above that break-even. Conjugation and the column phase
# gather contiguous rows: at k = 2000 and two BLAS threads that costs 1.40x
# the GEMV at density 1/4, 0.92x at 1/6 and 0.75x at 1/8 (0.25x at k = 1000,
# one thread), so their ratio leaves a margin below the break-even
_SUPPORT_FLOOR = 512
_SUPPORT_RATIO = 48
_ROW_SUPPORT_RATIO = 8
# rows of the retired tail replayed per block: the transposed block copy
# holds at most n x _REPLAY_ROWS doubles
_REPLAY_ROWS = 512
# unit roundoff of float64, for _masses_ordered
_UNIT_ROUNDOFF = 2.0 ** -53
# side of the square tiles an in-place transpose swaps
_TILE = 128
# buffers of at most _WAVE_ROWS rows undo their rotations in waves of
# disjoint pairs, larger ones a rotation at a time. Over a whole
# two_basis_reconstruct of a sweep's rotations (one BLAS thread, best of 7;
# README gives the inputs), waves take 0.76-0.82 of the loop's time at
# n = 512, 0.77-1.01 at 768, 1.00-1.26 at 1024 and 1.58-1.77 at 2000
_WAVE_ROWS = 768
# pairs of a wave undone per gather: a batch holds 4 * _WAVE_PAIRS rows, and
# 40 pairs would lift a reconstruction at n = 512 above 1.5 n x n arrays
_WAVE_PAIRS = 32


def _argmax_by_label(scores, labels):
    """Position of the max score; ties resolved by smallest label."""
    best = scores.argmax()
    tied = (scores == scores[best]).nonzero()[0]
    if tied.size == 1:
        return int(best)
    return int(tied[np.argmin(labels[tied])])


def _pick_retire(pos_a, pos_b, mass_a, mass_b, labels):
    if mass_a < mass_b:
        return pos_a
    if mass_b < mass_a:
        return pos_b
    return pos_a if labels[pos_a] <= labels[pos_b] else pos_b


def _pivot_support(x, rows, strided):
    """Columns of the pivot row x to score on, or None for the full product.

    strided says whether the gather reads strided columns (_SUPPORT_RATIO)
    or contiguous rows (_ROW_SUPPORT_RATIO). The floor is tested first, so
    small blocks never scan x.
    """
    if rows <= _SUPPORT_FLOOR:
        return None
    nz = x.nonzero()[0]
    ratio = _SUPPORT_RATIO if strided else _ROW_SUPPORT_RATIO
    return nz if ratio * nz.size < x.size else None


def _row_gather(x, nz, a, rows, skew):
    """a[:rows, nz] @ x[nz] read as the contiguous rows a[nz, :rows] of a
    symmetric (skew: negated) active block."""
    sims = x[nz] @ a[nz, :rows]
    if skew:
        np.negative(sims, out=sims)
    return sims


def _rotate(p, q, c, s):
    """(p, q) <- (c p + s q, -s p + c q) in place; q is updated as c q - s p,
    which rounds exactly as -s p + c q does."""
    sp = s * p
    p *= c
    p += s * q
    q *= c
    q -= sp


def _swap(m, tp, last):
    row = m[tp].copy()
    m[tp] = m[last]
    m[last] = row


def _masses_ordered(mi, mj, k):
    """Whether every summation order of the k squares behind the computed
    masses mi and mj orders them as mi and mj do, and unequally.

    Any order sums k squares to within gamma_k = k u / (1 - k u) of the
    exact sum, plus k * 2^-1075 for squares that underflow. So when the
    smaller mass, widened by that bound on both sides, stays below the
    larger, no other order can swap or tie them. An infinite or NaN mass
    never decides.
    """
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    lo, hi = (mi, mj) if mi < mj else (mj, mi)
    # ((1 + gamma) / (1 - gamma))^2 < 1 + 8 gamma; the rest covers this
    # line's own roundings
    return lo * (1.0 + 10.0 * gamma) + k * 2.0 ** -1070 < hi < math.inf


def _level(a, rows, cols, ip, labels, parity=None, tail=None):
    """One greedy level on the leading rows x cols block of a.

    Pairs row ip with its most similar active row (ties go to the smaller
    label), rotates the pair to diagonalize their 2x2 Gram block, then
    retires the member with the smaller active-row mass (ties again to the
    smaller label) by swapping it, and its label, to position rows - 1.
    With parity False (symmetric) or True (skew) the level conjugates: the
    columns (the rows of ``a.T``) get the same rotation and swap, and the
    retirement mass leaves out the diagonal entry.

    The similarities are a[:rows, :cols] @ x for the pivot row x, or the
    product over x's support columns when _pivot_support returns them;
    those columns are strided in memory only when parity and tail are both
    None (the two-basis row phase).

    With a tail list, the side whose rows are strided in memory (``a``
    itself when parity is None, ``a.T`` under conjugation) is worked on
    its first cols entries only, and the level appends
    (cols, ip, jp, c, s, tp, last) for _replay_tail. That side's rows ip
    and jp are each read once into a contiguous copy and rotated there,
    and written back once with the swap folded in: the kept row gets its
    copy, row tp gets row last and row last the retired copy. So the
    retiree is picked before any strided write. Under conjugation the
    masses come from the contiguous rows, whose 2x2 block is first set
    from the copies. Otherwise they come from the copies, whose contiguous
    dots sum in another order than the strided rows' dots; where
    _masses_ordered cannot certify that the order leaves the comparison
    alone, the rotated rows are written back and their strided dots
    decide, as they would unfolded.

    Returns the rotation (labels[ip], labels[jp], theta), labelled before
    the swap; the retired label is then labels[rows - 1].
    """
    x = a[ip, :cols]
    nz = _pivot_support(x, rows, parity is None and tail is None)
    if nz is None:
        sims = a[:rows, :cols] @ x
    elif parity is None:
        sims = a[:rows, nz] @ x[nz]
    else:
        sims = _row_gather(x, nz, a, rows, parity)
    g_ii = float(sims[ip])
    sims[ip] = -np.inf
    jp = _argmax_by_label(sims, labels)
    y = a[jp, :cols]
    theta = givens_from_gram2(g_ii, float(sims[jp]), float(y @ y))
    rotation = (labels[ip], labels[jp], theta)
    c, s = math.cos(theta), math.sin(theta)
    last = rows - 1
    if tail is None:
        _rotate(a[ip], a[jp], c, s)
        tp = _pick_retire(ip, jp, float(x @ x), float(y @ y), labels)
        _swap(a, tp, last)
    else:
        if parity is not None:
            _rotate(a[ip], a[jp], c, s)
        m = a[:, :cols] if parity is None else a.T[:, :cols]
        p, q = m[ip].copy(), m[jp].copy()
        _rotate(p, q, c, s)
        if parity is None:
            mi, mj = float(p @ p), float(q @ q)
            if not _masses_ordered(mi, mj, cols):
                m[ip], m[jp] = p, q
                mi, mj = float(x @ x), float(y @ y)
        else:  # off-diagonal mass only
            a[ip, ip], a[jp, ip], a[ip, jp], a[jp, jp] = p[ip], p[jp], q[ip], q[jp]
            mi = float(x @ x) - float(p[ip]) ** 2
            mj = float(y @ y) - float(q[jp]) ** 2
        tp = _pick_retire(ip, jp, mi, mj, labels)
        kept, retired = (q, p) if tp == ip else (p, q)
        m[ip + jp - tp] = kept
        if tp != last:
            m[tp] = m[last]
        m[last] = retired
        if parity is not None:  # tp and last lie below cols: this commutes with m's swap
            _swap(a, tp, last)
        tail.append((cols, ip, jp, c, s, tp, last))
    labels[tp], labels[last] = labels[last], labels[tp]
    return rotation


def _replay_tail(a, tail):
    """Apply each deferred step of the sweep to the rows of a it skipped.

    A step (cols, ip, jp, c, s, tp, last) rotated columns ip and jp of a,
    then swapped columns tp and last, on rows [:cols] only. Rows [cols:]
    were retired by then and no later level reads or writes them, so each
    gets its steps here, in level order, with the same elementwise
    arithmetic. A step's columns lie below cols + 1, so a block of rows
    [r0, r1) needs only a[r0:r1, :r1]; it is worked on through a contiguous
    transposed copy of at most n x _REPLAY_ROWS entries, whose row x starts
    as column x of a. A step with r0 < cols reaches part of the block and
    is applied to it at once. cols falls along the tail, so the steps that
    reach the whole block come last; they move no data: their swaps
    permute the map from columns of a to rows of the copy, their rotations
    run in waves of disjoint pairs (_batches), and the copy goes back
    through the map, _TILE rows at a time.
    """
    if not tail:
        return
    n = a.shape[0]
    for r0 in range(tail[-1][0], n, _REPLAY_ROWS):
        r1 = min(r0 + _REPLAY_ROWS, n)
        block = a[r0:r1, :r1].T.copy()  # ascontiguousarray gives a view of one row
        row, whole = list(range(r1)), []
        for cols, ip, jp, c, s, tp, last in tail:
            if cols >= r1:
                continue
            if cols > r0:
                m = block[:, cols - r0:]
                _rotate(m[ip], m[jp], c, s)
                _swap(m, tp, last)
            else:
                whole.append((row[ip], row[jp], c, s))
                row[tp], row[last] = row[last], row[tp]
        if whole:
            _rotate_waves(block, _batches(*zip(*whole), r1))
        out = a[r0:r1, :r1]
        for t0 in range(0, r1, _TILE):
            out[:, t0:t0 + _TILE] = block[row[t0:t0 + _TILE]].T


def _retired(perm, levels):
    """Labels in retirement order: the level at active size k parks its
    retired label at position k - 1, which no later level touches."""
    return perm[::-1][:levels].copy()


def _sweep(a, stop, rng, parity, stops, at_stop):
    """Sweep a in place down to stop active positions. Each level is a row
    level on a, then a column level on a.T (parity None), or one
    conjugating level. Returns, and hands at_stop, the one state shape."""
    n = a.shape[0]
    sides = [([], np.arange(n)) for _ in range(1 if parity is not None else 2)]
    (left, row_perm), (right, col_perm) = sides[0], sides[-1]
    tail = []

    def state():
        _replay_tail(a, tail)
        tail.clear()
        done = [(np.array(rot, dtype=ROTATION), perm, _retired(perm, len(rot)))
                for rot, perm in sides]
        (lrot, rows, row_ret), (rrot, cols, col_ret) = done[0], done[-1]
        return lrot, rrot, rows, cols, row_ret, col_ret

    levels = np.arange(n, stop, -1)
    pivots = rng.integers(np.repeat(levels, len(sides))).reshape(-1, len(sides)).tolist()
    for k, ips in zip(levels.tolist(), pivots):
        if k in stops:
            at_stop(*state())
        if parity is None:
            left.append(_level(a, k, k, ips[0], row_perm))
            right.append(_level(a.T, k, k - 1, ips[1], col_perm, tail=tail))
        else:
            left.append(_level(a, k, k, ips[0], row_perm, parity=parity, tail=tail))
    return state()


def conjugation_sweep(a, core_size, rng, *, parity, stops=(), at_stop=None):
    """Two-sided greedy sweep: a <- G^T a G per level, one retirement per level.

    a is symmetric (parity False) or skew-symmetric (parity True); the
    caller checks it, and the sparse-support levels rely on it. Runs until
    core_size positions stay active (but never below one). Mutates `a` in
    place; rows and columns end permuted identically. stops, at_stop and
    the returned state are two_basis_sweep's, with right, col_perm and
    col_retired being left, row_perm and row_retired themselves.
    """
    return _sweep(a, max(core_size, 1), rng, parity, stops, at_stop)


def two_basis_sweep(a, core_size, rng, stops=(), at_stop=None):
    """Independent left/right greedy sweep: a <- P^T a, a <- a Q per level.

    Runs n - core_size levels; each level rotates and retires one row, then
    one column (the column phase sees the already-shrunk row set). Mutates
    `a`; rows end permuted by row_perm and columns by col_perm.

    stops holds core sizes in (core_size, n] to pause at on the way:
    before the level at a stop's active size, the sweep replays its
    deferred tail and calls at_stop with what a sweep to that core size
    returns, bit for bit, while a holds that sweep's matrix; the caller
    reads a and the label arrays during the call and keeps neither, since
    the sweep goes on mutating them.

    Returns (left, right, row_perm, col_perm, row_retired, col_retired).
    """
    return _sweep(a, core_size, rng, None, stops, at_stop)


def unpermute(a, row_perm, col_perm):
    """Map the compacted working matrix back to original coordinates."""
    out = np.empty_like(a)
    out[np.ix_(row_perm, col_perm)] = a
    return out


def _unrotate_rows(m, rotations):
    """m <- G_1 ... G_L m: each rotation, last first, undone on its two rows.

    Undoing G = (i, j, theta) is the row rotation by -theta, applied with
    _rotate, the sweep's own rotation step.
    """
    for i, j, theta in reversed(np.asarray(rotations, ROTATION).tolist()):
        _rotate(m[i], m[j], math.cos(-theta), math.sin(-theta))


def _batches(i, j, c, s, n):
    """Rotations (i, j, c, s), listed in the order they apply to rows of an
    n-row array, as batches (rows, c, s) of disjoint pairs.

    A rotation's wave is one past the latest wave of an earlier rotation
    sharing a row, so the pairs of a wave are disjoint and commute, and
    applying the waves in order applies the rotations in order. A wave is
    cut into batches of at most _WAVE_PAIRS pairs. rows stacks a batch's i
    over its j; c and s are columns.
    """
    latest, wave = [0] * n, []
    for p, q in zip(i, j):
        w = latest[p] if latest[p] > latest[q] else latest[q]
        latest[p] = latest[q] = w + 1
        wave.append(w)
    wave = np.array(wave, dtype=np.int64)
    order = np.argsort(wave, kind="stable")
    i, j = (np.array(v, dtype=np.int64)[order] for v in (i, j))
    c, s = (np.array(v, dtype=np.float64)[order, None] for v in (c, s))
    starts, end = [], 0
    for size in np.bincount(wave).tolist():
        starts.extend(range(end, end + size, _WAVE_PAIRS))
        end += size
    return [(np.concatenate((i[a:b], j[a:b])), c[a:b], s[a:b])
            for a, b in zip(starts, starts[1:] + [end])]


def _waves(rotations, n):
    """The rotations, last first, as the _batches that undo them: (i, j,
    theta) is undone with c, s = cos(-theta), sin(-theta), computed by math
    as _unrotate_rows computes them."""
    undo = np.asarray(rotations, ROTATION)[::-1]
    theta = (-undo["theta"]).tolist()
    return _batches(undo["i"].tolist(), undo["j"].tolist(),
                    list(map(math.cos, theta)), list(map(math.sin, theta)), n)


def _rotate_waves(m, batches):
    """Apply the _batches of some rotations to the rows of m, in order.

    Each batch gathers its rows [P; Q] once and gives every pair _rotate's
    arithmetic, P <- c P + s Q and Q <- Q c - s P, so every entry gets the
    bits that _rotate, one rotation at a time, gives it.
    """
    for rows, c, s in batches:
        g = m[rows]
        pq = g.reshape(2, len(c), -1)
        sqp = s * pq[::-1]  # s Q over s P
        pq *= c
        pq[0] += sqp[0]
        pq[1] -= sqp[1]
        m[rows] = g


def _transpose_in_place(m):
    """m <- m^T for a square array, by swapping _TILE x _TILE tiles.

    Pure data movement: no entry changes, and only one tile is copied at a
    time, so the transpose needs no second n x n array.
    """
    n = m.shape[0]
    for r0 in range(0, n, _TILE):
        r1 = min(r0 + _TILE, n)
        diag = m[r0:r1, r0:r1]
        diag[...] = diag.T.copy()
        for c0 in range(r1, n, _TILE):
            c1 = min(c0 + _TILE, n)
            upper = m[r0:r1, c0:c1].copy()
            m[r0:r1, c0:c1] = m[c0:c1, r0:r1].T
            m[c0:c1, r0:r1] = upper.T


def conjugate_reconstruct(h, rotations):
    """G_1 (... (G_L h G_L^T) ...) G_1^T for the recorded rotation order.

    h is a dense array or a stored core; see two_basis_reconstruct.
    """
    return two_basis_reconstruct(h, rotations, rotations)


def two_basis_reconstruct(h, left, right):
    """P_1 ... P_L h Q_L^T ... Q_1^T for the recorded rotation orders.

    Undoes the left rotations on the rows of h, then the right ones on its
    columns. h is a dense array, which is copied and left untouched, or a
    stored cores.CoreSparse, whose fresh dense form is the buffer. All the
    work runs in that one C-ordered buffer: the right rotations are undone
    on its rows after an in-place transpose, and its transposed view is
    returned. A buffer of at most _WAVE_ROWS rows undoes each side in
    _waves batches, scheduled once when right is left; a larger one
    rotation by rotation. Both give the same bits.
    """
    m = h.to_dense() if isinstance(h, CoreSparse) else np.array(h, dtype=np.float64, order="C")
    n = m.shape[0]
    if n > _WAVE_ROWS:
        undo, sides = _unrotate_rows, (left, right)
    else:
        waves = _waves(left, n)
        undo, sides = _rotate_waves, (waves, waves if right is left else _waves(right, n))
    undo(m, sides[0])
    _transpose_in_place(m)
    undo(m, sides[1])
    return m.T
