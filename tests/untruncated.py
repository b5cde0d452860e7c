"""Untruncated factorizations: the cut that keeps every entry of H."""

from mrmf.cores import TOP_N, Sparsifier
from mrmf.direct import kept_by, shaped_like, sizes_of, sweep_and_truncate


def untruncated(A, core_size, seed, parity=None):
    """The route's sweep of A (parity as sweep_and_truncate takes it), with H
    kept whole: a tuple of core sizes gives a tuple, from one sweep."""
    keep_all = kept_by(Sparsifier(TOP_N, m=A.n * A.n))
    cuts = [(d, keep_all) for d in sizes_of(core_size)]
    return shaped_like(core_size, sweep_and_truncate(A, cuts, seed, parity))
