"""Release gate: ten end-to-end checks over the whole package.

Each test prints one `criterion N: PASS/FAIL` line (run with -s to see them
all) and asserts the same condition, so a failure carries the measured
numbers in its message. Criterion 9 runs against the pinned benchmark
manifest and skips when neither the local cache nor the collection host is
available; everything else is self-contained and fast.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mm_fixtures import FIXTURE_SUITE
from mrmf import (
    BudgetError,
    DecaySpec,
    Sparsifier,
    SquareMatrix,
    StorageBudget,
    cur_decompose,
    cur_relative_error,
    decay_values,
    factor_additive,
    factor_direct,
    factor_skew,
    factor_symmetric,
    fetch_suitesparse,
    frobenius_relative_error,
    gen_decay_matrix,
    gen_low_rank,
    gen_mixed_matrix,
    parse_matrix_market,
    write_matrix_market,
)
from mrmf.additive import reconstruct_additive
from mrmf.bench import (
    DECAY_CORE_SIZE,
    compression_error,
    derive_seed,
    load_manifest,
    run_decay_sweep,
    run_rank_sweep,
)
from mrmf.data import FetchError
from mrmf.direct import reconstruct

_REPO = Path(__file__).resolve().parents[1]


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _spread_matrix(n, seed, per_row=6):
    """Sparse nonsymmetric with heavy-tailed magnitudes (spiky spectra)."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    idx = rng.integers(0, n, size=(2, per_row * n))
    vals = rng.standard_normal(per_row * n)
    vals *= 1 + 9 * (rng.random(per_row * n) < 0.15)
    a[idx[0], idx[1]] = vals
    return SquareMatrix.from_dense(a)


@functools.lru_cache(maxsize=None)
def _roundtrip_runs():
    """Criterion 1 cohort: untruncated factorizations of 32x32 inputs."""
    runs = []
    for seed in range(5):
        M = np.random.default_rng(seed).standard_normal((32, 32))
        cases = [
            ("direct", SquareMatrix.from_dense(M)),
            ("symmetric", SquareMatrix.from_dense(M + M.T)),
            ("skew", SquareMatrix.from_dense(M - M.T)),
        ]
        for kind, A in cases:
            start = time.perf_counter()
            if kind == "direct":
                F = factor_direct(A, 4, Sparsifier("topn"), seed=seed, truncate=False)
                recon = reconstruct(F)
                rotseqs = [F.left, F.right]
            elif kind == "symmetric":
                F = factor_symmetric(A, 4, seed=seed, truncate=False)
                recon = reconstruct(F)
                rotseqs = [F.left]
            else:
                F = factor_skew(A, 4, seed=seed, truncate=False)
                recon = reconstruct(F)
                rotseqs = [F.left]
            elapsed = time.perf_counter() - start
            err = frobenius_relative_error(A, recon)
            runs.append({
                "label": f"{kind}/seed{seed}", "n": 32, "err": err,
                "elapsed": elapsed, "rotseqs": rotseqs,
            })
    return tuple(runs)


@functools.lru_cache(maxsize=None)
def _dropped_mass_runs():
    """Criterion 4 cohort: every method on 48x48 inputs, with mass accounts."""
    M = np.random.default_rng(11).standard_normal((48, 48))
    runs = []

    def pair_identity(A, make, recon, rotseqs):
        F = make(truncate=True)
        F_full = make(truncate=False)
        base2 = np.linalg.norm(A.to_dense()) ** 2
        dropped2 = np.linalg.norm(F_full.H.to_dense() - F.H.to_dense()) ** 2
        err2 = frobenius_relative_error(A, recon(F)) ** 2 * base2
        return abs(err2 - dropped2) / base2, rotseqs(F)

    A = SquareMatrix.from_dense(M + M.T)
    gap, seqs = pair_identity(
        A,
        lambda truncate: factor_symmetric(A, 6, seed=4, truncate=truncate),
        reconstruct,
        lambda F: [F.left],
    )
    runs.append({"label": "symmetric", "n": 48, "gap": gap, "rotseqs": seqs})

    K = SquareMatrix.from_dense(M - M.T)
    gap, seqs = pair_identity(
        K,
        lambda truncate: factor_skew(K, 4, seed=4, truncate=truncate),
        reconstruct,
        lambda F: [F.left],
    )
    runs.append({"label": "skew", "n": 48, "gap": gap, "rotseqs": seqs})

    G = SquareMatrix.from_dense(M)
    for kind in ("corediag", "topn", "greedytopn"):
        gap, seqs = pair_identity(
            G,
            lambda truncate: factor_direct(
                G, 6, Sparsifier(kind), seed=4, truncate=truncate
            ),
            reconstruct,
            lambda F: [F.left, F.right],
        )
        runs.append({"label": f"direct-{kind}", "n": 48, "gap": gap, "rotseqs": seqs})

    # additive: the halves are orthogonal, so dropped mass adds across them
    F = factor_additive(G, 900, seed=4)
    base2 = np.linalg.norm(M) ** 2
    err2 = frobenius_relative_error(G, reconstruct_additive(F)) ** 2 * base2
    dropped2 = (
        np.linalg.norm((M + M.T) / 2 - reconstruct(F.sym).to_dense()) ** 2
        + np.linalg.norm((M - M.T) / 2 - reconstruct(F.skew).to_dense()) ** 2
    )
    runs.append({
        "label": "additive", "n": 48, "gap": abs(err2 - dropped2) / base2,
        "rotseqs": [F.sym.left, F.skew.left],
    })
    return tuple(runs)


def test_01_lossless_roundtrip():
    runs = _roundtrip_runs()
    worst = max(r["err"] for r in runs)
    slowest = max(r["elapsed"] for r in runs)
    ok = worst <= 1e-10 and slowest < 1.0
    _verdict(
        1, ok,
        f"15 untruncated 32x32 factorizations, worst error {worst:.2e} "
        f"(<=1e-10), slowest {slowest * 1000:.0f} ms (<1 s)",
    )


def test_02_rotation_orthogonality():
    worst = 0.0
    count = 0
    for run in _roundtrip_runs() + _dropped_mass_runs():
        n = run["n"]
        for seq in run["rotseqs"]:
            Q = np.eye(n)
            for rot in seq:
                Q = rot.matrix() @ Q
            worst = max(worst, np.abs(Q.T @ Q - np.eye(n)).max())
            count += 1
    ok = worst <= 1e-11
    _verdict(2, ok, f"{count} rotation products, worst |QtQ-I| {worst:.2e} (<=1e-11)")


def test_03_skew_preservation():
    worst = 0.0

    def watch(M):
        nonlocal worst
        m = M if isinstance(M, np.ndarray) else M.to_dense()
        worst = max(worst, np.abs(m + m.T).max() / np.abs(m).max())

    for seed in range(5):
        M = np.random.default_rng(seed).standard_normal((64, 64))
        K = SquareMatrix.from_dense(M - M.T)
        factor_skew(K, 2, seed=seed, level_callback=watch)
    ok = worst <= 1e-11
    _verdict(
        3, ok,
        f"5 seeded 64x64 inputs, worst level |M+Mt|max/|M|max {worst:.2e} (<=1e-11)",
    )


def test_04_dropped_mass_identity():
    runs = _dropped_mass_runs()
    worst = max(r["gap"] for r in runs)
    ok = worst <= 1e-9
    _verdict(
        4, ok,
        f"{len(runs)} methods on 48x48, worst |err^2 - dropped^2|/|A|F^2 "
        f"{worst:.2e} (<=1e-9)",
    )


def test_05_sparsifier_ordering():
    violations = 0
    strict = 0
    for seed in range(10):
        A = _spread_matrix(64, 200 + seed)
        Fcd = factor_direct(A, 8, Sparsifier("corediag"), seed=seed)
        m = len(Fcd.H.offcore)  # equal off-core budgets for all three
        Ftn = factor_direct(A, 8, Sparsifier("topn", m=m), seed=seed)
        Fgr = factor_direct(A, 8, Sparsifier("greedytopn", m=m), seed=seed)
        assert Fcd.left == Ftn.left == Fgr.left  # shared rotation sequences
        assert Fcd.right == Ftn.right == Fgr.right
        e_cd = frobenius_relative_error(A, reconstruct(Fcd))
        e_tn = frobenius_relative_error(A, reconstruct(Ftn))
        e_gr = frobenius_relative_error(A, reconstruct(Fgr))
        violations += (e_tn > e_cd + 1e-12) + (e_tn > e_gr + 1e-12)
        strict += e_cd > e_tn + 1e-9
    ok = violations == 0
    _verdict(
        5, ok,
        f"10 seeded 64x64 inputs, {violations} ordering violations "
        f"(topn strictly ahead of corediag on {strict}/10)",
    )


def test_06_decay_trend():
    """Error falls as t grows and sits between a floor and a ceiling.

    Ceiling: ||b_t|| / ||1 - b_t||, which holds for any rotations as long
    as the truncation keeps every retired diagonal (see run_decay_sweep).
    Floor: the least error a truncation with no rotations can reach at
    this core size, i.e. the off-diagonal mass of A less its c(c-1)
    largest off-diagonal entries, all that a c x c core can hold. The
    greedy error must be at least 1% under the floor at every t, so the
    check measures the rotations and not only the generator.
    """
    n, t_list, seed = 200, [1.0, 2.0, 4.0, 6.0, 8.0, 10.0], 42
    start = time.perf_counter()
    rows = run_decay_sweep(n, t_list, seed=seed)
    elapsed = time.perf_counter() - start
    errs = [err for _, err in rows]
    ceilings, floors = [], []
    for t in t_list:
        one_minus_b = (1.0 - np.exp(t)) * decay_values(n, t)
        ceilings.append(
            np.linalg.norm(1.0 - one_minus_b) / np.linalg.norm(one_minus_b)
        )
        a = gen_decay_matrix(DecaySpec(n, t, seed)).to_dense()
        off = np.sort(((a - np.diag(np.diag(a))) ** 2).ravel())
        core_held = off[-DECAY_CORE_SIZE * (DECAY_CORE_SIZE - 1):].sum()
        floors.append(np.sqrt(off.sum() - core_held) / np.linalg.norm(a))
    above = sum(err > ceiling for err, ceiling in zip(errs, ceilings))
    near_floor = sum(err > 0.99 * floor for err, floor in zip(errs, floors))
    rises = [
        (errs[i + 1] - errs[i]) / errs[i]
        for i in range(len(errs) - 1)
        if errs[i + 1] > errs[i]
    ]
    trend_ok = len(rises) <= 1 and all(v <= 0.05 for v in rises)
    ratio = errs[0] / errs[-1]
    ok = (trend_ok and above == 0 and near_floor == 0 and ratio >= 2.0
          and elapsed < 60.0)
    _verdict(
        6, ok,
        f"errors over t=1..10: {[f'{e:.4f}' for e in errs]}, "
        f"ceilings {[f'{c:.3f}' for c in ceilings]} ({above} above), "
        f"no-rotation floors {[f'{f:.4f}' for f in floors]} "
        f"({near_floor} not >=1% under), "
        f"ratio t1/t10 = {ratio:.3f} (needs >=2), {len(rises)} adjacent "
        f"increases (needs <=1 of <=5%), {elapsed:.1f}s (<60s)",
    )


def test_07_cur_exactness():
    worst = 0.0
    for r in (3, 8):
        for seed in range(5):
            A = gen_low_rank(100, r, seed=seed)
            while np.linalg.matrix_rank(A.to_dense()) < r:  # resample degenerate
                seed += 1000
                A = gen_low_rank(100, r, seed=seed)
            best = min(
                cur_relative_error(A, cur_decompose(A, r, sampler_seed))
                for sampler_seed in range(4)
            )
            worst = max(worst, best)
    ok = worst <= 1e-8
    _verdict(
        7, ok,
        f"rank-r inputs at n=100, r in (3, 8), 5 seeds: worst error "
        f"{worst:.2e} (<=1e-8)",
    )


def test_08_hybrid_beats_both_baselines_somewhere():
    A = gen_mixed_matrix()
    rows = run_rank_sweep(A, [6, 9, 14, 22, 34, 50, 70, 90], fraction=0.05, seed=1)
    hybrid = {param: err for series, param, err in rows if series == "hybrid"}
    cur_err = next(err for series, _, err in rows if series == "cur")
    mmf_err = next(err for series, _, err in rows if series == "mmf")
    best_r = min(hybrid, key=hybrid.get)
    ok = hybrid[best_r] < min(cur_err, mmf_err) - 1e-12
    _verdict(
        8, ok,
        f"128x128 mixed-spectrum input at 5%: cur {cur_err:.6f}, "
        f"mmf {mmf_err:.6f}, best hybrid {hybrid[best_r]:.6f} at r={best_r}",
    )


def test_09_direct_wins_at_one_percent():
    start = time.perf_counter()
    manifest = _REPO / "benchmarks" / "manifest.txt"
    cache_dir = os.environ.get("MRMF_CACHE_DIR", str(_REPO / "benchmarks" / "cache"))
    entries = load_manifest(manifest)
    assert len(entries) == 6
    matrices = []
    for group, name in entries:
        try:
            A, meta = fetch_suitesparse(group, name, cache_dir)
        except (FetchError, OSError) as exc:
            pytest.skip(f"benchmark matrices unavailable ({group}/{name}: {exc})")
        assert meta.n <= 5000, f"{group}/{name} too large: n={meta.n}"
        assert meta.numerical_symmetry < 0.25, (
            f"{group}/{name} too symmetric: {meta.numerical_symmetry:.3f}"
        )
        matrices.append((f"{group}/{name}", A))

    greedy_wins = 0
    additive_wins = 0
    for label, A in matrices:
        scalars = StorageBudget(0.01, accounting="dense").scalars(A)
        means = {}
        for method in ("cur", "direct-greedytopn", "additive"):
            errs = []
            for trial in range(3):
                seed = derive_seed(0, label, method, "0.01", trial)
                try:
                    err, _, _ = compression_error(A, method, scalars, seed)
                except BudgetError:
                    errs = None  # cannot fit the budget: counts as no win
                    break
                errs.append(err)
            means[method] = None if errs is None else float(np.mean(errs))
        assert means["cur"] is not None and means["direct-greedytopn"] is not None
        if means["direct-greedytopn"] < means["cur"]:
            greedy_wins += 1
        if means["additive"] is not None and means["additive"] < means["cur"]:
            additive_wins += 1

    elapsed = time.perf_counter() - start
    ok = greedy_wins >= 4 and additive_wins <= 2 and elapsed < 600.0
    _verdict(
        9, ok,
        f"1% dense budget over 6 matrices, 3 trials: greedytopn beats cur on "
        f"{greedy_wins}/6 (needs >=4), additive on {additive_wins}/6 "
        f"(needs <=2), {elapsed:.0f}s (<600s)",
    )


def test_10_matrix_market_round_trip():
    assert len(FIXTURE_SUITE) == 20
    kinds = {fx.symmetry for fx in FIXTURE_SUITE}
    assert kinds == {"general", "symmetric", "skew-symmetric"}
    exact = 0
    for fx in FIXTURE_SUITE:
        A, meta = parse_matrix_market(fx.text)
        B, _ = parse_matrix_market(write_matrix_market(A))
        if np.array_equal(A.to_dense(), B.to_dense()) and B.nnz == A.nnz:
            exact += 1
    ok = exact == len(FIXTURE_SUITE)
    _verdict(10, ok, f"{exact}/{len(FIXTURE_SUITE)} fixtures round-trip value-exact")
