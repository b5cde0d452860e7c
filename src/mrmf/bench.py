"""Benchmark harness: compression sweeps, win tables, decay and rank scans.

Every run is seeded by hashing a stable key string, so a sweep is
reproducible item-by-item regardless of worker scheduling, and rerunning a
config at the same BLAS thread count yields byte-identical CSV (the thread
count changes the BLAS reduction order, and with it the last bits of the
rotation angles and errors). Reported storage is checked against the
budget on every run — a factorization that overshoots its budget is a bug,
not a data point.
"""

from __future__ import annotations

import csv
import io
import json
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .additive import factor_additive, reconstruct_additive
from .cores import Sparsifier
from .cur import cur_decompose, cur_relative_error, cur_storage, hybrid_compress
from .data import DecaySpec, MatrixMetadata, fetch_suitesparse, gen_decay_matrix
from .direct import factor_direct, reconstruct
from .matrices import frobenius_relative_error
from .storage import SPARSE_COO, StorageBudget, solve_core_size
from .symmetric import factor_symmetric

BENCH_METHODS = (
    "additive",
    "direct-corediag",
    "direct-topn",
    "direct-greedytopn",
    "cur",
    "hybrid",
)

DECAY_CORE_SIZE = 10  # pinned budget for the decay sweep (deep factorization)

RUN_CSV_HEADER = (
    "group,name,kind,n,nnz,method,fraction,trial,seed,param,storage,budget,error"
)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep recipe: which matrices, methods, budgets, and how many trials."""

    manifest: str
    methods: tuple
    fractions: tuple
    trials: int
    seed: int
    output: str
    accounting: str = SPARSE_COO
    cache_dir: str = "cache"
    max_workers: int = 4

    def __post_init__(self):
        if not self.methods:
            raise ValueError("methods list is empty")
        if not self.fractions:
            raise ValueError("fractions list is empty")
        for m in self.methods:
            if m not in BENCH_METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {BENCH_METHODS})")
        for f in self.fractions:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fraction {f} outside (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")


@dataclass(frozen=True)
class CompressionReport:
    """Trial-averaged error of one (matrix, method, fraction) cell."""

    matrix: MatrixMetadata
    method: str
    fraction: float
    trials: int
    mean_error: float
    std_error: float
    wall_time_s: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.mean_error < 0.0 or self.std_error < 0.0:
            raise ValueError("error statistics must be nonnegative")


@dataclass(frozen=True)
class SweepResult:
    reports: tuple
    rows: tuple  # per-run CSV row dicts, deterministic order
    failures: tuple
    win_tables: dict


def derive_seed(base_seed, *parts):
    """Stable uint32 seed from a base seed and a run's identifying parts."""
    key = "|".join([str(int(base_seed))] + [str(p) for p in parts])
    return zlib.crc32(key.encode("ascii"))


def load_sweep_config(path):
    """Parse a line-oriented key=value sweep config file."""
    known = {
        "manifest", "methods", "fractions", "trials", "seed",
        "output", "accounting", "cache_dir", "max_workers",
    }
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()
    missing = {"manifest", "methods", "fractions", "output"} - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing required keys {sorted(missing)}")
    return SweepConfig(
        manifest=raw["manifest"],
        methods=tuple(m.strip() for m in raw["methods"].split(",") if m.strip()),
        fractions=tuple(float(f) for f in raw["fractions"].split(",") if f.strip()),
        trials=int(raw.get("trials", "3")),
        seed=int(raw.get("seed", "0")),
        output=raw["output"],
        accounting=raw.get("accounting", SPARSE_COO),
        cache_dir=raw.get("cache_dir", "cache"),
        max_workers=int(raw.get("max_workers", "4")),
    )


def load_manifest(path):
    """Read 'group/name' lines; blank lines and #-comments are skipped."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "/" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected group/name, got {stripped!r}")
        group, _, name = stripped.partition("/")
        entries.append((group.strip(), name.strip()))
    return entries


def _check_budget(storage, scalars, method):
    if storage > scalars:
        raise RuntimeError(
            f"{method} stored {storage} scalars over its budget of {scalars}"
        )


def compression_error(A, method, scalars, seed):
    """Run one method under a scalar budget; (error, storage, size parameter).

    The size parameter is the core size for factorization methods and the
    rank for cur/hybrid. Storage is verified against the budget.
    """
    if method == "cur":
        r = solve_core_size(A, "cur", scalars)
        f = cur_decompose(A, r, seed)
        storage = cur_storage(f)
        _check_budget(storage, scalars, method)
        return cur_relative_error(A, f), storage, r
    if method == "hybrid":
        # default rank policy: the rank a stored CUR could afford; rank
        # sweeps explore past it, where the hybrid earns its keep
        r = solve_core_size(A, "cur", scalars)
        h = hybrid_compress(A, r, scalars, seed)
        _check_budget(h.storage_scalars, scalars, method)
        return h.error, h.storage_scalars, r
    if method == "additive":
        F = factor_additive(A, scalars, seed)
        _check_budget(F.storage_scalars, scalars, method)
        err = frobenius_relative_error(A, reconstruct_additive(F))
        return err, F.storage_scalars, len(F.sym.core_rows)
    if method in ("direct-corediag", "direct-topn", "direct-greedytopn"):
        d = solve_core_size(A, method, scalars)
        kind = method.partition("-")[2]
        F = factor_direct(A, d, Sparsifier(kind), seed)
        _check_budget(F.storage_scalars, scalars, method)
        err = frobenius_relative_error(A, reconstruct(F))
        return err, F.storage_scalars, d
    raise ValueError(f"unknown method {method!r}")


def run_sweep(config, http_get=None, log=None):
    """Full benchmark sweep: every (matrix, method, fraction, trial) item.

    Items run on a bounded thread pool; assembly order is fixed by the
    manifest/methods/fractions/trial order, so output is deterministic.
    Matrices or runs that fail are recorded and skipped, never fatal.
    """
    say = log if log is not None else (lambda msg: None)
    matrices = []
    failures = []
    for group, name in load_manifest(config.manifest):
        label = f"{group}/{name}"
        try:
            A, meta = fetch_suitesparse(group, name, config.cache_dir, http_get=http_get)
            matrices.append((label, A, meta))
            say(f"loaded {label}: n={meta.n} nnz={meta.nnz}")
        except Exception as exc:
            failures.append({"matrix": label, "stage": "load", "error": str(exc)})
            say(f"skipped {label}: {exc}")

    items = []
    for label, A, meta in matrices:
        for method in config.methods:
            for fraction in config.fractions:
                scalars = StorageBudget(fraction, config.accounting).scalars(A)
                for trial in range(config.trials):
                    seed = derive_seed(config.seed, label, method, repr(fraction), trial)
                    items.append((label, A, meta, method, fraction, scalars, trial, seed))

    def run_item(item):
        label, A, meta, method, fraction, scalars, trial, seed = item
        start = time.perf_counter()
        err, storage, param = compression_error(A, method, scalars, seed)
        elapsed = time.perf_counter() - start
        return {
            "group": meta.group, "name": meta.name, "kind": meta.kind,
            "n": meta.n, "nnz": meta.nnz, "method": method,
            "fraction": fraction, "trial": trial, "seed": seed,
            "param": param, "storage": storage, "budget": scalars,
            "error": err, "wall_time_s": elapsed,
        }

    with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        futures = [pool.submit(run_item, item) for item in items]

    rows = []
    for item, fut in zip(items, futures):
        label, _, _, method, fraction, _, trial, _ = item
        try:
            rows.append(fut.result())
            say(f"done {label} {method} f={fraction:g} trial={trial}")
        except Exception as exc:
            failures.append({
                "matrix": label, "stage": f"{method}@{fraction:g}/trial{trial}",
                "error": str(exc),
            })
            say(f"failed {label} {method} f={fraction:g} trial={trial}: {exc}")

    cells = {}
    for r in rows:
        key = (r["group"], r["name"], r["method"], r["fraction"])
        cells.setdefault(key, []).append(r)
    reports = []
    for label, A, meta in matrices:
        for method in config.methods:
            for fraction in config.fractions:
                cell = cells.get((meta.group, meta.name, method, fraction))
                if not cell:
                    continue
                errs = np.array([r["error"] for r in cell])
                reports.append(CompressionReport(
                    matrix=meta, method=method, fraction=fraction,
                    trials=len(cell),
                    mean_error=float(errs.mean()),
                    std_error=float(errs.std()),
                    wall_time_s=float(sum(r["wall_time_s"] for r in cell)),
                ))

    win_tables = {}
    if "cur" in config.methods:
        for method in config.methods:
            if method != "cur":
                win_tables[method] = win_table(reports, method, "cur")
    return SweepResult(tuple(reports), tuple(rows), tuple(failures), win_tables)


def win_table(reports, method, baseline, tol=1e-12):
    """Per-kind win/loss/tie percentages of `method` against `baseline`.

    A win is a strictly smaller mean error (beyond tol) on the same matrix
    at the same fraction. Rows are matrix kinds plus a 'total' row; within
    each row one cell per fraction, and wins+losses+ties = 100%.
    """
    mine = {(r.matrix.group, r.matrix.name, r.fraction): r for r in reports if r.method == method}
    theirs = {(r.matrix.group, r.matrix.name, r.fraction): r for r in reports if r.method == baseline}
    kinds = {}
    for key, rep in sorted(mine.items()):
        if key not in theirs:
            continue
        kind = rep.matrix.kind or "unknown"
        cell = kinds.setdefault(kind, {}).setdefault(rep.fraction, [0, 0, 0])
        diff = rep.mean_error - theirs[key].mean_error
        if diff < -tol:
            cell[0] += 1
        elif diff > tol:
            cell[1] += 1
        else:
            cell[2] += 1

    def to_row(kind, cells):
        out = {"kind": kind, "cells": {}}
        for fraction in sorted(cells):
            w, l, t = cells[fraction]
            total = w + l + t
            out["cells"][f"{fraction:g}"] = {
                "matrices": total,
                "wins": w, "losses": l, "ties": t,
                "win_pct": round(100.0 * w / total, 1),
                "loss_pct": round(100.0 * l / total, 1),
                "tie_pct": round(100.0 * t / total, 1),
            }
        return out

    rows = [to_row(kind, kinds[kind]) for kind in sorted(kinds)]
    totals = {}
    for cells in kinds.values():
        for fraction, (w, l, t) in cells.items():
            agg = totals.setdefault(fraction, [0, 0, 0])
            agg[0] += w
            agg[1] += l
            agg[2] += t
    rows.append(to_row("total", totals))
    return {"method": method, "baseline": baseline, "rows": rows}


def format_win_table(table):
    """Plain-text rendering of a win table (kinds x fractions, win% cells)."""
    fractions = sorted({f for row in table["rows"] for f in row["cells"]}, key=float)
    lines = [f"win rate of {table['method']} vs {table['baseline']} (% of matrices)"]
    header = f"{'kind':<42}" + "".join(f"{('@' + f):>12}" for f in fractions)
    lines.append(header)
    for row in table["rows"]:
        cells = []
        for f in fractions:
            c = row["cells"].get(f)
            cells.append(f"{c['win_pct']:>11.1f}%" if c else f"{'-':>12}")
        lines.append(f"{row['kind']:<42}" + "".join(cells))
    return "\n".join(lines)


def sweep_csv(result):
    """Per-run rows as CSV text.

    There is no timing column, so reruns at the same BLAS thread count are
    byte-identical; another thread count may change the last digits of the
    errors.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_CSV_HEADER.split(","))
    for r in result.rows:
        writer.writerow([
            r["group"], r["name"], r["kind"], r["n"], r["nnz"],
            r["method"], f"{r['fraction']:g}", r["trial"], r["seed"],
            r["param"], r["storage"], r["budget"], f"{r['error']:.17g}",
        ])
    return buf.getvalue()


def sweep_json(result, config):
    """Full JSON report: config, per-cell statistics, failures, win tables."""
    payload = {
        "config": {
            "manifest": config.manifest,
            "methods": list(config.methods),
            "fractions": list(config.fractions),
            "trials": config.trials,
            "seed": config.seed,
            "accounting": config.accounting,
        },
        "reports": [
            {
                "matrix": {
                    "group": r.matrix.group, "name": r.matrix.name,
                    "kind": r.matrix.kind, "n": r.matrix.n, "nnz": r.matrix.nnz,
                    "numerical_symmetry": r.matrix.numerical_symmetry,
                },
                "method": r.method,
                "fraction": r.fraction,
                "trials": r.trials,
                "mean_error": r.mean_error,
                "std_error": r.std_error,
                "wall_time_s": r.wall_time_s,
            }
            for r in result.reports
        ],
        "failures": list(result.failures),
        "win_tables": result.win_tables,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_sweep_outputs(result, config):
    """CSV at config.output, JSON next to it with a .json suffix."""
    csv_path = Path(config.output)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(sweep_csv(result))
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(sweep_json(result, config))
    return csv_path, json_path


def run_decay_sweep(n, t_list, seed, output=None, core_size=DECAY_CORE_SIZE):
    """Symmetric-factorization error across spectrum decay rates.

    The orthogonal basis is fixed (same seed) across t, matching the
    generator's contract; one factorization per t at the pinned core size.
    The error falls as t grows: decay_values is alpha (1 - b_t) with
    alpha = 1/(1 - e^t) and b_t = e^{t(x-1)}, so each input is
    alpha (I - Q diag(b_t) Q^T) and tends to a scaled identity. The
    truncation keeps every retired diagonal, so the alpha I part is never
    dropped and the error is at most ||b_t|| / ||1 - b_t||, which shrinks
    with t. Returns [(t, error)] and optionally writes 't,error' CSV.
    """
    rows = []
    for t in t_list:
        A = gen_decay_matrix(DecaySpec(n, float(t), seed))
        F = factor_symmetric(A, core_size, derive_seed(seed, "decay", repr(float(t))))
        err = frobenius_relative_error(A, reconstruct(F))
        rows.append((float(t), err))
    if output is not None:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["t,error"] + [f"{t:.17g},{err:.17g}" for t, err in rows]
        path.write_text("\n".join(lines) + "\n")
    return rows


def run_rank_sweep(A, r_list, fraction=0.05, seed=0, output=None, accounting=SPARSE_COO):
    """Hybrid error per CUR rank plus CUR-only and MMF-only baselines.

    All three pipelines share one scalar budget. Returns row tuples
    (series, size parameter, error): one 'hybrid' row per r, then a 'cur'
    row at its solved rank and an 'mmf' (direct-greedytopn) row at its
    solved core size.
    """
    scalars = StorageBudget(fraction, accounting).scalars(A)
    rows = []
    for r in r_list:
        h = hybrid_compress(A, int(r), scalars, derive_seed(seed, "hybrid", int(r)))
        rows.append(("hybrid", int(r), h.error))
    cur_err, _, cur_rank = compression_error(A, "cur", scalars, derive_seed(seed, "cur"))
    rows.append(("cur", cur_rank, cur_err))
    mmf_err, _, mmf_core = compression_error(
        A, "direct-greedytopn", scalars, derive_seed(seed, "mmf")
    )
    rows.append(("mmf", mmf_core, mmf_err))
    if output is not None:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["series,param,error"] + [f"{s},{p},{e:.17g}" for s, p, e in rows]
        path.write_text("\n".join(lines) + "\n")
    return rows
