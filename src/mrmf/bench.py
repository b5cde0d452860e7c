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
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .additive import factor_additive, reconstruct_additive
from .cores import Sparsifier
from .cur import cur_decompose, cur_relative_error, hybrid_compress
from .data import DecaySpec, MatrixMetadata, fetch_suitesparse, gen_decay_matrix
from .direct import factor_direct, reconstruct
from .matrices import frobenius_relative_error
from .storage import DENSE, SPARSE_COO, StorageBudget, solve_core_size
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
TIE_TOL = 1e-12  # win tables: mean errors closer than this are a tie

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
        for key, values in (("methods", self.methods), ("fractions", self.fractions)):
            if not values:
                raise ValueError(f"{key} list is empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{key} list repeats an entry: {list(values)}")
        for m in self.methods:
            if m not in BENCH_METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {BENCH_METHODS})")
        for f in self.fractions:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fraction {f} outside (0, 1]")
        if self.accounting not in (SPARSE_COO, DENSE):
            raise ValueError(f"unknown accounting mode {self.accounting!r}")
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


def run_seed(base_seed, meta, method, fraction, trial):
    """Seed of one sweep run, keyed by the matrix's group/name, never its path."""
    return derive_seed(base_seed, f"{meta.group}/{meta.name}", method, repr(fraction), trial)


def _lines(path):
    """(line number, stripped text) of each line that is not blank or a #-comment."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _items(convert):
    def comma_separated_list(text):  # argparse names the type in its error message
        return tuple(convert(v.strip()) for v in text.split(",") if v.strip())
    return comma_separated_list


_CONFIG_KEYS = {
    "manifest": str, "methods": _items(str), "fractions": _items(float),
    "trials": int, "seed": int, "output": str, "accounting": str,
    "cache_dir": str, "max_workers": int,
}


def load_sweep_config(path):
    """Parse a line-oriented key=value sweep config file."""
    raw = {}
    for lineno, stripped in _lines(path):
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()
    missing = {"manifest", "methods", "fractions", "output"} - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing required keys {sorted(missing)}")
    values = {key: _CONFIG_KEYS[key](value) for key, value in raw.items()}
    return SweepConfig(**{"trials": 3, "seed": 0, **values})


def load_manifest(path):
    """Read distinct 'group/name' lines; blank lines and #-comments are skipped."""
    first_line = {}
    for lineno, stripped in _lines(path):
        group, slash, name = stripped.partition("/")
        entry = (group.strip(), name.strip())
        if not (slash and all(entry)):
            raise ValueError(f"{path}:{lineno}: expected group/name, got {stripped!r}")
        if entry in first_line:  # its runs would repeat seeds and pose as extra trials
            raise ValueError(f"{path}:{lineno}: {stripped!r} repeats line {first_line[entry]}")
        first_line[entry] = lineno
    return list(first_line)


def compression_error(A, method, scalars, seed):
    """Run one method under a scalar budget; (error, storage, size parameter).

    The size parameter is the core size for factorization methods and the
    rank for cur/hybrid. For additive it is the symmetric half's core size,
    or the skew half's when the symmetric half is empty (a purely skew
    input). Storage is verified against the budget.
    """
    if method == "cur":
        param = solve_core_size(A, "cur", scalars)
        F = cur_decompose(A, param, seed)
        err = cur_relative_error(A, F)
    else:
        if method == "additive":
            F = factor_additive(A, scalars, seed)
            approx = reconstruct_additive(F)
            param = len(F.sym.core_rows) or len(F.skew.core_rows)
        elif method == "hybrid":
            # solved first so a budget below hybrid's minimum names hybrid;
            # the rank is what a stored CUR affords (rank sweeps go past it)
            solve_core_size(A, "hybrid", scalars)
            param = solve_core_size(A, "cur", scalars)
            F = hybrid_compress(A, param, scalars, seed)
            approx = reconstruct(F)
        elif method in ("direct-corediag", "direct-topn", "direct-greedytopn"):
            param = solve_core_size(A, method, scalars)
            F = factor_direct(A, param, Sparsifier(method.partition("-")[2]), seed)
            approx = reconstruct(F)
        else:
            raise ValueError(f"unknown method {method!r}")
        err = frobenius_relative_error(A, approx)
    storage = F.storage_scalars
    if storage > scalars:
        raise RuntimeError(f"{method} stored {storage} scalars over its budget of {scalars}")
    return err, storage, param


def run_sweep(config, http_get=None, log=None):
    """Full benchmark sweep: every (matrix, method, fraction, trial) item.

    Items run on a bounded thread pool; rows and reports follow the
    manifest/methods/fractions/trial order, so output is deterministic.
    Matrices or runs that fail are recorded (matrix, stage, exception type
    name, message) and skipped, never fatal.
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
            failures.append({"matrix": label, "stage": "load",
                             "type": type(exc).__name__, "error": str(exc)})
            say(f"skipped {label}: {exc}")

    def run_item(A, row):
        start = time.perf_counter()
        err, storage, param = compression_error(A, row["method"], row["budget"], row["seed"])
        elapsed = time.perf_counter() - start
        return {**row, "param": param, "storage": storage, "error": err, "wall_time_s": elapsed}

    items = []  # (label, metadata, the run's input row, its future), in item order
    with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        for label, A, meta in matrices:
            for method, fraction in product(config.methods, config.fractions):
                scalars = StorageBudget(fraction, config.accounting).scalars(A)
                for trial in range(config.trials):
                    seed = run_seed(config.seed, meta, method, fraction, trial)
                    row = {
                        "group": meta.group, "name": meta.name, "kind": meta.kind,
                        "n": meta.n, "nnz": meta.nnz, "method": method,
                        "fraction": fraction, "trial": trial, "seed": seed, "budget": scalars,
                    }
                    items.append((label, meta, row, pool.submit(run_item, A, row)))

    rows = []
    cells = {}  # (matrix, method, fraction) -> (metadata, rows), in item order
    for label, meta, row, fut in items:
        method, fraction, trial = row["method"], row["fraction"], row["trial"]
        try:
            done = fut.result()
        except Exception as exc:
            failures.append({
                "matrix": label, "stage": f"{method}@{fraction:g}/trial{trial}",
                "type": type(exc).__name__, "error": str(exc),
            })
            say(f"failed {label} {method} f={fraction:g} trial={trial}: {exc}")
            continue
        rows.append(done)
        cells.setdefault((label, method, fraction), (meta, []))[1].append(done)
        say(f"done {label} {method} f={fraction:g} trial={trial}")

    reports = []
    for (_, method, fraction), (meta, cell) in cells.items():
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


def win_table(reports, method, baseline):
    """Per-kind win/loss/tie percentages of `method` against `baseline`.

    A win is a strictly smaller mean error (beyond TIE_TOL) on the same matrix
    at the same fraction. Rows are matrix kinds plus a 'total' row; within
    each row one cell per fraction, and wins+losses+ties = 100%.
    """
    mine = {(r.matrix.group, r.matrix.name, r.fraction): r for r in reports if r.method == method}
    theirs = {(r.matrix.group, r.matrix.name, r.fraction): r for r in reports if r.method == baseline}
    kinds, totals = {}, {}
    for key, rep in sorted(mine.items()):
        if key not in theirs:
            continue
        diff = rep.mean_error - theirs[key].mean_error
        outcome = 0 if diff < -TIE_TOL else 1 if diff > TIE_TOL else 2  # win, loss, tie
        for cells in (kinds.setdefault(rep.matrix.kind or "unknown", {}), totals):
            cells.setdefault(rep.fraction, [0, 0, 0])[outcome] += 1

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
    run_environment = ("output", "cache_dir", "max_workers")
    payload = {
        "config": {k: v for k, v in asdict(config).items() if k not in run_environment},
        "reports": [asdict(r) for r in result.reports],
        "failures": list(result.failures),
        "win_tables": result.win_tables,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_decay_sweep(n, t_list, seed, core_size=DECAY_CORE_SIZE):
    """Symmetric-factorization error across spectrum decay rates.

    The orthogonal basis is fixed (same seed) across t, matching the
    generator's contract; one factorization per t at the pinned core size.
    The error falls as t grows: decay_values is alpha (1 - b_t) with
    alpha = 1/(1 - e^t) and b_t = e^{t(x-1)}, so each input is
    alpha (I - Q diag(b_t) Q^T) and tends to a scaled identity. The
    truncation keeps every retired diagonal, so the alpha I part is never
    dropped and the error is at most ||b_t|| / ||1 - b_t||, which shrinks
    with t. Returns [(t, error)].
    """
    rows = []
    for t in t_list:
        A = gen_decay_matrix(DecaySpec(n, float(t), seed))
        F = factor_symmetric(A, core_size, derive_seed(seed, "decay", repr(float(t))))
        err = frobenius_relative_error(A, reconstruct(F))
        rows.append((float(t), err))
    return rows


def run_rank_sweep(A, r_list, fraction=0.05, seed=0, accounting=SPARSE_COO):
    """Hybrid error per CUR rank plus CUR-only and MMF-only baselines.

    All three pipelines share one scalar budget. Returns row tuples
    (series, size parameter, error): one 'hybrid' row per r, then a 'cur'
    row at its solved rank and an 'mmf' (direct-greedytopn) row at its
    solved core size.
    """
    scalars = StorageBudget(fraction, accounting).scalars(A)
    rows = []
    for r in r_list:
        F = hybrid_compress(A, int(r), scalars, derive_seed(seed, "hybrid", int(r)))
        rows.append(("hybrid", int(r), frobenius_relative_error(A, reconstruct(F))))
    for series, method in (("cur", "cur"), ("mmf", "direct-greedytopn")):
        err, _, param = compression_error(A, method, scalars, derive_seed(seed, series))
        rows.append((series, param, err))
    return rows
