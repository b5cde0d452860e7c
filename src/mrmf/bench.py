"""Benchmark harness: compression sweeps, win tables, decay and rank scans.

Every run is seeded by hashing a stable key string (run_seed: the matrix,
the route and the trial), so a sweep is reproducible item by item, and
rerunning a config at the same BLAS thread count yields byte-identical CSV
(the thread count changes the BLAS reduction order, and with it the last
bits of the rotation angles and errors). Reported storage is checked
against the budget on every run — a factorization that overshoots its
budget is a bug, not a data point.
"""

from __future__ import annotations

import csv
import io
import json
import time
import zlib
from dataclasses import asdict, dataclass
from itertools import product, repeat
from pathlib import Path

import numpy as np

from .additive import factor_additive, half_masses, reconstruct_additive, split_budget
from .cores import Sparsifier
from .cur import cur_decompose, cur_relative_error, hybrid_compress
from .data import (DecaySpec, MatrixMetadata, fetch_suitesparse, gen_decay_matrix,
                   is_cache_key, split_key)
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
    max_workers: int = 1  # checked, but items run one at a time in the calling thread

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
    # an ASCII key has the same UTF-8 bytes; surrogatepass keeps lone surrogates
    return zlib.crc32(key.encode("utf-8", "surrogatepass"))


def _route(method):
    """The sweep a method's runs share: "direct" for the direct-* methods,
    which differ only in their truncation, else the method itself."""
    return "direct" if method.startswith("direct-") else method


def run_seed(base_seed, meta, method, trial):
    """Seed of every run of one (matrix, route, trial), whatever its budget.

    The matrix is keyed by its group/name, never its path. One seed per
    route lets one sweep serve the route's methods and fractions, since a
    shallower sweep is a prefix of a deeper one of the same seed.
    """
    return derive_seed(base_seed, f"{meta.group}/{meta.name}", _route(method), trial)


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
        entry = split_key(stripped)
        if not is_cache_key(*entry):
            raise ValueError(f"{path}:{lineno}: expected group/name, got {stripped!r}")
        if entry in first_line:  # its runs would repeat seeds and pose as extra trials
            raise ValueError(f"{path}:{lineno}: {stripped!r} repeats line {first_line[entry]}")
        first_line[entry] = lineno
    return list(first_line)


def _solve(A, method, scalars):
    """Size parameter of one run: the core size, or the rank for cur/hybrid.

    Raises BudgetError when the budget is below the method's minimum.
    """
    if method == "hybrid":
        # solved first so a budget below hybrid's minimum names hybrid;
        # the rank is what a stored CUR affords (rank sweeps go past it)
        solve_core_size(A, "hybrid", scalars)
        return solve_core_size(A, "cur", scalars)
    if method != "cur" and _route(method) != "direct":
        raise ValueError(f"unknown method {method!r}")
    return solve_core_size(A, method, scalars)


def _build(A, runs, seed):
    """(stored result, size parameter) of each (method, size, scalars) run of one route.

    The direct runs share one two-basis sweep and the additive runs one
    sweep per half (additive takes no size: factor_additive splits each
    budget itself, and the size reported is the symmetric half's core size,
    or the skew half's when the symmetric half is empty); cur and hybrid
    build each run on its own.
    """
    methods, sizes, budgets = zip(*runs)
    route = _route(methods[0])
    if route == "direct":
        rules = tuple(Sparsifier(m.partition("-")[2]) for m in methods)
        return list(zip(factor_direct(A, sizes, rules, seed), sizes))
    if route == "additive":
        return [(F, len(F.sym.core_rows) or len(F.skew.core_rows))
                for F in factor_additive(A, budgets, seed)]
    if route == "cur":
        return [(cur_decompose(A, r, seed), r) for r in sizes]
    return [(hybrid_compress(A, r, k, seed), r) for r, k in zip(sizes, budgets)]


def compression_error(A, method, scalars, seed, built=None):
    """Run one method under a scalar budget; (error, storage, size parameter).

    The size parameter is the core size for factorization methods and the
    rank for cur/hybrid. For additive it is the symmetric half's core size,
    or the skew half's when the symmetric half is empty (a purely skew
    input). built is the run's (stored result, size parameter) when
    run_sweep built it; None builds it here, from the run's own sweep.
    Storage is verified against the budget.
    """
    if built is None:
        size = None if method == "additive" else _solve(A, method, scalars)
        built, = _build(A, [(method, size, scalars)], seed)
    F, param = built
    if method == "cur":
        err = cur_relative_error(A, F)
    else:
        approx = reconstruct_additive(F) if method == "additive" else reconstruct(F)
        err = frobenius_relative_error(A, approx)
    storage = F.storage_scalars
    if storage > scalars:
        raise RuntimeError(f"{method} stored {storage} scalars over its budget of {scalars}")
    return err, storage, param


def _attempt(fn, *args):
    """fn(*args), or the exception it raised, so a failure stays on its row."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _run_item(A, rows):
    """Each row of one (matrix, route, trial) item as a finished row dict,
    or as the exception that failed it, in row order.

    Each row is solved (additive splits its budget by the item's half
    masses) and fails alone if that raises. One _build then serves all
    the solved direct or additive rows, or one cur or hybrid row, and fails
    the rows it serves if it raises. compression_error measures each row on
    its built result; its wall time adds an equal share of that build.
    """
    def measure(row, built, shared_s):
        start = time.perf_counter()
        err, storage, param = compression_error(A, row["method"], row["budget"], row["seed"], built)
        elapsed = time.perf_counter() - start + shared_s
        return {**row, "param": param, "storage": storage, "error": err, "wall_time_s": elapsed}

    route = _route(rows[0]["method"])
    if route == "additive":
        masses = half_masses(A)
        out = [_attempt(split_budget, A.n, masses, row["budget"]) for row in rows]
    else:
        out = [_attempt(_solve, A, row["method"], row["budget"]) for row in rows]
    ready = [i for i, size in enumerate(out) if not isinstance(size, Exception)]
    groups = [ready] if route in ("direct", "additive") else [[i] for i in ready]
    for group in filter(None, groups):
        start = time.perf_counter()
        runs = [(rows[i]["method"], out[i], rows[i]["budget"]) for i in group]
        built = _attempt(_build, A, runs, rows[0]["seed"])
        shared_s = (time.perf_counter() - start) / len(group)
        for k, i in enumerate(group):
            out[i] = built if isinstance(built, Exception) else _attempt(
                measure, rows[i], built[k], shared_s)
    return out


def run_sweep(config, http_get=None, log=None):
    """Full benchmark sweep: one row per (matrix, method, fraction, trial).

    It plans, maps, then assembles. The plan lists the rows in row order
    (manifest, methods, fractions, trials) and keys them into items, one
    per (matrix, route, trial), so one sweep serves every direct-* method
    and fraction and one sweep per half every additive fraction. The map
    runs _run_item on one item at a time, in the calling thread; the
    assembly walks the rows in row order, so output is deterministic.
    Matrices or runs that fail are recorded (matrix, stage, exception type
    name, message) and skipped, never fatal.
    """
    say = log if log is not None else (lambda msg: None)
    plan, items = [], {}  # (metadata, item key, row) in row order; key -> (A, its rows)
    failures = []
    for group, name in load_manifest(config.manifest):
        label = f"{group}/{name}"
        try:
            A, meta = fetch_suitesparse(group, name, config.cache_dir, http_get=http_get)
            say(f"loaded {label}: n={meta.n} nnz={meta.nnz}")
        except Exception as exc:
            failures.append({"matrix": label, "stage": "load",
                             "type": type(exc).__name__, "error": str(exc)})
            say(f"skipped {label}: {exc}")
            continue
        for method, fraction in product(config.methods, config.fractions):
            scalars = StorageBudget(fraction, config.accounting).scalars(A)
            for trial in range(config.trials):
                row = {
                    "group": meta.group, "name": meta.name, "kind": meta.kind,
                    "n": meta.n, "nnz": meta.nnz, "method": method,
                    "fraction": fraction, "trial": trial,
                    "seed": run_seed(config.seed, meta, method, trial), "budget": scalars,
                }
                key = (label, _route(method), trial)
                plan.append((meta, key, row))
                items.setdefault(key, (A, []))[1].append(row)

    got = map(_attempt, repeat(_run_item, len(items)), *zip(*items.values()))
    # an item's outcomes follow its rows, which follow row order
    outcomes = {key: repeat(out) if isinstance(out, Exception) else iter(out)
                for key, out in zip(items, got)}

    done_rows = []
    cells = {}  # (matrix, method, fraction) -> (metadata, rows), in row order
    for meta, key, row in plan:
        done = next(outcomes[key])
        label, method, fraction, trial = key[0], row["method"], row["fraction"], row["trial"]
        if isinstance(done, Exception):
            failures.append({
                "matrix": label, "stage": f"{method}@{fraction:g}/trial{trial}",
                "type": type(done).__name__, "error": str(done),
            })
            say(f"failed {label} {method} f={fraction:g} trial={trial}: {done}")
            continue
        done_rows.append(done)
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
    return SweepResult(tuple(reports), tuple(done_rows), tuple(failures), win_tables)


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
    errors, and a hybrid row's storage (see README).
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

    All three pipelines share one scalar budget, and compression_error
    measures every row. Returns row tuples (series, size parameter,
    error): one 'hybrid' row per r, then a 'cur' row at its solved rank
    and an 'mmf' (direct-greedytopn) row at its solved core size.
    """
    scalars = StorageBudget(fraction, accounting).scalars(A)
    rows = []
    for r in map(int, r_list):
        r_seed = derive_seed(seed, "hybrid", r)
        built = hybrid_compress(A, r, scalars, r_seed), r
        rows.append(("hybrid", r, compression_error(A, "hybrid", scalars, r_seed, built)[0]))
    for series, method in (("cur", "cur"), ("mmf", "direct-greedytopn")):
        err, _, param = compression_error(A, method, scalars, derive_seed(seed, series))
        rows.append((series, param, err))
    return rows
