"""Command-line benchmark front end.

Subcommands: fetch (warm the matrix cache), sweep (full compression
benchmark from a config file), decay (error vs spectrum decay rate),
rankscan (hybrid error vs CUR rank), factor (one matrix, one method, one
budget). Exit codes: 0 success, 1 runtime failure, 2 bad usage/config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    BENCH_METHODS,
    DECAY_CORE_SIZE,
    compression_error,
    derive_seed,
    format_win_table,
    load_manifest,
    load_sweep_config,
    run_decay_sweep,
    run_rank_sweep,
    run_sweep,
    write_sweep_outputs,
)
from .data import fetch_suitesparse, gen_mixed_matrix, parse_matrix_market
from .storage import DENSE, SPARSE_COO, StorageBudget

_DEFAULT_CACHE = os.environ.get("MRMF_CACHE_DIR", "cache")


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _load_matrix(spec, cache_dir):
    """A local .mtx path, or group/name resolved through the cache."""
    if spec.endswith(".mtx"):
        return parse_matrix_market(Path(spec).read_bytes())
    if "/" not in spec:
        raise ValueError(f"expected group/name or a .mtx path, got {spec!r}")
    group, _, name = spec.partition("/")
    return fetch_suitesparse(group, name, cache_dir)


def _cmd_fetch(args):
    failures = 0
    for group, name in load_manifest(args.manifest):
        label = f"{group}/{name}"
        try:
            _, meta = fetch_suitesparse(group, name, args.cache_dir)
            print(f"ok {label}: n={meta.n} nnz={meta.nnz} "
                  f"sym={meta.numerical_symmetry:.3f} kind={meta.kind or '?'}")
        except Exception as exc:
            failures += 1
            print(f"FAIL {label}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_sweep(args):
    config = load_sweep_config(args.config)
    result = run_sweep(config, log=print if args.verbose else None)
    csv_path, json_path = write_sweep_outputs(result, config)
    print(f"{len(result.rows)} runs, {len(result.failures)} failures")
    print(f"wrote {csv_path} and {json_path}")
    for table in result.win_tables.values():
        print()
        print(format_win_table(table))
    for failure in result.failures:
        print(f"FAIL {failure['matrix']} {failure['stage']}: {failure['error']}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_decay(args):
    rows = run_decay_sweep(args.n, args.t_list, args.seed, args.out, args.core_size)
    for t, err in rows:
        print(f"t={t:g} error={err:.6f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_rankscan(args):
    A = _load_matrix(args.matrix, args.cache_dir)[0] if args.matrix else gen_mixed_matrix()
    rows = run_rank_sweep(
        A, args.r_list, fraction=args.fraction, seed=args.seed,
        output=args.out, accounting=args.accounting,
    )
    for series, param, err in rows:
        print(f"{series:<8} param={param:<6} error={err:.6f}")
    hybrid = {p: e for s, p, e in rows if s == "hybrid"}
    if hybrid:
        best_r = min(hybrid, key=hybrid.get)
        gain = min(e for s, _, e in rows if s != "hybrid") - hybrid[best_r]
        print(f"best hybrid r={best_r}: error {hybrid[best_r]:.6f} "
              f"({'beats' if gain > 0 else 'trails'} both baselines by {abs(gain):.6f})")
    print(f"wrote {args.out}")
    return 0


def _cmd_factor(args):
    A, meta = _load_matrix(args.matrix, args.cache_dir)
    budget = StorageBudget(args.fraction, args.accounting)
    scalars = budget.scalars(A)
    seed = derive_seed(args.seed, args.matrix, args.method, repr(args.fraction))
    err, storage, param = compression_error(A, args.method, scalars, seed)
    report = {
        "matrix": {
            "source": args.matrix, "group": meta.group, "name": meta.name,
            "kind": meta.kind, "n": meta.n, "nnz": meta.nnz,
            "numerical_symmetry": meta.numerical_symmetry,
        },
        "method": args.method,
        "fraction": args.fraction,
        "accounting": args.accounting,
        "budget_scalars": scalars,
        "storage_scalars": storage,
        "size_param": param,
        "error": err,
    }
    print(f"{args.method} @ {args.fraction:g}: error={err:.6f} "
          f"storage={storage}/{scalars} param={param}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrmf", description="multiresolution matrix compression benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download manifest matrices into the cache")
    p.add_argument("manifest")
    p.add_argument("--cache-dir", default=_DEFAULT_CACHE)
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("sweep", help="run a full compression sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("decay", help="error of symmetric factorization vs decay rate")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t-list", type=_float_list, default=[1.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--core-size", type=int, default=DECAY_CORE_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("rankscan", help="hybrid error per CUR rank plus baselines")
    p.add_argument("--matrix", help="group/name or local .mtx path "
                   "(default: the built-in mixed-spectrum matrix, gen_mixed_matrix())")
    p.add_argument("--r-list", type=_int_list, required=True)
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accounting", choices=[SPARSE_COO, DENSE], default=SPARSE_COO)
    p.add_argument("--cache-dir", default=_DEFAULT_CACHE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rankscan)

    p = sub.add_parser("factor", help="compress one matrix with one method")
    p.add_argument("--matrix", required=True, help="group/name or local .mtx path")
    p.add_argument("--method", required=True, choices=list(BENCH_METHODS))
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accounting", choices=[SPARSE_COO, DENSE], default=SPARSE_COO)
    p.add_argument("--cache-dir", default=_DEFAULT_CACHE)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_factor)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
