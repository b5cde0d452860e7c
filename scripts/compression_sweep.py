#!/usr/bin/env python3
"""Full compression benchmark over a manifest of collection matrices.

Fetches (or reads from cache) every matrix in the configured manifest, runs
each configured method at each budget fraction, and writes per-run CSV, a
JSON report, and win-rate tables against the CUR baseline. Network access
is only needed for matrices not already in the cache.
"""

import argparse
import sys

from mrmf.bench import (
    format_win_table,
    load_sweep_config,
    run_sweep,
    write_sweep_outputs,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="benchmarks/sweep_example.cfg")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    config = load_sweep_config(args.config)
    result = run_sweep(config, log=None if args.quiet else print)
    csv_path, json_path = write_sweep_outputs(result, config)

    print(f"{len(result.rows)} runs, {len(result.failures)} failures")
    for failure in result.failures:
        print(f"  failed {failure['matrix']} [{failure['stage']}]: {failure['error']}")
    for table in result.win_tables.values():
        print()
        print(format_win_table(table))
    print(f"wrote {csv_path} and {json_path}")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
