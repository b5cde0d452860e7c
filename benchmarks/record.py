"""Record benchmark runs in BENCH_<workload>.json at the root of a checkout.

Run from anywhere in a checkout:

    python3 benchmarks/record.py --seed 11
    python3 benchmarks/record.py --seed 11 --workload sweep-n2000 --workload ingest-mtx

For each workload (by default every one BENCHMARK.json declares) it runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once and appends one record to BENCH_W.json, a JSON list kept in run
order: the git revision and whether the tree was dirty (the BENCH files
themselves aside), the seed, the report's environment, the values of the
end-to-end metrics that BENCHMARK.json declares, the pass walls, the
error.* values, and correct and failed. A run whose output is not
perfbench's two JSON lines, or that takes longer than RUN_TIMEOUT_S, is
not recorded, and the exit code is 1. A record is appended by writing the
whole list to a temporary file beside BENCH_W.json and renaming it over
the old one, so an interrupted append leaves the old list whole. A
before/after comparison runs this script in the two checkouts
alternately, seed by seed (the first side alternating too), so that
machine drift does not read as a change.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600  # a run takes under a minute


def declared(section):
    """The names BENCHMARK.json lists under section, in its order."""
    return [e["name"] for e in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


def workloads():
    return declared("workloads")


def git_state():
    """(revision, dirty) of the checkout, or (None, None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout
    try:
        revision = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json").strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return revision, dirty


def record_of(stdout, workload, seed, revision, dirty):
    """The record of one perfbench run from its stdout: a {"report": ...}
    line, then the metrics line."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected perfbench's two JSON lines, got {len(lines)}")
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if report["workload"] != workload or report["seed"] != seed:
        raise ValueError(f"output is of {report['workload']} seed {report['seed']}")
    return {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "revision": revision,
        "dirty": dirty,
        "workload": workload,
        "seed": seed,
        "environment": report["environment"],
        "end_to_end": {k: result["metrics"][k]["value"] for k in declared("end_to_end")},
        "pass_walls_s": report["pass_walls_s"],
        "errors": {k: v["value"] for k, v in report["detail"].items() if k.startswith("error.")},
        "correct": result["correct"],
        "failed": result["failed"],
    }


def append(path, record):
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(records, indent=1) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=workloads(),
                   help="a workload to run (repeatable); default: all")
    args = p.parse_args(argv)
    revision, dirty = git_state()
    status = 0
    for workload in args.workload or workloads():
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", "30", "--trace", "0"]
        try:
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S)
            record = record_of(run.stdout, workload, args.seed, revision, dirty)
        except subprocess.TimeoutExpired as exc:
            print(f"{workload}: not recorded: {exc}", file=sys.stderr)
            status = 1
            continue
        except (ValueError, KeyError) as exc:
            print(f"{workload}: not recorded (exit {run.returncode}): {exc}\n{run.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        append(ROOT / f"BENCH_{workload}.json", record)
        print(f"{workload}: pass_s {record['end_to_end']['pass_s']:.3f}, "
              f"correct {record['correct']}, failed {record['failed']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
