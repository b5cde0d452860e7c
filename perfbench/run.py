"""Benchmark of the mrmf package on generated Matrix Market inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n2000 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):

  sweep-n2000   `mrmf factor` on one n=2000 sparse nonsymmetric input with
                direct-greedytopn and additive at 1% of the dense budget
  suite-sparse  `mrmf sweep` of all six methods at three budgets over eight
                n=256/512 matrices (144 runs), two pool workers
  ingest-mtx    parse and write back about a million entries

Each workload runs in its own process, with the BLAS thread count pinned
before numpy loads. The run sets up its inputs SETUP_REPEATS times, then
repeats whole passes of the job until the next pass would end after
--seconds (at least one), and reports medians over the passes.

With --trace 0 it reports END_TO_END. With --trace 1 it alternates untraced
and traced passes, reports PER_LAYER from the spans (tracing.py), writes the
spans to .perfbench/, and adds untimed diagnostic passes: sweep-n2000 at
one BLAS thread plus a memory-bandwidth probe, and suite-sparse at one pool
worker. Before the last line it prints one JSON report with the environment
and the per-workload detail; the last line holds the metrics. The exit code
is 1 if any output check fails and 2 if the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# sweep-n2000 is the BLAS-bound workload; suite-sparse gets its
# parallelism from the pool instead, so two BLAS threads per worker would
# oversubscribe the cores
BLAS_THREADS = {"sweep-n2000": 2, "suite-sparse": 1, "ingest-mtx": 1}
MAX_WORKERS = {"suite-sparse": 2}
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "jacobi.two_basis_sweep_s": "s",
    "jacobi.conjugation_sweep_s": "s",
    "jacobi.levels": "count",
    "jacobi.levels_per_s": "1/s",
    "jacobi.sweep_nominal_bytes": "B",
    "jacobi.sweep_GBps": "GB/s",
    "jacobi.sweep_share": "ratio",
    "jacobi.unpermute_s": "s",
    "jacobi.reconstruct_s": "s",
    "jacobi.blas_speedup": "ratio",
    "cores.sparsify_s": "s",
    "cores.offcore_kept": "count",
    "cores.offcore_fill": "ratio",
    "matrices.split_s": "s",
    "matrices.error_s": "s",
    "storage.solve_s": "s",
    "storage.budget_fill": "ratio",
    "cur.decompose_s": "s",
    "cur.error_s": "s",
    "direct.self_s": "s",
    "symmetric.self_s": "s",
    "skew.self_s": "s",
    "additive.self_s": "s",
    "data.parse_s": "s",
    "data.parse_entries": "count",
    "data.write_s": "s",
    "data.write_entries": "count",
    "bench.run_s": "s",
    "bench.load_s": "s",
    "bench.item_cpu_s": "s",
    "bench.item_wait_frac": "ratio",
    "bench.pool_speedup": "ratio",
    "machine.copy_GBps": "GB/s",
    "trace.overhead_frac": "ratio",
}

DIAGNOSTICS = {
    "jacobi.blas_speedup": "sweep-n2000",
    "machine.copy_GBps": "sweep-n2000",
    "bench.pool_speedup": "suite-sparse",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="override the workload's BLAS thread count")
    return p.parse_args(argv)


def timed_passes(run, seconds):
    """Call run() until another call of the last one's length would overrun."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        results.append(run())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return results


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mrmf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(np, cpus, blas_threads, max_workers):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cpus,
        "l3_bytes": l3_bytes(),
        "blas_threads": blas_threads,
        "max_workers": max_workers,
    }


def copy_bandwidth(np, l3):
    """Sustained copy rate, bytes read plus written, arrays 4x the L3."""
    words = 4 * (l3 or 128 << 20) // 8
    src = np.ones(words)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes


def single_blas_thread_pass(seed):
    """pass_s of sweep-n2000 in a fresh process pinned to one BLAS thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "sweep-n2000",
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--blas-threads", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread pass exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["pass_s"]["value"]


def failed_ops(passes):
    return sum(min(len(p.failures), p.attempted) for p in passes)


def determinism(reference, passes, what):
    """Every pass must return exactly the reference pass's outputs."""
    want = reference.results()
    return [f"{what} pass {i} outputs differ from the first untraced pass"
            for i, p in enumerate(passes) if p.results() != want]


def untraced_run(wl, args, setup_s):
    passes = timed_passes(wl.run_pass, args.seconds)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = dict(wl.summary(passes))
    detail["setup_s"] = (setup_s, "s")
    detail["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    attempted = sum(p.attempted for p in passes)
    detail["fail_frac"] = (failed_ops(passes) / attempted, "ratio")
    info = {"pass_walls_s": [p.wall_s for p in passes]}
    return passes, metrics, detail, info, determinism(passes[0], passes[1:], "untraced")


def traced_run(wl, args, np, mrmf, tracing, env):
    tracer = tracing.Tracer(mrmf)
    untraced, traced = [], []

    def pair():
        untraced.append(wl.run_pass())
        with tracer.installed():
            traced.append(wl.run_pass())

    timed_passes(pair, args.seconds)
    problems = determinism(untraced[0], untraced[1:], "untraced")
    problems += determinism(untraced[0], traced, "traced")
    problems += tracer.check(wl.expected_spans)
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    base = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / base - 1.0
    info = {"pass_walls_s": [p.wall_s for p in untraced],
            "traced_pass_walls_s": [p.wall_s for p in traced]}
    metrics["jacobi.blas_speedup"] = metrics["bench.pool_speedup"] = metrics["machine.copy_GBps"] = 0.0
    if wl.name == "sweep-n2000":
        metrics["jacobi.blas_speedup"] = single_blas_thread_pass(args.seed) / base
        metrics["machine.copy_GBps"], info["copy_array_bytes"] = copy_bandwidth(np, env["l3_bytes"])
    elif wl.name == "suite-sparse":
        single = wl.run_pass(max_workers=1)
        problems += determinism(untraced[0], [single], "one-worker")
        metrics["bench.pool_speedup"] = single.wall_s / base
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    info["not_measured"] = {
        name: (f"diagnostic of {DIAGNOSTICS[name]} only" if name in DIAGNOSTICS
               else "no traced call on this workload feeds it")
        for name, value in metrics.items() if value == 0
    }
    return untraced + traced, metrics, info, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mrmf" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'mrmf'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    blas_threads = min(args.blas_threads or BLAS_THREADS[args.workload], cpus)
    max_workers = min(MAX_WORKERS.get(args.workload, 1), cpus)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mrmf
    import tracing
    import workloads
    import_s = time.perf_counter() - start
    if Path(mrmf.__file__).resolve().parent != SRC / "mrmf":
        print(f"error: imported mrmf from {mrmf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(np, cpus, blas_threads, max_workers)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        pool = {"max_workers": max_workers} if args.workload in MAX_WORKERS else {}
        wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, **pool)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(import_s + time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        if args.trace:
            passes, metrics, info, problems = traced_run(wl, args, np, mrmf, tracing, env)
            units, detail = PER_LAYER, {}
        else:
            passes, metrics, detail, info, problems = untraced_run(wl, args, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures] + problems
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, **info,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "failures": failures[:50],
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed_ops(passes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
