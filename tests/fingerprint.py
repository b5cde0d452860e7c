"""Output fingerprint of the benchmark layer, pinned by tests/golden/fingerprint.json.

Runs, serially and from fixed seeds:
  - run_sweep on three n=256 inputs of the suite-sparse benchmark workload
    (perfbench's generator, loaded read-only), all six methods at its three
    fractions under dense accounting;
  - run_decay_sweep(200, [1, 2, 4, 6, 8, 10], 42);
  - run_rank_sweep(gen_mixed_matrix(), [6, 14, 34], 0.05, 1);
  - `mrmf factor` for all six methods on one of those inputs.
Each row records its seed, size parameter, storage, budget (None where the
function reports none) and repr(error), next to the numpy version, the BLAS
build and OPENBLAS_NUM_THREADS.

    python tests/fingerprint.py                 # print the JSON
    python tests/fingerprint.py --out FILE      # write it (the fixture:
        tests/golden/fingerprint.json, at OPENBLAS_NUM_THREADS=1)

Regenerating the fixture is a deliberate act: say which values moved and why.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from mrmf import bench, cli, gen_mixed_matrix
from mrmf.data import parse_matrix_market

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUITE_SEED = 5
SUITE_SPEC_IDS = (0, 2, 5)  # n=256: half, mostly skew with dense lines, mostly symmetric
FACTOR_SPEC_ID = 1
FACTOR_FRACTION = 0.5  # sparse-coo accounting: above the additive minimum at n=256


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _row(key, seed, param, storage, budget, error):
    return {"key": key, "seed": seed, "param": param, "storage": storage,
            "budget": budget, "error": repr(float(error))}


def _write_inputs(wl, work, ids):
    suite = wl.SuiteSparse(work, SUITE_SEED)
    paths = {}
    for idx in ids:
        spec = wl.SUITE_SPECS[idx]
        name = f"s{idx}_n{spec[0]}_r{spec[1]}"
        path = work / "cache" / wl.SUITE_GROUP / f"{name}.mtx"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(wl.mtx_text(*suite._matrix(idx, *spec),
                                     comments=(f"name: {wl.SUITE_GROUP}/{name}",)))
        paths[idx] = path
    return suite, paths


def sweep_rows(wl, work):
    suite, paths = _write_inputs(wl, work, SUITE_SPEC_IDS)
    manifest = work / "manifest.txt"
    manifest.write_text("".join(f"{wl.SUITE_GROUP}/{p.stem}\n" for p in paths.values()))
    config = dataclasses.replace(suite.config(1), manifest=str(manifest))
    result = bench.run_sweep(config, http_get=wl._no_network)
    if result.failures:
        raise RuntimeError(f"sweep failed: {result.failures}")
    return [_row(f"{r['name']}/{r['method']}@{r['fraction']:g}", r["seed"], r["param"],
                 r["storage"], r["budget"], r["error"]) for r in result.rows]


def decay_rows():
    n, t_list, seed = 200, [1, 2, 4, 6, 8, 10], 42
    return [_row(f"decay/t={t:g}", bench.derive_seed(seed, "decay", repr(t)),
                 bench.DECAY_CORE_SIZE, None, None, err)
            for t, err in bench.run_decay_sweep(n, t_list, seed)]


def rank_rows():
    A, fraction, seed = gen_mixed_matrix(), 0.05, 1
    budget = bench.StorageBudget(fraction).scalars(A)
    out = []
    for series, param, err in bench.run_rank_sweep(A, [6, 14, 34], fraction, seed):
        parts = ("hybrid", param) if series == "hybrid" else (series,)
        out.append(_row(f"rank/{series}/{param}", bench.derive_seed(seed, *parts),
                        param, None, budget, err))
    return out


def factor_rows(wl, work):
    path = _write_inputs(wl, work, (FACTOR_SPEC_ID,))[1][FACTOR_SPEC_ID]
    meta = parse_matrix_market(path.read_bytes())[1]
    out = []
    for method in bench.BENCH_METHODS:
        report = work / f"factor-{method}.json"
        argv = ["factor", "--matrix", str(path), "--method", method,
                "--fraction", repr(FACTOR_FRACTION), "--out", str(report)]
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                status = cli.main(argv)
            finally:
                sys.stdout = stdout
        if status != 0:
            raise RuntimeError(f"mrmf {' '.join(argv)} exited {status}")
        got = json.loads(report.read_text())
        seed = bench.run_seed(0, meta, method, 0)
        out.append(_row(f"factor/{path.stem}/{method}@{FACTOR_FRACTION:g}", seed,
                        got["size_param"], got["storage_scalars"], got["budget_scalars"],
                        got["error"]))
    return out


def fingerprint():
    wl = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        rows = sweep_rows(wl, work) + decay_rows() + rank_rows() + factor_rows(wl, work)
    return {"environment": _environment(), "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here instead of printing it")
    args = parser.parse_args(argv)
    text = json.dumps(fingerprint(), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
