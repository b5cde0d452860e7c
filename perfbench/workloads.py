"""Seeded inputs, timed passes and output checks of the three workloads.

Every input is generated here from the workload seed and reaches the
program only as Matrix Market text, written by this file's own writer so
that the program's writer is never its own oracle. A workload object is
set up once (``setup`` may be repeated to time it), then runs whole passes;
each pass returns the operations it made and the checks they failed.

Workloads are a closed loop with one client: the next operation starts when
the previous one returns. Inside ``suite-sparse`` the program's own thread
pool runs two items at a time.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mrmf import bench, data
from mrmf.storage import DENSE, StorageBudget

SWEEP_N = 2000
SWEEP_PER_ROW = 6
SWEEP_FRACTION = 0.01
SWEEP_METHODS = ("direct-greedytopn", "additive")

# (n, entries per row, symmetric share of the squared mass, dense lines);
# six small inputs and two large ones keep a pass under ten seconds on two
# cores, with most runs short enough that per-level Python overhead shows
SUITE_SPECS = (
    (256, 4, 0.50, 0),
    (256, 6, 0.90, 1),
    (256, 8, 0.10, 2),
    (256, 12, 0.75, 1),
    (256, 16, 0.25, 0),
    (256, 16, 0.95, 3),
    (512, 6, 0.60, 0),
    (512, 12, 0.40, 2),
)
SUITE_FRACTIONS = (0.05, 0.10, 0.25)
SUITE_GROUP = "perf"

# spans every compression workload must fire when traced
SWEEP_SPANS = frozenset({
    "data.parse", "matrices.split", "matrices.error", "storage.solve",
    "jacobi.two_basis_sweep", "jacobi.conjugation_sweep", "jacobi.unpermute",
    "jacobi.reconstruct", "cores.sparsify", "direct.factor", "symmetric.factor",
    "skew.factor", "additive.factor", "bench.compression_error",
})

INGEST_N = 5000
INGEST_GENERAL_DRAWS = 500_000
INGEST_SYMMETRIC_DRAWS = 250_000


@dataclass
class Op:
    """One timed call into the program and what it returned."""

    name: str
    wall_s: float
    error: float | None = None
    storage: int | None = None
    budget: int | None = None
    entries: int = 0


@dataclass
class Pass:
    """One whole pass of a workload's job: wall and process CPU time, ops."""

    wall_s: float
    cpu_s: float
    ops: list
    attempted: int
    failures: list = field(default_factory=list)

    def results(self):
        """What must repeat bit for bit from pass to pass: every op's outputs."""
        return [(op.name, op.error, op.storage, op.entries) for op in self.ops]


def clock():
    return time.perf_counter(), time.process_time()


def elapsed(since):
    """(wall, CPU of every thread of the process) since a clock() reading."""
    return time.perf_counter() - since[0], time.process_time() - since[1]


def random_coo(rng, n, draws):
    """Distinct row-major-sorted coordinates with heavy-tailed nonzero values.

    Values follow the release gate's spread matrices: standard normal, ten
    times larger with probability 0.15.
    """
    codes = np.unique(rng.integers(0, n * n, size=draws))
    vals = rng.standard_normal(codes.size)
    vals *= 1 + 9 * (rng.random(codes.size) < 0.15)
    keep = vals != 0.0
    codes, vals = codes[keep], vals[keep]
    return codes // n, codes % n, vals


def mtx_text(n, rows, cols, vals, symmetry="general", comments=()):
    """Matrix Market coordinate text; values printed round-trip exact."""
    head = [f"%%MatrixMarket matrix coordinate real {symmetry}"]
    head += [f"% {c}" for c in comments]
    head.append(f"{n} {n} {len(vals)}")
    body = map("{} {} {!r}".format, (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
    return ("\n".join(head) + "\n" + "\n".join(body) + "\n").encode("ascii")


def coo_equal(A, expected):
    """Exact triplet comparison against (rows, cols, vals), no densifying."""
    got = A.to_coo()
    return all(np.array_equal(g, e) for g, e in zip(got, expected))


def _check_run(op, failures):
    """Errors finite and nonnegative; stored scalars within the budget."""
    if not (op.error is not None and math.isfinite(op.error) and op.error >= 0.0):
        failures.append(f"{op.name}: error {op.error!r} is not finite and nonnegative")
    if op.storage is None or op.storage > op.budget:
        failures.append(f"{op.name}: stored {op.storage} scalars over budget {op.budget}")


class SweepN2000:
    """`mrmf factor` on one large sparse nonsymmetric input, two methods."""

    name = "sweep-n2000"
    expected_spans = SWEEP_SPANS

    def __init__(self, work_dir, seed):
        self.path = Path(work_dir) / "spread_n2000.mtx"
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, SWEEP_N])
        rows, cols, vals = random_coo(rng, SWEEP_N, SWEEP_PER_ROW * SWEEP_N)
        self.path.write_bytes(mtx_text(SWEEP_N, rows, cols, vals))

    def run_pass(self):
        ops, failures = [], []
        start = clock()
        for method in SWEEP_METHODS:
            # parse per method, as one `mrmf factor` process does: the
            # parsed matrix is still COO, so the sparse split branch runs
            t0 = time.perf_counter()
            A, _ = data.parse_matrix_market(self.path.read_bytes())
            ops.append(Op("parse", time.perf_counter() - t0, entries=A.nnz))
            scalars = StorageBudget(SWEEP_FRACTION, DENSE).scalars(A)
            seed = bench.derive_seed(self.seed, self.name, method)
            t0 = time.perf_counter()
            try:
                err, storage, _ = bench.compression_error(A, method, scalars, seed)
            except Exception as exc:  # a refused or failed run is counted, not fatal
                failures.append(f"{method}: {type(exc).__name__}: {exc}")
                continue
            op = Op(method, time.perf_counter() - t0, err, storage, scalars)
            _check_run(op, failures)
            ops.append(op)
        return Pass(*elapsed(start), ops, attempted=len(SWEEP_METHODS), failures=failures)

    def summary(self, passes):
        out = {}
        for method in SWEEP_METHODS:
            runs = [op for p in passes for op in p.ops if op.name == method]
            if runs:
                out[f"time_s.{method}"] = (statistics.median(op.wall_s for op in runs), "s")
                out[f"error.{method}"] = (runs[0].error, "relative Frobenius")
        return out


class SuiteSparse:
    """`mrmf sweep` over a generated manifest and cache directory."""

    name = "suite-sparse"
    expected_spans = SWEEP_SPANS | {"bench.run", "bench.load", "cur.decompose", "cur.error"}

    def __init__(self, work_dir, seed, max_workers=2):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.max_workers = max_workers
        self.manifest = self.work_dir / "manifest.txt"
        self.cache_dir = self.work_dir / "cache"

    def _matrix(self, idx, n, per_row, sym_share, dense_lines):
        rng = np.random.default_rng([self.seed, idx])
        rows, cols, vals = random_coo(rng, n, per_row * n)
        b = np.zeros((n, n))
        b[rows, cols] = vals
        for i, line in enumerate(rng.choice(n, size=dense_lines, replace=False)):
            if i % 2 == 0:
                b[line, :] = rng.standard_normal(n)
            else:
                b[:, line] = rng.standard_normal(n)
        s, k = (b + b.T) * 0.5, (b - b.T) * 0.5
        a = math.sqrt(sym_share) * s / np.linalg.norm(s)
        a += math.sqrt(1.0 - sym_share) * k / np.linalg.norm(k)
        r, c = np.nonzero(a)
        return n, r, c, a[r, c]

    def setup(self):
        (self.cache_dir / SUITE_GROUP).mkdir(parents=True, exist_ok=True)
        names = []
        for idx, spec in enumerate(SUITE_SPECS):
            n, per_row, sym_share, dense_lines = spec
            name = f"s{idx}_n{n}_r{per_row}"
            kind = "mostly symmetric" if sym_share >= 0.5 else "mostly skew"
            text = mtx_text(
                *self._matrix(idx, *spec),
                comments=(f"name: {SUITE_GROUP}/{name}", f"kind: {kind}"),
            )
            (self.cache_dir / SUITE_GROUP / f"{name}.mtx").write_bytes(text)
            names.append(f"{SUITE_GROUP}/{name}")
        self.manifest.write_text("\n".join(names) + "\n")

    def config(self, max_workers):
        return bench.SweepConfig(
            manifest=str(self.manifest),
            methods=bench.BENCH_METHODS,
            fractions=SUITE_FRACTIONS,
            trials=1,
            seed=self.seed,
            output=str(self.work_dir / "sweep.csv"),  # run_sweep writes no files
            accounting=DENSE,
            cache_dir=str(self.cache_dir),
            max_workers=max_workers,
        )

    def run_pass(self, max_workers=None):
        config = self.config(max_workers or self.max_workers)
        start = clock()
        result = bench.run_sweep(config, http_get=_no_network)
        wall, cpu = elapsed(start)
        attempted = len(SUITE_SPECS) * len(config.methods) * len(config.fractions)
        failures = [f"{f['matrix']} {f['stage']}: {f['error']}" for f in result.failures]
        if len(result.rows) != attempted:
            failures.append(f"{len(result.rows)} sweep rows for {attempted} items attempted")
        ops = []
        for row in result.rows:
            op = Op(
                f"{row['name']}/{row['method']}@{row['fraction']:g}",
                row["wall_time_s"], row["error"], row["storage"], row["budget"],
            )
            expected = math.ceil(row["fraction"] * row["n"] ** 2)
            if row["budget"] != expected:
                failures.append(f"{op.name}: budget {row['budget']} is not {expected}")
            _check_run(op, failures)
            ops.append(op)
        return Pass(wall, cpu, ops, attempted=attempted, failures=failures)

    def summary(self, passes):
        walls = [op.wall_s for p in passes for op in p.ops]
        out = {
            "runs_per_s": (len(walls) / sum(p.wall_s for p in passes), "1/s"),
            "run_s.p50": (float(np.percentile(walls, 50)), "s"),
            "run_s.p90": (float(np.percentile(walls, 90)), "s"),
            "run_s.samples": (len(walls), "count"),
        }
        for method in bench.BENCH_METHODS:
            errs = [op.error for op in passes[0].ops
                    if op.name.rsplit("/", 1)[1].partition("@")[0] == method]
            if errs:
                out[f"error.{method}"] = (statistics.fmean(errs), "relative Frobenius")
        return out


def _no_network(url):
    raise data.FetchError(f"benchmark inputs are generated, not downloaded: {url}")


class IngestMtx:
    """Parse and write back about a million Matrix Market entries."""

    name = "ingest-mtx"
    expected_spans = {"data.parse", "data.write"}

    def __init__(self, work_dir, seed):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.files = {
            "general": self.work_dir / "general_n5000.mtx",
            "symmetric": self.work_dir / "symmetric_n5000.mtx",
        }
        self._written = {}

    def setup(self):
        n = INGEST_N
        rng = np.random.default_rng([self.seed, n])
        rows, cols, vals = random_coo(rng, n, INGEST_GENERAL_DRAWS)
        self.files["general"].write_bytes(mtx_text(n, rows, cols, vals))
        expected = {"general": (rows, cols, vals)}

        rows, cols, vals = random_coo(rng, n, INGEST_SYMMETRIC_DRAWS)
        lower = rows >= cols
        rows, cols = np.where(lower, rows, cols), np.where(lower, cols, rows)
        codes, first = np.unique(rows * n + cols, return_index=True)
        rows, cols, vals = codes // n, codes % n, vals[first]
        self.files["symmetric"].write_bytes(mtx_text(n, rows, cols, vals, "symmetric"))
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
        order = np.argsort(rows * n + cols)
        expected["symmetric"] = rows[order], cols[order], vals[order]
        self.expected = expected
        self._written = {}

    def run_pass(self):
        ops, outputs = [], []
        start = clock()
        for kind, path in self.files.items():
            text = path.read_bytes()
            t0 = time.perf_counter()
            A, meta = data.parse_matrix_market(text)
            ops.append(Op(f"parse-{kind}", time.perf_counter() - t0, entries=A.nnz))
            t0 = time.perf_counter()
            out = data.write_matrix_market(A)
            ops.append(Op(f"write-{kind}", time.perf_counter() - t0, entries=A.nnz))
            outputs.append((kind, A, meta, out))
        wall, cpu = elapsed(start)
        failures = [f for output in outputs for f in self._check(*output)]
        return Pass(wall, cpu, ops, attempted=len(ops), failures=failures)

    def _check(self, kind, A, meta, out):
        failures = []
        if not coo_equal(A, self.expected[kind]):
            failures.append(f"parse-{kind}: triplets differ from the generated input")
        if kind == "symmetric" and meta.numerical_symmetry != 1.0:
            failures.append(f"parse-{kind}: numerical symmetry {meta.numerical_symmetry}")
        digest = hashlib.sha256(out).digest()
        if kind not in self._written:
            # the first pass re-parses what it wrote; later passes must write
            # the same bytes
            back, _ = data.parse_matrix_market(out)
            if not coo_equal(back, self.expected[kind]):
                failures.append(f"write-{kind}: round trip changed the triplets")
            self._written[kind] = digest
        elif digest != self._written[kind]:
            failures.append(f"write-{kind}: output differs from the first pass")
        return failures

    def summary(self, passes):
        out = {}
        for verb in ("parse", "write"):
            ops = [op for p in passes for op in p.ops if op.name.startswith(verb)]
            rate = sum(op.entries for op in ops) / sum(op.wall_s for op in ops)
            out[f"{verb}_entries_per_s"] = (rate, "entries/s")
        return out


WORKLOADS = {w.name: w for w in (SweepN2000, SuiteSparse, IngestMtx)}
