"""Spans around calls into each mrmf module, recorded from outside the package.

A Tracer replaces each public function named in TARGETS with a wrapper, at
its own module (so local calls such as ``cur_decompose`` inside
``hybrid_compress`` are seen) and at every module that imports it with
``from .<module> import``. The wrappers are removed again on exit, so the
untraced passes of the same process run the program's own functions.

Each span records its name, start, end, thread CPU time and parent; the
parent comes from a thread-local stack, so runs on the sweep's pool threads
nest under their own root. A span with no parent is a root and opens a new
operation id that its descendants inherit. Spans stay in memory until
``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


def _conjugation_bytes(args, result):
    """8 B x sum over levels of the k x k active block each matvec reads."""
    n = args["a"].shape[0]
    stop = max(args["core_size"], 1)
    k = range(stop + 1, n + 1)
    return {"levels": len(result[0]), "nominal_bytes": 8 * sum(i * i for i in k)}


def _two_basis_bytes(args, result):
    """Row phase reads (n-t) x (n-t), column phase (n-t-1) x (n-t) at level t."""
    n = args["a"].shape[0]
    active = range(args["core_size"] + 1, n + 1)
    reads = sum(k * k + (k - 1) * k for k in active)
    return {"levels": len(result[0]) + len(result[1]), "nominal_bytes": 8 * reads}


def _sparsify_fill(args, result):
    """Kept off-core entries against the entry budget m the rule allowed."""
    n = args["h"].shape[0]
    rows, cols, rule = args["row_set"], args["col_set"], args["rule"]
    if rule.kind == "corediag":
        budget = sum(1 for i in range(n) if i not in rows or i not in cols)
    else:
        budget = rule.m if rule.m is not None else max(n - len(rows), 0)
    return {"offcore_kept": len(result.offcore), "offcore_budget": budget}


def _murnaghan_fill(args, result):
    n = args["h"].shape[0]
    budget = ((n - len(args["core_set"])) // 2) * 2
    return {"offcore_kept": len(result.offcore), "offcore_budget": budget}


def _parsed_entries(args, result):
    return {"entries": result[0].nnz}


def _written_entries(args, result):
    return {"entries": args["A"].nnz}


def _compression(args, result):
    return {"method": args["method"], "storage": result[1], "budget": args["scalars"]}


# (module, public function, span name, attributes taken from args and result)
TARGETS = (
    ("data", "parse_matrix_market", "data.parse", _parsed_entries),
    ("data", "write_matrix_market", "data.write", _written_entries),
    ("data", "fetch_suitesparse", "bench.load", None),
    ("matrices", "split_symmetric_skew", "matrices.split", None),
    ("matrices", "frobenius_relative_error", "matrices.error", None),
    ("storage", "solve_core_size", "storage.solve", None),
    ("jacobi", "conjugation_sweep", "jacobi.conjugation_sweep", _conjugation_bytes),
    ("jacobi", "two_basis_sweep", "jacobi.two_basis_sweep", _two_basis_bytes),
    ("jacobi", "unpermute", "jacobi.unpermute", None),
    ("jacobi", "conjugate_reconstruct", "jacobi.reconstruct", None),
    ("jacobi", "two_basis_reconstruct", "jacobi.reconstruct", None),
    ("cores", "sparsify", "cores.sparsify", _sparsify_fill),
    ("cores", "murnaghan_sparsify", "cores.sparsify", _murnaghan_fill),
    ("cur", "cur_decompose", "cur.decompose", None),
    ("cur", "cur_relative_error", "cur.error", None),
    ("direct", "factor_direct", "direct.factor", None),
    ("symmetric", "factor_symmetric", "symmetric.factor", None),
    ("skew", "factor_skew", "skew.factor", None),
    ("additive", "factor_additive", "additive.factor", None),
    ("bench", "compression_error", "bench.compression_error", _compression),
    ("bench", "run_sweep", "bench.run", None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def import_sites(package, module, name):
    """Modules of the package that bind `name` by a top-level `from .module import`."""
    sites = []
    for path in sorted(Path(package.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                for alias in node.names:
                    if alias.name == name:
                        site = package.__name__ if path.stem == "__init__" else f"{package.__name__}.{path.stem}"
                        sites.append((importlib.import_module(site), alias.asname or name))
    return sites


class Tracer:
    """In-memory span recorder that patches the TARGETS while installed."""

    def __init__(self, package):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._t0 = time.perf_counter()
        self._patches = []
        self.missing = []
        for module, fn_name, span_name, extract in TARGETS:
            home = importlib.import_module(f"{package.__name__}.{module}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{module}.{fn_name} no longer exists")
                continue
            wrapped = self._wrap(original, span_name, extract)
            for site, attr in [(home, fn_name)] + import_sites(package, module, fn_name):
                self._patches.append((site, attr, original, wrapped))

    def _wrap(self, fn, span_name, extract):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                id=next(tracer._ids), name=span_name,
                parent=parent.id if parent else None,
                op=parent.op if parent else next(tracer._ops),
                thread=threading.get_ident(),
            )
            stack.append(span)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = extract(bound.arguments, result)
            return result

        return traced

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def installed(self):
        """Route every call through the wrappers for the duration of the block."""
        for site, attr, _, wrapped in self._patches:
            setattr(site, attr, wrapped)
        try:
            yield self
        finally:
            for site, attr, original, _ in self._patches:
                setattr(site, attr, original)

    def check(self, expected):
        """Names that never fired, and children that outlast their parent."""
        fired = {s.name for s in self.spans}
        problems = self.missing + [f"span {name} never fired" for name in sorted(expected - fired)]
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            p = by_id.get(s.parent)
            if p is not None and (s.start < p.start or s.end > p.end):
                problems.append(f"span {s.name} ({s.duration:.6f} s) exceeds its parent {p.name}")
        return problems

    def write(self, path):
        with open(path, "w") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "thread": s.thread, "start": s.start - self._t0,
                    "end": s.end - self._t0, "cpu": s.cpu, "attrs": s.attrs,
                }) + "\n")


def layer_metrics(spans, passes):
    """Per-pass per-layer figures from the spans of `passes` traced passes."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def busy(name):
        return sum(s.duration for s in spans if s.name == name)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def self_time(name):
        return sum(
            s.duration - sum(c.duration for c in children.get(s.id, ()))
            for s in spans if s.name == name
        )

    runs = [s for s in spans if s.name == "bench.compression_error"]
    run_wall = sum(s.duration for s in runs)
    run_cpu = sum(s.cpu for s in runs)
    sweep_s = busy("jacobi.two_basis_sweep") + busy("jacobi.conjugation_sweep")
    levels = total("jacobi.two_basis_sweep", "levels") + total("jacobi.conjugation_sweep", "levels")
    nominal = total("jacobi.two_basis_sweep", "nominal_bytes") + total(
        "jacobi.conjugation_sweep", "nominal_bytes")
    kept = total("cores.sparsify", "offcore_kept")
    entry_budget = total("cores.sparsify", "offcore_budget")
    stored = sum(s.attrs.get("storage", 0) for s in runs)
    budget = sum(s.attrs.get("budget", 0) for s in runs)

    def ratio(num, den):
        return num / den if den else 0.0

    per_pass = {
        "jacobi.two_basis_sweep_s": busy("jacobi.two_basis_sweep"),
        "jacobi.conjugation_sweep_s": busy("jacobi.conjugation_sweep"),
        "jacobi.levels": levels,
        "jacobi.sweep_nominal_bytes": nominal,
        "jacobi.unpermute_s": busy("jacobi.unpermute"),
        "jacobi.reconstruct_s": busy("jacobi.reconstruct"),
        "cores.sparsify_s": busy("cores.sparsify"),
        "cores.offcore_kept": kept,
        "matrices.split_s": busy("matrices.split"),
        "matrices.error_s": busy("matrices.error"),
        "storage.solve_s": busy("storage.solve"),
        "cur.decompose_s": busy("cur.decompose"),
        "cur.error_s": busy("cur.error"),
        "direct.self_s": self_time("direct.factor"),
        "symmetric.self_s": self_time("symmetric.factor"),
        "skew.self_s": self_time("skew.factor"),
        "additive.self_s": self_time("additive.factor"),
        "data.parse_s": busy("data.parse"),
        "data.parse_entries": total("data.parse", "entries"),
        "data.write_s": busy("data.write"),
        "data.write_entries": total("data.write", "entries"),
        "bench.run_s": busy("bench.run"),
        "bench.load_s": busy("bench.load"),
        "bench.item_cpu_s": run_cpu,
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics.update({
        "jacobi.levels_per_s": ratio(levels, sweep_s),
        "jacobi.sweep_GBps": ratio(nominal, sweep_s) / 1e9,
        "jacobi.sweep_share": ratio(sweep_s, run_wall),
        "cores.offcore_fill": ratio(kept, entry_budget),
        "storage.budget_fill": ratio(stored, budget),
        "bench.item_wait_frac": 1.0 - ratio(run_cpu, run_wall) if run_wall else 0.0,
    })
    return metrics
