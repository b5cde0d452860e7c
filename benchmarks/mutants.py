"""Run the recorded mutants of the program against the tests that kill them.

Run from anywhere in a checkout:

    python3 benchmarks/mutants.py

Each entry of MUTANTS is an exact replacement of one text in one file of
the checkout, with the tier-1 node ids expected to kill it. The script
copies the checkout (without .git and caches) into one temporary
directory and checks that every listed node id passes there. Then for
each mutant it applies the replacement, runs pytest on that mutant's node
ids alone, and puts the file back. It prints killed or survived per
mutant with the time taken. It exits 1 when a mutant survives, when
pytest ends in anything but a pass or a test failure (a node id not
found, say), when a node id fails unmutated, or when an old text does not
occur exactly once in its file. It writes nothing inside the checkout.

A survivor is a finding: add or sharpen a test, never drop the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
_FINGERPRINT = "tests/test_fingerprint.py::test_outputs_match_pinned_fingerprint"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout root
    old: str
    new: str
    kills: tuple  # pytest node ids, any one of which must fail


MUTANTS = (
    Mutant(
        "kept-by-ignores-rule", "src/mrmf/direct.py",
        "return lambda h, rows, cols: sparsify(h, rows, cols, rule)",
        'return lambda h, rows, cols: sparsify(h, rows, cols, type(rule)("topn"))',
        ("tests/test_sym.py::test_core_block_symmetric_and_core_diagonal_form",
         "tests/test_direct.py::test_diagonal_exact_corediag_any_core",
         "tests/test_bench.py::test_predicted_storage_matches_actual_runs",
         _FINGERPRINT),
    ),
    Mutant(
        "symmetric-cut-topn", "src/mrmf/symmetric.py",
        "kept_by(Sparsifier(CORE_DIAGONAL))", 'kept_by(Sparsifier("topn"))',
        ("tests/test_sym.py::test_exhaustive_small_check",
         "tests/test_sym.py::test_monotone_budget",
         "tests/test_sym.py::test_core_block_symmetric_and_core_diagonal_form",
         "tests/test_additive.py::test_pythagorean_error_split",
         "tests/test_additive.py::test_reconstruction_parts_match_halves",
         _FINGERPRINT),
    ),
    Mutant(
        "hybrid-cut-topn", "src/mrmf/cur.py",
        "kept_by(Sparsifier(GREEDY_TOP_N))", 'kept_by(Sparsifier("topn"))',
        ("tests/test_bench.py::test_hybrid_at_full_rank_matches_direct_run", _FINGERPRINT),
    ),
    Mutant(
        "cut-sets-swapped", "src/mrmf/direct.py",
        "h = truncate(hbar, rows, cols)", "h = truncate(hbar, cols, rows)",
        ("tests/test_direct.py::test_retired_rows_and_cols_never_reused", _FINGERPRINT),
    ),
    Mutant(
        "rule-lets-dotdot-through", "src/mrmf/data.py",
        'part not in ("", ".", "..")', 'part not in ("", ".")',
        ("tests/test_dataio.py::test_fetch_refuses_a_key_outside_the_cache[../notes]",
         "tests/test_bench.py::test_load_manifest_refuses_a_key_outside_the_cache[../notes]",
         "tests/test_cli.py::test_factor_key_outside_the_cache_is_usage_error[../notes]"),
    ),
    Mutant(
        "fetch-skips-rule", "src/mrmf/data.py",
        "    if not is_cache_key(group, name):\n        raise ValueError(f\"expected a group",
        "    if False:\n        raise ValueError(f\"expected a group",
        ("tests/test_dataio.py::test_fetch_refuses_a_key_outside_the_cache",),
    ),
    Mutant(
        "strip-dropped", "src/mrmf/data.py",
        'return (group.strip(), name.strip()) if slash else ("", group.strip())',
        'return (group, name) if slash else ("", group)',
        ("tests/test_bench.py::test_load_manifest_refuses_repeated_matrix",
         "tests/test_cli.py::test_factor_strips_group_and_name_as_the_manifest_does",
         "tests/test_dataio.py::test_parse_scrapes_name_and_kind"),
    ),
    Mutant(
        "doubling-dropped", "src/mrmf/data.py",
        "time.sleep(0.5 * 2**attempt)", "time.sleep(0.5)",
        ("tests/test_dataio.py::test_fetch_retries_then_succeeds",
         "tests/test_dataio.py::test_fetch_gives_up_after_retries"),
    ),
    Mutant(
        "json-output-let-through", "src/mrmf/cli.py",
        'if not csv_path.name or csv_path.with_suffix(".json") == csv_path:',
        "if not csv_path.name:",
        ("tests/test_cli.py::test_sweep_output_is_checked_before_the_sweep_runs[json]",),
    ),
    Mutant(
        "record-counts-one", "src/mrmf/storage.py",
        "return sum(a.size * len(a.dtype.names or (a.dtype,)) for a in arrays)",
        "return sum(a.size for a in arrays)",
        ("tests/test_factorization.py::test_storage_count_is_the_stored_arrays",
         "tests/test_bench.py::test_predicted_storage_matches_actual_runs",
         _FINGERPRINT),
    ),
    Mutant(
        "conjugate-counts-twice", "src/mrmf/direct.py",
        "twins = () if self.conjugate else (self.right, self.H.col_set)",
        "twins = (self.right, self.H.col_set)",
        ("tests/test_sym.py::test_full_core_is_lossless_with_full_storage",
         "tests/test_factorization.py::test_conjugate_routes_store_one_sequence_and_core_set",
         "tests/test_factorization.py::test_storage_count_is_the_stored_arrays",
         _FINGERPRINT),
    ),
    Mutant(
        "cur-ids-uncounted", "src/mrmf/cur.py",
        "stored_scalars(self.C, self.U, self.R, self.col_ids, self.row_ids)",
        "stored_scalars(self.C, self.U, self.R)",
        ("tests/test_lowrank.py::test_storage_golden",
         "tests/test_bench.py::test_predicted_storage_matches_actual_runs",
         "tests/test_factorization.py::test_storage_count_is_the_stored_arrays",
         _FINGERPRINT),
    ),
    Mutant(
        "non-finite-let-through", "src/mrmf/matrices.py",
        "if not np.all(np.isfinite(arr)):", "if False:",
        ("tests/test_matcore.py::test_non_finite_entries_are_refused_in_both_forms",
         "tests/test_dataio.py::test_parse_error_taxonomy",
         "tests/test_cli.py::test_factor_non_finite_entry_is_usage_error"),
    ),
    Mutant(
        "coo-lengths-unchecked", "src/mrmf/matrices.py",
        "if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:",
        "if rows.ndim != 1:",
        ("tests/test_matcore.py::test_from_coo_refuses_unequal_lengths_and_out_of_range",),
    ),
    Mutant(
        "coo-range-unchecked", "src/mrmf/matrices.py",
        "if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):",
        "if False:",
        ("tests/test_matcore.py::test_from_coo_refuses_unequal_lengths_and_out_of_range",),
    ),
    Mutant(
        "empty-parity-unguarded", "src/mrmf/matrices.py",
        "    if not a.size:\n        return\n", "",
        ("tests/test_matcore.py::test_parity_check_passes_a_coo_matrix_without_entries",),
    ),
    Mutant(
        "unknown-method-let-through", "src/mrmf/bench.py",
        'if method != "cur" and _route(method) != "direct":', "if False:",
        ("tests/test_bench.py::test_compression_error_refuses_an_unknown_method[symmetric]",),
    ),
    Mutant(
        "low-mass-draw-repeats", "src/mrmf/cur.py",
        "extra = rng.choice(rest, size=r - nz, replace=False)",
        "extra = rng.choice(rest, size=r - nz, replace=True)",
        ("tests/test_lowrank.py::test_rank_above_the_nonzero_columns_draws_the_rest_without_repeats",),
    ),
    Mutant(
        "out-check-skipped", "src/mrmf/cli.py",
        "for path in map(Path, paths):", "for path in map(Path, paths[:0]):",
        ("tests/test_cli.py::test_out_is_checked_before_any_work",
         "tests/test_cli.py::test_sweep_output_is_checked_before_the_sweep_runs"),
    ),
)


def problems(root=ROOT, mutants=MUTANTS):
    """What keeps the table from running at root: an old text that does not
    occur exactly once, or a node id whose test is not defined."""
    found = []
    for m in mutants:
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            found.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            found.append(f"{m.name}: new text equals the old")
        for node in m.kills:
            path, _, test = node.partition("::")
            test = test.partition("[")[0]
            source = root / path
            if not test or not source.is_file() or f"def {test}(" not in source.read_text():
                found.append(f"{m.name}: no test {node}")
    return found


def _copy_checkout(dest):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    "cache", "BENCH_*.json", ".perfbench", ".benchmarks")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _pytest(tree, nodes):
    """pytest's exit code on nodes in tree, and its last output line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pytest took over {RUN_TIMEOUT_S} s"
    return proc.returncode, " ".join((proc.stdout + proc.stderr).strip().splitlines()[-1:])


def run(mutant, tree):
    """'killed', 'survived' or an error line, after running mutant in tree."""
    path = tree / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        code, last = _pytest(tree, mutant.kills)
    finally:
        path.write_text(original)
    if code in (0, 1):
        return "survived" if code == 0 else "killed"
    return f"error: pytest exited {code}: {last}"


def main():
    found = problems()
    if found:
        print("\n".join(found), file=sys.stderr)
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mrmf-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_checkout(tree)
        # a node id that fails unmutated would read as a kill
        code, last = _pytest(tree, sorted({node for m in MUTANTS for node in m.kills}))
        if code != 0:
            print(f"the unmutated tree fails its kill tests: {last}", file=sys.stderr)
            return 1
        for m in MUTANTS:
            start = time.perf_counter()
            outcome = run(m, tree)
            bad += outcome != "killed"
            print(f"{outcome:<8} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
