"""benchmarks/mutants.py's table applies at this tree; no mutant is run here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    path = ROOT / "benchmarks" / "mutants.py"
    spec = importlib.util.spec_from_file_location("bench_mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once_and_every_kill_test_exists():
    mutants = _load_mutants()
    assert mutants.MUTANTS
    assert mutants.problems() == []


def test_problems_names_a_text_that_does_not_occur_once(tmp_path):
    mutants = _load_mutants()
    (tmp_path / "a.py").write_text("x = 1\nx = 1\n")
    (tmp_path / "test_a.py").write_text("def test_a():\n    pass\n")
    table = (
        mutants.Mutant("twice", "a.py", "x = 1", "x = 2", ("test_a.py::test_a",)),
        mutants.Mutant("absent", "a.py", "y = 1", "y = 2", ("test_a.py::test_b[1]",)),
    )
    assert mutants.problems(tmp_path, table) == [
        "twice: old text occurs 2 times in a.py",
        "absent: old text occurs 0 times in a.py",
        "absent: no test test_a.py::test_b[1]",
    ]
