"""The suite's own pytest settings: warning filters must not hide failures."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_its_example(tmp_path):
    # the report hook of a failing @given test imports modules that warn;
    # the suite escalates DeprecationWarning, which must not turn the report
    # into an INTERNALERROR
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
