"""The README's Layout block names every library module."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_names_every_module():
    readme = (ROOT / "README.md").read_text()
    layout = re.search(r"^## Layout\n+```\n(.*?)^```", readme, re.S | re.M).group(1)
    modules = sorted(p.stem for p in (ROOT / "src" / "mrmf").glob("*.py") if p.stem != "__init__")
    missing = [m for m in modules if not re.search(rf"\b{m}\b", layout)]
    assert modules and not missing, f"README Layout omits {missing}"
    assert re.search(r"^perfbench/", layout, re.M)
