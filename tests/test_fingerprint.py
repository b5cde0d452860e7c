"""The benchmark layer's outputs match the pinned fingerprint.

tests/fingerprint.py reruns a reduced suite-sparse sweep, the decay and
rank sweeps and `mrmf factor` for every method, and the fixture
tests/golden/fingerprint.json holds what it printed when it was generated.

Comparison rule: every seed, size parameter, storage count and budget must
match exactly, on any machine. Errors must match bit for bit (equal repr)
when the recorded environment (numpy version, BLAS build, BLAS thread
count) is the one the fixture was generated in; in any other environment a
BLAS build may sum in another order, so each error must lie within 1e-12
of the pinned one, relative.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mrmf

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "golden" / "fingerprint.json"
ERROR_RTOL = 1e-12


def test_outputs_match_pinned_fingerprint():
    src = str(Path(mrmf.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, str(TESTS / "fingerprint.py")], env=env,
                         capture_output=True, text=True, check=True)
    got, want = json.loads(run.stdout), json.loads(FIXTURE.read_text())
    assert [r["key"] for r in got["rows"]] == [r["key"] for r in want["rows"]]
    same_env = got["environment"] == want["environment"]
    for g, w in zip(got["rows"], want["rows"]):
        exact = ("seed", "param", "storage", "budget")
        assert {k: g[k] for k in exact} == {k: w[k] for k in exact}, g["key"]
        if same_env:
            assert g["error"] == w["error"], g["key"]
        else:
            assert math.isclose(float(g["error"]), float(w["error"]),
                                rel_tol=ERROR_RTOL, abs_tol=0.0), g["key"]
