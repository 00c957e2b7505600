"""Contract of the traced benchmark: benchmark/child.py wraps the library's
public functions and reads the operator's storage fields (A, M_c, M_L,
_chol, _dual_kernel_cache) and grid.Field.__post_init__.  A traced run of a
time-stepping and a stationary config must still succeed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_CONFIGS = {
    "evolve-ch": "a = 0\nb = 1\nM = 32\ns = 0.5\nsigma = 0.75\np = 4\ntau = 1e-3\nT = 0.01\n",
    "stationary": ("a = 0\nb = 10\nM = 31\nsigma = 0.5\np = 4\nexperiment = stationary\n"
                   "sequence = 0.5, 0.3\n"),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_traced_child_run_succeeds(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(_CONFIGS[name])
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmark" / "child.py"), str(record), str(cfg),
         "--output", str(tmp_path / "out"), "--trace"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0, proc.stderr
    assert rec["trace"]["operator_bytes"] > 0
    assert rec["trace"]["fields_created"] > 0
