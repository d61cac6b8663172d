"""Every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
