"""Every script in demos/ runs to completion and cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    """The demo exits 0 and leaves its temp folder as it found it."""
    tmp, cwd = tmp_path / "tmp", tmp_path / "cwd"
    tmp.mkdir()
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, cwd=cwd, env=env)
    assert r.returncode == 0, r.stderr
    assert list(tmp.iterdir()) == []
