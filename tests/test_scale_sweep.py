"""tests/scale_sweep.py runs its first mesh and writes what it prints as
JSON."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "scale_sweep.py"


# the face rows orientable g = 25 (23 drills of P^2_24) fits before its
# build: the two pierced faces, then per location after the first the
# pieces of the step before in both planes
ORIENTABLE_25_ROWS = 2 + 40 + 30 * 21


def test_scale_sweep_runs_its_first_mesh(tmp_path):
    """The first mesh's facts, its process times per face and the exact
    count of face rows its Newell passes fitted before its build."""
    out = tmp_path / "sweep.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "--limit", "1",
                          "--out", str(out)], capture_output=True, text=True,
                         check=True)
    lines = run.stdout.splitlines()
    assert len(lines) == 1 and "orientable g=25" in lines[0]
    (row,) = json.loads(out.read_text())["meshes"]
    assert (row["family"], row["genus"], row["verified_genus"]) == \
        ("orientable", 25, 25)
    assert row["verdict"] == "ccp_embedded" and row["witnesses"] == 0
    assert row["V"] - row["E"] + row["F"] == 2 - 2 * 25
    assert row["generate_us_per_face"] > 0 and row["verify_us_per_face"] > 0
    assert row["fitted_rows"] == ORIENTABLE_25_ROWS
    assert f" fitted rows {ORIENTABLE_25_ROWS} " in lines[0]


def test_scale_sweep_pairs_a_checkout_with_itself(tmp_path):
    """--against runs each mesh on both checkouts, here one checkout
    twice, and reports both sides' fitted rows and times, the ratio of
    their least times and the range of the per-round ratios; each side
    counts its own Newell passes."""
    out = tmp_path / "sweep.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "--limit", "1",
                          "--against", str(SCRIPT.parent.parent), "--out",
                          str(out)], capture_output=True, text=True,
                         check=True)
    (line,) = run.stdout.splitlines()
    assert "orientable g=25" in line and " generate a " in line
    assert line.count(", rounds [") == 2
    doc = json.loads(out.read_text())
    assert doc["against"] == str(SCRIPT.parent.parent)
    (row,) = doc["meshes"]
    assert (row["verified_genus"], row["verdict"]) == (25, "ccp_embedded")
    assert row["a_fitted_rows"] == row["fitted_rows"] == ORIENTABLE_25_ROWS
    assert (f" fitted rows a {ORIENTABLE_25_ROWS} b {ORIENTABLE_25_ROWS} "
            in line)
    for step in ("generate", "verify"):
        a, b = row[f"a_{step}_s"], row[f"{step}_s"]
        assert a > 0 and b > 0 and row[f"{step}_ratio"] == b / a - 1
        lo, hi = row[f"{step}_ratio_range"]
        assert -1 < lo <= hi and f"rounds [{lo:+.1%}, {hi:+.1%}]" in line
