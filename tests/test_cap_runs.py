"""tests/cap_runs.py's rows and its row function, on the last genus of
the smallest row."""

import cap_runs
from ccpforge import CATALOG


def test_the_run_takes_each_row_with_more_than_one_genus():
    """One row per CATALOG row of more than one genus, at its last
    genus, and nonorientable on both routes."""
    rows = cap_runs.rows()
    assert ("v7gm7", 6, False) in rows and ("v8g", 12000, False) in rows
    assert [row[0] for row in rows].count("nonorientable") == 2
    assert {row[0] for row in rows} == {
        info.family for info in CATALOG if len(info.genera) > 1}


def test_a_row_reports_its_vertex_count_and_process_seconds():
    v, seconds = cap_runs.run_row("v7gm7", 6, False)
    assert v == 35 and 0.0 <= seconds < 5.0
