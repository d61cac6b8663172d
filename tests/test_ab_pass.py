"""tests/ab_pass.py imports two checkouts side by side under their own
package names and times them in alternating pairs of passes: here one
checkout against itself, for two rounds of two p2-sweep items, and of
two items of every workload in turn, and the line counts of its
library."""

import ab_pass


def test_a_checkout_against_itself(capsys):
    assert ab_pass.main(["--against", str(ab_pass.ROOT), "--rounds", "2",
                         "--workload", "p2-sweep", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "p2-sweep, 2 items, 2 rounds, seed 1" in out
    assert "of 2" in out.splitlines()[-2]


def test_all_workloads_in_turn(capsys):
    assert ab_pass.main(["--against", str(ab_pass.ROOT), "--rounds", "2",
                         "--workload", "all", "--limit", "2"]) == 0
    *lines, count = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == list(ab_pass.WORKLOADS)
    for line in lines:
        assert ", 2 items, 2 rounds, seed 1: median pass a " in line
        assert line.endswith("of 2")
    n = ab_pass.source_lines(ab_pass.ROOT)
    c = ab_pass.code_lines(ab_pass.ROOT)
    assert count == (f"src/ccpforge non-blank lines: a {n}, b {n} (+0); "
                     f"code lines: a {c}, b {c} (+0)")


def test_source_lines_count_the_non_blank_lines(tmp_path):
    package = tmp_path / "src" / "ccpforge"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n   \ny = 2\n")
    (package / "b.py").write_text("\n# note\n")
    (package / "c.txt").write_text("not python\n")
    assert ab_pass.source_lines(tmp_path) == 3


def test_code_lines_leave_out_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "ccpforge"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a note\nx = 1  # set\n\n'
        'def f():\n    """One line."""\n    return ("""a\nb""")\n')
    (package / "b.py").write_text("\n# note\n")
    assert ab_pass.source_lines(tmp_path) == 9
    assert ab_pass.code_lines(tmp_path) == 4
