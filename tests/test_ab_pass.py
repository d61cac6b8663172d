"""tests/ab_pass.py imports two checkouts side by side under their own
package names and times them in alternating pairs of passes: here one
checkout against itself, for two rounds of two p2-sweep items, and of
two items of every workload in turn."""

import ab_pass


def test_a_checkout_against_itself(capsys):
    assert ab_pass.main(["--against", str(ab_pass.ROOT), "--rounds", "2",
                         "--workload", "p2-sweep", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "p2-sweep, 2 items, 2 rounds, seed 1" in out
    assert "of 2" in out.splitlines()[-1]


def test_all_workloads_in_turn(capsys):
    assert ab_pass.main(["--against", str(ab_pass.ROOT), "--rounds", "2",
                         "--workload", "all", "--limit", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == list(ab_pass.WORKLOADS)
    for line in lines:
        assert ", 2 items, 2 rounds, seed 1: median pass a " in line
        assert line.endswith("of 2")
