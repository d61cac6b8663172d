"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

Runs every workload on its first item, untraced and traced, and checks
that each metric BENCHMARK.json names is reported with its unit, that the
items match the committed reference (and that a wrong record would not),
and that span self times are non-negative and sum to at most their root
item span.  Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import os
import sys

import run

SLACK_S = 1e-9     # float rounding in span arithmetic


def check_units(result, declared, label, problems):
    got = result["metrics"]
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{label}: {name} unit {got[name]['unit']!r}, "
                            f"BENCHMARK.json says {unit!r}")
    extra = set(got) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")


def check_spans(tracer, label, problems):
    selfs = tracer.self_times()
    roots: dict[int, float] = {}
    for span, self_s in zip(tracer.spans, selfs):
        name, start, end, parent, root = span
        if end is None:
            problems.append(f"{label}: span {name} never closed")
            continue
        if self_s < -SLACK_S:
            problems.append(f"{label}: span {name} self time {self_s}")
        roots[root] = roots.get(root, 0.0) + self_s
    for root, total in roots.items():
        span = tracer.spans[root]
        if span[0] != "item":
            problems.append(f"{label}: root span {span[0]} is not an item")
        if total > span[2] - span[1] + SLACK_S:
            problems.append(f"{label}: self times {total} exceed root span "
                            f"{span[2] - span[1]}")
    if not roots:
        problems.append(f"{label}: no spans recorded")


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    import_s = run.import_library()
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} trace {trace}"
            result, lines, tracers = run.measure(workload, 0, 1, trace,
                                                 import_s, limit=1)
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: reference check failed: "
                                + " | ".join(lines))
            check_units(result, declared, label, problems)
            printed = {(t[0], t[2]) for t in map(str.split, lines)
                       if len(t) >= 3}
            for spec in declared:
                if (spec["name"], spec["unit"]) not in printed:
                    problems.append(f"{label}: {spec['name']} not printed "
                                    f"with unit {spec['unit']}")
            for tracer in tracers:
                check_spans(tracer, label, problems)

    reference = json.loads((run.HERE / "reference.json").read_text())
    entry = reference["certify-files"]["minimal-10"]
    if not workloads.mismatches(dict(entry, genus=entry["genus"] + 1), entry):
        problems.append("reference check accepts a wrong genus")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
