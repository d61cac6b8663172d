"""Paired timing of benchmark workloads, this checkout against another,
in one process:

    python3 tests/ab_pass.py --against-rev HEAD~ --workload certify-files
    python3 tests/ab_pass.py --against ../other-checkout --rounds 100
    python3 tests/ab_pass.py --against-rev HEAD~ --workload all

The other checkout's src/ccpforge is imported as package `ccpforge_a` and
this one's as `ccpforge_b`.  Each side gets its own copy of
perfbench/workloads.py (read, not changed) whose library lookups resolve
to its package, and builds the items of the chosen workload (the seed
draws p2-sweep's parameters; certify-files writes its files to a
temporary directory per side).  Both sides must give equal records, item
for item.  Then the sides alternate whole passes over their items, the
first side flipping every round and gc.collect() running before each
pass, and the script prints one line: each side's median pass, the
median and quartiles of the paired ratios b / a - 1 and the rounds b
won.  --workload all times the three workloads in turn, a line each, so
that one command shows the workloads a change does not aim at too.  A
last line gives each side's count of non-blank lines in src/ccpforge,
and of code lines, those with a token that is no comment or docstring,
so that it also shows what a change saves or costs in code, and whether
a saving is more than deleted comments.  On
a machine whose speed drifts, a pair of adjacent passes sees nearly the
same machine where two runs minutes apart do not.  --against-rev REV
times the files of git revision REV, extracted into a temporary
directory that is removed afterwards.  pytest does not collect this
file; tests/test_ab_pass.py runs a checkout against itself for two
rounds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load(name: str, path: Path, package: Path | None = None):
    """Import the module at `path` (a package when `package` is its
    directory) under `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None
        else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = ("construct-chain", "certify-files", "p2-sweep")


def side(root: Path, name: str):
    """perfbench/workloads.py run against checkout `root`'s library,
    imported as package `name`."""
    package = root / "src" / "ccpforge"
    load(name, package / "__init__.py", package)
    workloads = load(f"{name}_workloads", ROOT / "perfbench" / "workloads.py")
    workloads._mod = lambda module: importlib.import_module(
        name + module.removeprefix("ccpforge"))
    return workloads


def source_lines(root: Path) -> int:
    """The non-blank lines of checkout `root`'s src/ccpforge."""
    return sum(1 for path in (root / "src" / "ccpforge").glob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip())


# tokens that hold no code, or only end or indent a line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(root: Path) -> int:
    """The lines of checkout `root`'s src/ccpforge that hold a token other
    than a comment or a docstring, a string that is a statement of its
    own; one tokenize pass per file."""
    total = 0
    for path in (root / "src" / "ccpforge").glob("*.py"):
        tokens = list(tokenize.generate_tokens(
            io.StringIO(path.read_text(encoding="utf-8")).readline))
        lines: set[int] = set()
        starts = True               # whether a statement starts here
        for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
            if tok.type in _LAYOUT:
                starts = starts or tok.type in (
                    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
                continue
            if not (starts and tok.type == tokenize.STRING
                    and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
                lines.update(range(tok.start[0], tok.end[0] + 1))
            starts = False
        total += len(lines)
    return total


def timed_pass(items) -> float:
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        item.run()
    return time.perf_counter() - t0


def compare(other: Path, workloads: list[str], rounds: int, seed: int,
            limit: int | None) -> int:
    """Per workload in turn, time `rounds` alternating pairs of passes,
    checkout `other` (a) against this one (b), and print its summary
    line, then each side's source_lines and code_lines; 1 when the
    records of a workload differ (it is not timed), else 0."""
    sides = {"a": side(other, "ccpforge_a"), "b": side(ROOT, "ccpforge_b")}
    status = 0
    for workload in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            items = {}
            for name, module in sides.items():
                workdir = Path(tmp) / name
                workdir.mkdir()
                items[name] = module.SETUP[workload](
                    np.random.default_rng(seed), workdir, limit)
            records = {name: [item.run() for item in run]
                       for name, run in items.items()}
            if records["a"] != records["b"]:
                bad = [item.item_id for item, x, y in zip(
                    items["a"], records["a"], records["b"]) if x != y]
                print(f"{workload}: the records differ: {', '.join(bad)}",
                      file=sys.stderr)
                status = 1
                continue
            times = {"a": [], "b": []}
            for r in range(rounds):
                for name in ("ab" if r % 2 == 0 else "ba"):
                    times[name].append(timed_pass(items[name]))
        ratios = [b / a - 1 for a, b in zip(times["a"], times["b"])]
        low, _, high = (statistics.quantiles(ratios, n=4)
                        if len(ratios) > 1 else ratios * 3)
        print(f"{workload}, {len(items['b'])} items, {rounds} rounds, "
              f"seed {seed}: median pass a "
              f"{statistics.median(times['a']):.4f} s, b "
              f"{statistics.median(times['b']):.4f} s; b / a - 1: median "
              f"{statistics.median(ratios):+.2%} [{low:+.2%}, {high:+.2%}]; "
              f"b faster in {sum(x < 0 for x in ratios)} of {rounds}")
    a, b = source_lines(other), source_lines(ROOT)
    ca, cb = code_lines(other), code_lines(ROOT)
    print(f"src/ccpforge non-blank lines: a {a}, b {b} ({b - a:+d}); "
          f"code lines: a {ca}, b {cb} ({cb - ca:+d})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="DIR", type=Path,
                       help="time against checkout DIR")
    group.add_argument("--against-rev", metavar="REV",
                       help="time against git revision REV")
    parser.add_argument("--workload", default="certify-files",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N items")
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    run = (workloads, args.rounds, args.seed, args.limit)
    if args.against is not None:
        return compare(args.against.resolve(), *run)
    from corpus_digest import extract   # imported only for a revision
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.against_rev, Path(tmp))
        return compare(Path(tmp), *run)


if __name__ == "__main__":
    sys.exit(main())
