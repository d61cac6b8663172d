"""Paired timing of one benchmark workload, this checkout against another,
in one process:

    python3 tests/ab_pass.py --against-rev HEAD~ --workload certify-files
    python3 tests/ab_pass.py --against ../other-checkout --rounds 100

The other checkout's src/ccpforge is imported as package `ccpforge_a` and
this one's as `ccpforge_b`.  Each side gets its own copy of
perfbench/workloads.py (read, not changed) whose library lookups resolve
to its package, and builds the items of the chosen workload (the seed
draws p2-sweep's parameters; certify-files writes its files to a
temporary directory per side).  Both sides must give equal records, item
for item.  Then the sides alternate whole passes over their items, the
first side flipping every round and gc.collect() running before each
pass, and the script prints the median and quartiles of the paired
ratios b / a - 1 and the rounds b won.  On a machine whose speed drifts,
a pair of adjacent passes sees nearly the same machine where two runs
minutes apart do not.  --against-rev REV times the files of git revision
REV, extracted into a temporary directory that is removed afterwards.
pytest does not collect this file; tests/test_ab_pass.py runs a checkout
against itself for two rounds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name: str, path: Path, package: Path | None = None):
    """Import the module at `path` (a package when `package` is its
    directory) under `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None
        else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side_items(root: Path, name: str, workload: str, seed: int,
               workdir: Path, limit: int | None):
    """The items of `workload` run against checkout `root`'s library,
    imported as package `name`."""
    package = root / "src" / "ccpforge"
    _load(name, package / "__init__.py", package)
    workloads = _load(f"{name}_workloads", ROOT / "perfbench" / "workloads.py")
    workloads._mod = lambda module: importlib.import_module(
        name + module.removeprefix("ccpforge"))
    return workloads.SETUP[workload](np.random.default_rng(seed), workdir,
                                     limit)


def timed_pass(items) -> float:
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        item.run()
    return time.perf_counter() - t0


def compare(other: Path, workload: str, rounds: int, seed: int,
            limit: int | None) -> int:
    """Time `rounds` alternating pairs of passes, checkout `other` (a)
    against this one (b), and print the summary; 1 when the records
    differ, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for name, root in (("a", other), ("b", ROOT)):
            workdir = Path(tmp) / name
            workdir.mkdir()
            sides[name] = side_items(root, f"ccpforge_{name}", workload,
                                     seed, workdir, limit)
        records = {name: [item.run() for item in items]
                   for name, items in sides.items()}
        if records["a"] != records["b"]:
            bad = [item.item_id for item, x, y in zip(
                sides["a"], records["a"], records["b"]) if x != y]
            print(f"the records differ: {', '.join(bad)}", file=sys.stderr)
            return 1
        times = {"a": [], "b": []}
        for r in range(rounds):
            for name in ("ab" if r % 2 == 0 else "ba"):
                times[name].append(timed_pass(sides[name]))
    ratios = [b / a - 1 for a, b in zip(times["a"], times["b"])]
    low, mid, high = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    print(f"{workload}, {len(sides['b'])} items, {rounds} rounds, seed {seed}")
    for name in "ab":
        print(f"  {name}: median pass {statistics.median(times[name]):.4f} s")
    print(f"  b / a - 1: median {statistics.median(ratios):+.2%} "
          f"[{low:+.2%}, {high:+.2%}]; b faster in "
          f"{sum(x < 0 for x in ratios)} of {rounds}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="DIR", type=Path,
                       help="time against checkout DIR")
    group.add_argument("--against-rev", metavar="REV",
                       help="time against git revision REV")
    parser.add_argument("--workload", default="certify-files",
                        choices=("construct-chain", "certify-files",
                                 "p2-sweep"))
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N items")
    args = parser.parse_args(argv)
    run = (args.workload, args.rounds, args.seed, args.limit)
    if args.against is not None:
        return compare(args.against.resolve(), *run)
    from corpus_digest import extract   # imported only for a revision
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.against_rev, Path(tmp))
        return compare(Path(tmp), *run)


if __name__ == "__main__":
    sys.exit(main())
