"""Generate and verify the catalog's larger drilled and windowed meshes,
whose costs grow faster than linearly, and report each one's size,
verdict and process time per face, alone or paired with another
checkout:

    python3 tests/scale_sweep.py
    python3 tests/scale_sweep.py --limit 2
    python3 tests/scale_sweep.py --out BENCH.json
    python3 tests/scale_sweep.py --against-rev HEAD~ --limit 4

The meshes are `orientable` g = 25, 50, 100 and 200, `nonorientable`
g = 51 and 101, `n5g` g = 13, 15, 17 and 19, and `v8g` g = 200 and 600,
in that order; --limit N runs the first N.  Per mesh it prints V, E, F,
the genus verify finds, the verdict, the witness count, the face rows
that Newell passes (mesh._newell) fitted before the build, the last
pass of generate_family, and the process time per face, in
microseconds, of generate_family and of verify, each the least of
REPEATS (3) runs, which follow one untimed run (WARMUP).  The rows are
counted by a wrapper of _newell at both of its bindings, in mesh and in
surgery, so they are exact where a time ratio is noise.
--out PATH also writes them, with the Python and numpy versions and the
machine, as one JSON document.  BLAS runs on one thread, as in
perfbench/run.py, so that process time is the time of one core.  A full
run takes about 48 s of one x86_64 core; the three benchmark workloads
hold no mesh this large.

Times of two runs minutes apart do not compare on a machine whose speed
drifts, so --against DIR pairs this checkout (b) with checkout DIR (a),
whose src/ccpforge is imported as package `ccpforge_a`, as
tests/ab_pass.py imports a side, and --against-rev REV with the files of
git revision REV, extracted into a temporary directory that is removed
afterwards.  Both sides run the mesh once untimed and then once in
each of the REPEATS rounds, the first side flipping every round; both
must give the same V, E, F, genus, verdict and witness count.  Per
mesh it then prints and writes both sides' fitted rows, times per face
and the
ratio b / a - 1 of their least times, for generate and for verify, and
beside it the range of the per-round ratios, each round's b / a - 1,
which shows how far one round's pair moves; it exits 1 when the sides
of a mesh differ (that mesh is not reported).  pytest does not collect
this file; tests/test_scale_sweep.py runs it with --limit 1, alone and
against its own checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

# single-threaded numerics; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ab_pass import ROOT, load  # noqa: E402

MESHES = (("orientable", 25), ("orientable", 50), ("orientable", 100),
          ("orientable", 200), ("nonorientable", 51),
          ("nonorientable", 101), ("n5g", 13), ("n5g", 15), ("n5g", 17),
          ("n5g", 19), ("v8g", 200), ("v8g", 600))
# each mesh is generated and verified this many times; a time that one
# run reads alone moves by more than most changes do
REPEATS = 3
# and first this many times untimed on each side, so that no timed round
# pays a first run's one-time costs
WARMUP = 1
# what both sides of a pair must agree on
FACTS = ("V", "E", "F", "verified_genus", "verdict", "witnesses")


def library(root: Path, name: str):
    """Checkout root's generators and verify modules, its src/ccpforge
    imported as package `name`, and a list that gains each Newell pass's
    face count from now on: its mesh._newell is wrapped at its two
    bindings, mesh's and surgery's."""
    package = root / "src" / "ccpforge"
    load(name, package / "__init__.py", package)
    mesh = importlib.import_module(f"{name}.mesh")
    newell, passes = mesh._newell, []

    def counted(vertices, corners):
        passes.append(len(corners.size))
        return newell(vertices, corners)

    for module in (mesh, importlib.import_module(f"{name}.surgery")):
        module._newell = counted
    return (importlib.import_module(f"{name}.generators"),
            importlib.import_module(f"{name}.verify"), passes)


def run(lib, family: str, genus: int) -> tuple[dict, int, float, float]:
    """One run on library lib: the mesh's facts, the face rows Newell
    passes fitted before the last pass of generate_family, its build,
    and the process times of generate_family and verify."""
    generators, verify, passes = lib
    passes.clear()
    start = time.process_time()
    p = generators.generate_family(generators.FamilyRequest(family, genus))
    generated = time.process_time()
    fitted = sum(passes[:-1])
    report = verify.verify(p)
    verified = time.process_time()
    facts = dict(zip(FACTS, (p.n_vertices, p.n_edges, p.n_faces,
                             report.topology.genus, report.verdict,
                             len(report.witnesses))))
    return facts, fitted, generated - start, verified - generated


def measure(libs: dict, family: str, genus: int) -> dict | None:
    """One mesh's facts and, per side of libs ("b" this checkout, "a" the
    other if any), its fitted rows and process times, each time the least
    of REPEATS runs after WARMUP untimed ones, and with two sides the
    extremes of each round's ratio b / a - 1; the sides alternate, the
    first flipping every round.  None, and a line on stderr, when the
    sides' facts differ."""
    rounds = {side: [] for side in libs}   # per round, the two times
    facts, fitted = {}, {}
    for _ in range(WARMUP):
        for side in sorted(libs):
            run(libs[side], family, genus)
    for r in range(REPEATS):
        for side in (sorted(libs) if r % 2 == 0 else sorted(libs)[::-1]):
            facts[side], fitted[side], *times = run(libs[side], family,
                                                    genus)
            rounds[side].append(times)
    best = {side: list(map(min, *times)) for side, times in rounds.items()}
    if facts.get("a", facts["b"]) != facts["b"]:
        print(f"{family} g={genus}: the sides differ: a {facts['a']}, "
              f"b {facts['b']}", file=sys.stderr)
        return None
    row = {"family": family, "genus": genus, **facts["b"]}
    for side, (generate_s, verify_s) in best.items():
        prefix = "a_" if side == "a" else ""
        faces = row["F"]
        row |= {f"{prefix}fitted_rows": fitted[side],
                f"{prefix}generate_s": generate_s,
                f"{prefix}verify_s": verify_s,
                f"{prefix}generate_us_per_face": 1e6 * generate_s / faces,
                f"{prefix}verify_us_per_face": 1e6 * verify_s / faces}
    if "a" in libs:
        for i, step in enumerate(("generate", "verify")):
            row[f"{step}_ratio"] = row[f"{step}_s"] / row[f"a_{step}_s"] - 1
            ratios = [b[i] / a[i] - 1 for a, b in zip(rounds["a"],
                                                      rounds["b"])]
            row[f"{step}_ratio_range"] = [min(ratios), max(ratios)]
    return row


def line(row: dict) -> str:
    out = (f"{row['family']:>13} g={row['genus']:<4} V={row['V']:<6} "
           f"E={row['E']:<6} F={row['F']:<6} genus={row['verified_genus']:<4}"
           f" {row['verdict']:<13} witnesses={row['witnesses']:<6}")
    if "a_fitted_rows" in row:
        out += f" fitted rows a {row['a_fitted_rows']} b {row['fitted_rows']}"
    else:
        out += f" fitted rows {row['fitted_rows']}"
    for step in ("generate", "verify"):
        b = row[f"{step}_us_per_face"]
        if "a_generate_s" in row:
            lo, hi = row[f"{step}_ratio_range"]
            out += (f" {step} a {row[f'a_{step}_us_per_face']:8.1f} b "
                    f"{b:8.1f} us/face ({row[f'{step}_ratio']:+.1%}, rounds "
                    f"[{lo:+.1%}, {hi:+.1%}])")
        else:
            out += f" {step} {b:8.1f} us/face "
    return out.rstrip()


def sweep(args, other: Path | None) -> int:
    """Run the meshes, on this checkout and checkout `other` if given;
    print a line per mesh and write --out."""
    libs = {"b": library(ROOT, "ccpforge_b")}
    if other is not None:
        libs["a"] = library(other, "ccpforge_a")
    rows, status = [], 0
    for family, genus in MESHES[:args.limit]:
        row = measure(libs, family, genus)
        if row is None:
            status = 1
            continue
        rows.append(row)
        print(line(row), flush=True)
    if args.out is not None:
        doc = {"python": platform.python_version(),
               "numpy": np.__version__,
               "machine": f"{platform.machine()}, {os.cpu_count()} cores",
               "timer": f"time.process_time, BLAS on one thread, least "
                        f"of {REPEATS} runs after {WARMUP} untimed",
               "meshes": rows}
        if other is not None:
            doc["against"] = args.against_rev or str(other)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="run only the first N meshes")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="also write the results as JSON to PATH")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--against", metavar="DIR", type=Path,
                       help="pair each run with checkout DIR's")
    group.add_argument("--against-rev", metavar="REV",
                       help="pair each run with git revision REV's")
    args = parser.parse_args(argv)
    if args.against_rev is None:
        return sweep(args, args.against and args.against.resolve())
    from corpus_digest import extract   # imported only for a revision
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.against_rev, Path(tmp))
        return sweep(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
