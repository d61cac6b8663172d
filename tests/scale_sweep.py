"""Generate and verify the catalog's larger drilled and windowed meshes,
whose costs grow faster than linearly, and report each one's size,
verdict and process time per face:

    python3 tests/scale_sweep.py
    python3 tests/scale_sweep.py --limit 2
    python3 tests/scale_sweep.py --out BENCH.json

The meshes are `orientable` g = 25, 50, 100 and 200, `nonorientable`
g = 51 and 101, `n5g` g = 13, 15, 17 and 19, and `v8g` g = 200 and 600,
in that order; --limit N runs the first N.  Per mesh it prints V, E, F,
the genus verify finds, the verdict, the witness count, and the process
time per face, in microseconds, of generate_family and of verify, each
the least of REPEATS (3) runs.  --out
PATH also writes them, with the Python and numpy versions and the
machine, as one JSON document.  BLAS runs on one thread, as in
perfbench/run.py, so that process time is the time of one core.  A full
run takes about 36 s of one x86_64 core; the three benchmark workloads
hold no mesh this large.  pytest does not collect this file;
tests/test_scale_sweep.py runs it with --limit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# single-threaded numerics; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccpforge.generators import FamilyRequest, generate_family  # noqa: E402
from ccpforge.verify import verify  # noqa: E402

MESHES = (("orientable", 25), ("orientable", 50), ("orientable", 100),
          ("orientable", 200), ("nonorientable", 51),
          ("nonorientable", 101), ("n5g", 13), ("n5g", 15), ("n5g", 17),
          ("n5g", 19), ("v8g", 200), ("v8g", 600))
# each mesh is generated and verified this many times; a time that one
# run reads alone moves by more than most changes do
REPEATS = 3


def measure(family: str, genus: int) -> dict:
    """One mesh's size, verdict and process times, each time the least of
    REPEATS runs of generate_family and verify."""
    generate_s = verify_s = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        p = generate_family(FamilyRequest(family, genus))
        generated = time.process_time()
        report = verify(p)
        verified = time.process_time()
        generate_s = min(generate_s, generated - start)
        verify_s = min(verify_s, verified - generated)
    faces = p.n_faces
    return {
        "family": family, "genus": genus,
        "V": p.n_vertices, "E": p.n_edges, "F": faces,
        "verified_genus": report.topology.genus,
        "verdict": report.verdict,
        "witnesses": len(report.witnesses),
        "generate_s": generate_s,
        "verify_s": verify_s,
        "generate_us_per_face": 1e6 * generate_s / faces,
        "verify_us_per_face": 1e6 * verify_s / faces,
    }


def line(row: dict) -> str:
    return (f"{row['family']:>13} g={row['genus']:<4} V={row['V']:<6} "
            f"E={row['E']:<6} F={row['F']:<6} genus={row['verified_genus']:<4}"
            f" {row['verdict']:<13} witnesses={row['witnesses']:<6} "
            f"generate {row['generate_us_per_face']:8.1f} us/face  "
            f"verify {row['verify_us_per_face']:8.1f} us/face")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="run only the first N meshes")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="also write the results as JSON to PATH")
    args = parser.parse_args(argv)
    rows = []
    for family, genus in MESHES[:args.limit]:
        rows.append(measure(family, genus))
        print(line(rows[-1]), flush=True)
    if args.out is not None:
        doc = {"python": platform.python_version(),
               "numpy": np.__version__,
               "machine": f"{platform.machine()}, {os.cpu_count()} cores",
               "timer": f"time.process_time, BLAS on one thread, least "
                        f"of {REPEATS} runs",
               "meshes": rows}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
