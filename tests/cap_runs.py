"""Generate the last genus of every CATALOG row that covers more than one
genus, both routes of `nonorientable` among them, each in a child process
of its own, and report what each built:

    python3 tests/cap_runs.py

Each child runs with BLAS on one thread, under a 4 GB address-space
limit and a 900 s timeout, and times generate_family in process seconds.
Per row it prints the family, the genus, the route (`fewest` for
prefer_fewest), the vertex count and the seconds, or the error that
ended the row; it exits 1 if a row fails.  The CATALOG comment's "the
last genus a run generated" is this run.  pytest does not collect this
file; tests/test_cap_runs.py runs its row function on a small row.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TIMEOUT_S = 900
ADDRESS_SPACE = 4 << 30
# single-threaded numerics; BLAS reads these when numpy is first imported
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# what a child runs: one row, its result printed as one JSON object
CHILD = "import sys, cap_runs; cap_runs.child(*sys.argv[1:])"


def rows() -> list[tuple[str, int, bool]]:
    """(family, genus, prefer_fewest) for the last genus of each CATALOG
    row of more than one genus, on each route it has."""
    from ccpforge.generators import CATALOG
    return [(info.family, info.genera[-1], fewest) for info in CATALOG
            if len(info.genera) > 1
            for fewest in ((False, True) if info.fewest else (False,))]


def run_row(family: str, genus: int, fewest: bool) -> tuple[int, float]:
    """Generate one row's mesh: its vertex count and the process seconds
    generate_family took."""
    from ccpforge import FamilyRequest, generate_family
    start = time.process_time()
    p = generate_family(FamilyRequest(family, genus, prefer_fewest=fewest))
    return p.n_vertices, time.process_time() - start


def child(family: str, genus: str, fewest: str) -> None:
    """run_row in a child process, printing {"V", "seconds"} or
    {"error"}."""
    try:
        v, seconds = run_row(family, int(genus), fewest == "1")
        out = {"V": v, "seconds": seconds}
    except Exception as exc:    # every failure is the row's result
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def spawn(family: str, genus: int, fewest: bool) -> dict:
    """One row run in a child process: its printed result, or the way
    the child ended without one."""
    env = dict(os.environ, **dict.fromkeys(THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(SRC), str(HERE), *env.get("PYTHONPATH", "").split(os.pathsep)]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, family, str(genus),
             str(int(fewest))], capture_output=True, text=True, env=env,
            timeout=TIMEOUT_S, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {done.returncode}: {tail}"}
    return json.loads(lines[-1])


def main() -> int:
    sys.path.insert(0, str(SRC))
    failed = 0
    for family, genus, fewest in rows():
        out = spawn(family, genus, fewest)
        route = "fewest" if fewest else "-"
        if "error" in out:
            failed += 1
            print(f"{family:<14} {genus:>6} {route:<6} {out['error']}")
        else:
            print(f"{family:<14} {genus:>6} {route:<6} V {out['V']:>7} "
                  f"{out['seconds']:8.2f} s")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
