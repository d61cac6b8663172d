"""One sha256 line per mesh of a fixed corpus, to compare two checkouts
bit for bit:

    python3 tests/corpus_digest.py > digest.txt
    python3 tests/corpus_digest.py --against ../other-checkout
    python3 tests/corpus_digest.py --against-rev HEAD~

Run it in both checkouts and diff the outputs, or let --against DIR
run the digest of checkout DIR in a subprocess and compare: it prints
the names whose digests differ or that only one side has, and exits 0
when the two match and 1 otherwise.  --against-rev REV does the same
with the files of git revision REV of this repository, extracted by
`git archive` into a temporary directory that is removed afterwards.
Each digest covers the mesh's vertex bytes, faces, edge_slots, seams,
provenance, defect bytes, triangulation, saved JSON and STL bytes,
verify().to_dict() and the bytes of the witness points.  The corpus
is SMALL_GENERA, the meshes of the three benchmark workloads
(p2-sweep drawn from seed 1), minimal g = 1..45, the drilled meshes
(n5g odd g = 3..19, orientable g = 3..12, nonorientable g = 3..15 by
both routes), three larger meshes whose scans hold many coplanar
triangle pairs (orientable g = 30, nonorientable g = 31, v8g g = 40),
drill_repeat of p2-24, q3-18 and the cubohemioctahedron with k = 2,
3, of p2-24 with k = 6 and an explicit point, radius and phase, and
of n5g g = 7 with k = 4, whose first offset direction fails.  pytest
does not collect this file; tests/test_corpus_digest.py checks that
it imports and digests a few meshes repeatably.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"),
                str(HERE.parent / "perfbench")]

from ccpforge.fileio import save_mesh  # noqa: E402
from ccpforge.generators import (  # noqa: E402
    FamilyRequest, gen_cubohemioctahedron, gen_n5g_odd, gen_p2_24,
    gen_q3_18, generate_family)
from ccpforge.surgery import DrillSpec, drill_repeat  # noqa: E402
from ccpforge.verify import verify  # noqa: E402

import workloads  # noqa: E402
from test_self_intersection_oracle import SMALL_GENERA  # noqa: E402


def corpus():
    """(name, builder) pairs; a name appears once."""
    items = [(f"{name}-{genus}-{params}", lambda a=(name, genus, params):
              generate_family(FamilyRequest(*a)))
             for name, genus, params in SMALL_GENERA]
    runs = [(family, genus, fewest) for _, family, genus, fewest
            in workloads.CONSTRUCT_CHAIN + workloads.CERTIFY_FILES] + \
        [("minimal", g, False) for g in range(1, 46)] + \
        [("n5g", g, False) for g in range(3, 20, 2)] + \
        [("orientable", g, False) for g in range(3, 13)] + \
        [("nonorientable", g, fewest) for g in range(3, 16)
         for fewest in (False, True)] + \
        [("orientable", 30, False), ("nonorientable", 31, False),
         ("v8g", 40, False)]
    runs = list(dict.fromkeys(runs))    # the workloads share some meshes
    items += [(f"{family}-{genus}" + "-fewest" * fewest,
               lambda a=(family, genus, {}, fewest):
               generate_family(FamilyRequest(*a)))
              for family, genus, fewest in runs]
    items += [(f"p2-24-b{b!r}-c{c!r}", lambda b=b, c=c: gen_p2_24(b, c))
              for b, c in workloads.draw_p2_params(
                  np.random.default_rng(1), workloads.P2_SWEEP_ITEMS)]
    items += [(f"{name}-k{k}", lambda base=base, faces=faces, n=n, k=k:
               drill_repeat(base(), DrillSpec(*faces, n), k))
              for name, base, faces, n in (
                  ("p2-24", gen_p2_24, (0, 1), 12),
                  ("q3-18", gen_q3_18, (1, 0), 18),
                  ("cho", gen_cubohemioctahedron, (4, 5), 6))
              for k in (2, 3)]
    items += [("p2-24-k6-placed", lambda: drill_repeat(
        gen_p2_24(), DrillSpec(0, 1, 12, point=(0.1, 0.05, 1.0),
                               radius=0.01, phase=0.2), 6)),
              ("n5g-7-k4", lambda: drill_repeat(gen_n5g_odd(7),
                                                DrillSpec(0, 1, 7), 4))]
    return items


def digest(p, workdir: Path) -> str:
    h = hashlib.sha256()
    tri = p.geometry.triangulation
    report = verify(p)
    for part in (p.vertices.tobytes(), p.faces, p.edge_slots,
                 sorted(p.metadata.seam_edges), p.metadata.provenance,
                 p.geometry.defects.tobytes(), tri.vertex.tobytes(),
                 tri.face.tobytes(),
                 json.dumps(report.to_dict(), sort_keys=True),
                 [np.asarray(w.point).tobytes() for w in report.witnesses]):
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    for suffix in (".json", ".stl"):
        path = workdir / f"mesh{suffix}"
        save_mesh(p, path)
        h.update(path.read_bytes())
    return h.hexdigest()


def digests():
    """(name, digest) of each corpus mesh, in corpus order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in corpus():
            yield name, digest(build(), Path(tmp))


def compare(other: Path, name: str | None = None) -> int:
    """Print the names whose digests differ here and in checkout `other`,
    called `name` in the report (its path when None), or that only one
    side has; 0 when none do, else 1."""
    name = name or str(other)
    run = subprocess.run([sys.executable,
                          str(other / "tests" / "corpus_digest.py")],
                         capture_output=True, text=True)
    if run.returncode:
        print(f"the digest of {name} failed:\n{run.stderr}",
              file=sys.stderr)
        return 1
    theirs = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())
    ours = dict(digests())
    report = [f"differs: {mesh}" for mesh in ours
              if mesh in theirs and ours[mesh] != theirs[mesh]]
    report += [f"only here: {mesh}" for mesh in ours if mesh not in theirs]
    report += [f"only in {name}: {mesh}" for mesh in theirs
               if mesh not in ours]
    for line in report:
        print(line)
    same = sum(ours[mesh] == theirs.get(mesh) for mesh in ours)
    print(f"{same} of {len(ours)} digests match {name}'s "
          f"({len(theirs)} there)")
    return 1 if report else 0


def extract(rev: str, dest: Path) -> None:
    """The files of git revision `rev` of this repository, written under
    `dest` (CalledProcessError if git cannot archive it)."""
    data = subprocess.run(["git", "-C", str(HERE.parent), "archive",
                           "--format=zip", rev],
                          capture_output=True, check=True).stdout
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        archive.extractall(dest)


def compare_rev(rev: str) -> int:
    """compare() against revision `rev`, extracted for the run."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            extract(rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"git archive {rev} failed:\n{exc.stderr.decode()}",
                  file=sys.stderr)
            return 1
        return compare(Path(tmp), f"revision {rev}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--against", metavar="DIR", type=Path,
                       help="compare with the digest of checkout DIR")
    group.add_argument("--against-rev", metavar="REV",
                       help="compare with the digest of git revision REV")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.against)
    if args.against_rev is not None:
        return compare_rev(args.against_rev)
    for name, value in digests():
        print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
