"""One sha256 line per mesh of a fixed corpus, to compare two checkouts
part by part:

    python3 tests/corpus_digest.py > digest.txt
    python3 tests/corpus_digest.py --against ../other-checkout
    python3 tests/corpus_digest.py --against-rev HEAD~

With no option it prints each mesh's name and digest.  --against DIR
imports checkout DIR's src/ccpforge as package `ccpforge_a`, as
tests/ab_pass.py imports a side, and digests the corpus with this
checkout's corpus and digest code on both libraries, in one process.  It
prints, per mesh whose digests differ, the parts that differ, and names
that only one side has; then how many meshes differ in each part, and
how many match.  It exits 0 when the two match and 1 otherwise.
--against-rev REV does the same with the files of git revision REV of
this repository, extracted by `git archive` into a temporary directory
that is removed afterwards.

The parts of a digest are the mesh's vertex bytes, faces, edge_slots,
seams, provenance, defect bytes, triangulation, each entry of
verify().to_dict() (`report.<key>`), the witness face pairs, the bytes
of the witness points, and the saved JSON and STL bytes; the digest
hashes the parts' digests.  The corpus is SMALL_GENERA, the meshes of
the three benchmark workloads (p2-sweep drawn from seed 1), minimal
g = 1..45, the drilled meshes (n5g odd g = 3..19, orientable g = 3..12,
nonorientable g = 3..15 by both routes), three larger meshes whose scans
hold many coplanar triangle pairs (orientable g = 30, nonorientable
g = 31, v8g g = 40), drill_repeat of p2-24, q3-18 and the
cubohemioctahedron with k = 2, 3, of p2-24 with k = 6 and an explicit
point, radius and phase, and of n5g g = 7 with k = 4, whose first offset
direction fails.  pytest does not collect this file;
tests/test_corpus_digest.py checks that it imports, digests a few meshes
repeatably and compares a checkout with itself.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
import zipfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"),
                str(HERE.parent / "perfbench")]

import workloads  # noqa: E402
from ab_pass import load  # noqa: E402
from test_self_intersection_oracle import SMALL_GENERA  # noqa: E402


def library(root: Path | None = None, name: str = "ccpforge"):
    """The modules the corpus and the digest call: this checkout's
    ccpforge when root is None, else checkout root's src/ccpforge
    imported as package `name`."""
    if root is not None:
        package = root / "src" / "ccpforge"
        load(name, package / "__init__.py", package)
    return SimpleNamespace(**{module: importlib.import_module(
        f"{name}.{module}") for module in ("generators", "surgery",
                                           "fileio", "verify")})


def corpus(lib=None):
    """(name, builder) pairs, each builder calling library `lib` (this
    checkout's when None); a name appears once."""
    lib = lib or library()
    gen, surgery = lib.generators, lib.surgery

    def family(*args):
        return gen.generate_family(gen.FamilyRequest(*args))
    items = [(f"{name}-{genus}-{params}",
              lambda a=(name, genus, params): family(*a))
             for name, genus, params in SMALL_GENERA]
    runs = [(name, genus, fewest) for _, name, genus, fewest
            in workloads.CONSTRUCT_CHAIN + workloads.CERTIFY_FILES] + \
        [("minimal", g, False) for g in range(1, 46)] + \
        [("n5g", g, False) for g in range(3, 20, 2)] + \
        [("orientable", g, False) for g in range(3, 13)] + \
        [("nonorientable", g, fewest) for g in range(3, 16)
         for fewest in (False, True)] + \
        [("orientable", 30, False), ("nonorientable", 31, False),
         ("v8g", 40, False)]
    runs = list(dict.fromkeys(runs))    # the workloads share some meshes
    items += [(f"{name}-{genus}" + "-fewest" * fewest,
               lambda a=(name, genus, {}, fewest): family(*a))
              for name, genus, fewest in runs]
    items += [(f"p2-24-b{b!r}-c{c!r}", lambda b=b, c=c: gen.gen_p2_24(b, c))
              for b, c in workloads.draw_p2_params(
                  np.random.default_rng(1), workloads.P2_SWEEP_ITEMS)]

    def drilled(base, spec, k):
        return lambda: surgery.drill_repeat(base(), surgery.DrillSpec(*spec),
                                            k)
    items += [(f"{name}-k{k}", drilled(base, (*faces, n), k))
              for name, base, faces, n in (
                  ("p2-24", gen.gen_p2_24, (0, 1), 12),
                  ("q3-18", gen.gen_q3_18, (1, 0), 18),
                  ("cho", gen.gen_cubohemioctahedron, (4, 5), 6))
              for k in (2, 3)]
    items += [("p2-24-k6-placed", drilled(
        gen.gen_p2_24, (0, 1, 12, (0.1, 0.05, 1.0), 0.01, 0.2), 6)),
              ("n5g-7-k4", drilled(lambda: gen.gen_n5g_odd(7), (0, 1, 7), 4))]
    return items


def parts(p, workdir: Path, lib=None) -> dict[str, str]:
    """Part name -> sha256 of that part of mesh p, made by library `lib`
    (this checkout's when None)."""
    lib = lib or library()
    tri = p.geometry.triangulation
    report = lib.verify.verify(p)
    out = {"vertices": p.vertices.tobytes(), "faces": p.faces,
           "edge_slots": p.edge_slots,
           "seams": sorted(p.metadata.seam_edges),
           # as a list: a part hashes its repr, and a library that keeps
           # provenance as a tuple and one that keeps a list digest alike
           "provenance": list(p.metadata.provenance),
           "defects": p.geometry.defects.tobytes(),
           "triangulation": tri.vertex.tobytes() + tri.face.tobytes()}
    out.update((f"report.{key}", json.dumps(value, sort_keys=True))
               for key, value in report.to_dict().items())
    out["witness_pairs"] = [w.faces for w in report.witnesses]
    out["witness_points"] = [np.asarray(w.point).tobytes()
                             for w in report.witnesses]
    for suffix in ("json", "stl"):
        path = workdir / f"mesh.{suffix}"
        lib.fileio.save_mesh(p, path)
        out[suffix] = path.read_bytes()
    return {name: hashlib.sha256(part if isinstance(part, bytes)
                                 else repr(part).encode()).hexdigest()
            for name, part in out.items()}


def digest(p, workdir: Path, lib=None) -> str:
    """One sha256 of every part of mesh p."""
    return hashlib.sha256(repr(sorted(parts(p, workdir, lib).items()))
                          .encode()).hexdigest()


def part_digests(lib=None):
    """(name, parts) of each corpus mesh, in corpus order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in corpus(lib):
            yield name, parts(build(), Path(tmp), lib)


def compare(other: Path, name: str | None = None) -> int:
    """Print, per mesh, the parts whose digests differ here and with
    checkout `other`'s library, called `name` in the report (its path
    when None), the meshes only one side has and a count per part; 0 when
    every mesh matches, else 1."""
    name = name or str(other)
    theirs = dict(part_digests(library(other, "ccpforge_a")))
    ours = dict(part_digests())
    report, moved = [], Counter()
    for mesh, here in ours.items():
        if mesh not in theirs:
            report.append(f"only here: {mesh}")
            continue
        differ = [part for part in sorted(here.keys() | theirs[mesh].keys())
                  if here.get(part) != theirs[mesh].get(part)]
        moved.update(differ)
        if differ:
            report.append(f"differs: {mesh}: {', '.join(differ)}")
    report += [f"only in {name}: {mesh}" for mesh in theirs
               if mesh not in ours]
    for line in report:
        print(line)
    for part, count in sorted(moved.items()):
        print(f"part {part} differs in {count} meshes")
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
                       help="compare with the library of checkout DIR")
    group.add_argument("--against-rev", metavar="REV",
                       help="compare with the library of git revision REV")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.against.resolve())
    if args.against_rev is not None:
        return compare_rev(args.against_rev)
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in corpus():
            print(name, digest(build(), Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
