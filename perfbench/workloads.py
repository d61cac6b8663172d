"""The three workloads: their inputs, drawn from the seed, and the item
functions the runner times.

Every item builds or loads a fresh Polyhedron and returns a small record
(V/E/F, topology, defect mean and, where the item verifies, the verdict and
the sorted witness face pairs) that the runner compares with the committed
reference.  Library functions are always looked up on their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
from pathlib import Path


def _mod(name):
    return importlib.import_module(name)


# (item id, family, genus, prefer_fewest)
CONSTRUCT_CHAIN = (
    ("minimal-10", "minimal", 10, False),
    ("minimal-20", "minimal", 20, False),
    ("minimal-40", "minimal", 40, False),
    ("orientable-4", "orientable", 4, False),
    ("orientable-8", "orientable", 8, False),
    ("n5g-15", "n5g", 15, False),
    ("nonorientable-10", "nonorientable", 10, False),
    ("nonorientable-10-fewest", "nonorientable", 10, True),
)

CERTIFY_FILES = (
    ("minimal-10", "minimal", 10, False),
    ("minimal-40", "minimal", 40, False),
    ("orientable-6", "orientable", 6, False),
    ("v8g-10", "v8g", 10, False),
    ("n5g-15", "n5g", 15, False),
    ("nonorientable-10", "nonorientable", 10, False),
    ("nonorientable-10-fewest", "nonorientable", 10, True),
    ("p2-24", "p2-24", None, False),
)

P2_SWEEP_ITEMS = 25

# Gauge-scaled time of one pass at the commit that introduced the benchmark
# (Python 3.11, numpy 2.4, one core of a shared 2-core Xeon VM).  The runner
# sizes a run's pass count from these constants, not from the clock, so the
# item count, and with it the tail percentile, is the same on every commit.
NOMINAL_PASS_S = {
    "construct-chain": 5.0,
    "certify-files": 7.5,
    "p2-sweep": 4.0,
}

DEFECT_ABS_TOL = 1e-9


def _request(family, genus, fewest):
    gen = _mod("ccpforge.generators")
    return gen.FamilyRequest(family, genus, prefer_fewest=fewest)


def _topology_record(p, topo, defect_mean):
    return {"V": p.n_vertices, "E": p.n_edges, "F": p.n_faces,
            "genus": topo.genus, "orientable": topo.orientable,
            "defect_mean": defect_mean}


def _defect_tolerance(p):
    # the rule verify() applies: 1e-9 for closed forms, 1e-6 per surgery
    k = p.metadata.surgery_count()
    return 1e-9 if k == 0 else 1e-6 * max(1, k)


def verify_record(p):
    report = _mod("ccpforge.verify").verify(p)
    rec = _topology_record(p, report.topology, report.defects.mean)
    rec["verdict"] = report.verdict
    rec["witness_pairs"] = sorted([list(w.faces) for w in report.witnesses])
    return rec


def construct_record(p):
    """The cheap checks `ccp generate` output gets in this workload:
    topology, and defect constancy against the family's expected value."""
    topo = _mod("ccpforge.mesh").classify(p)
    tol = _defect_tolerance(p)
    dp = _mod("ccpforge.metrics").defect_profile(p, tol=tol)
    expected = p.metadata.expected_defect
    rec = _topology_record(p, topo, dp.mean)
    rec["defect_ok"] = bool(dp.is_constant and expected is not None
                            and abs(dp.mean - expected) < tol)
    return rec


def draw_p2_params(rng, n):
    """Admissible (b, c) pairs drawn as in acceptance criterion 2."""
    s3 = math.sqrt(3.0)
    pairs = []
    for _ in range(n):
        c = float(rng.uniform(0.004, 1 / (4 * s3) - 0.004))
        b = float(rng.uniform(c + 0.004, 1 / s3 - 0.004))
        pairs.append((b, c))
    return pairs


class Item:
    """One unit of timed work: `run()` returns the record checked against
    `reference[ref_key]`."""

    def __init__(self, item_id, ref_key, run):
        self.item_id = item_id
        self.ref_key = ref_key
        self.run = run


def setup_construct_chain(rng, workdir: Path, limit=None):
    def make(item_id, family, genus, fewest):
        path = workdir / f"{item_id}.json"

        def run():
            p = _mod("ccpforge.generators").generate_family(
                _request(family, genus, fewest))
            _mod("ccpforge.fileio").save_mesh(p, path)
            return construct_record(p)
        return Item(item_id, item_id, run)

    return [make(*spec) for spec in CONSTRUCT_CHAIN[:limit]]


def setup_certify_files(rng, workdir: Path, limit=None):
    """Generate the corpus and save it as JSON; each item loads one file
    and verifies it."""
    gen = _mod("ccpforge.generators")
    fileio = _mod("ccpforge.fileio")

    def make(item_id, family, genus, fewest):
        path = workdir / f"{item_id}.json"
        fileio.save_mesh(gen.generate_family(_request(family, genus, fewest)),
                         path)

        def run():
            return verify_record(_mod("ccpforge.fileio").load_mesh(path))
        return Item(item_id, item_id, run)

    return [make(*spec) for spec in CERTIFY_FILES[:limit]]


def setup_p2_sweep(rng, workdir: Path, limit=None):
    def make(i, b, c):
        def run():
            return verify_record(_mod("ccpforge.generators").gen_p2_24(b, c))
        return Item(f"p2-24[{i}] b={b!r} c={c!r}", "p2-24", run)

    n = P2_SWEEP_ITEMS if limit is None else min(limit, P2_SWEEP_ITEMS)
    return [make(i, b, c) for i, (b, c) in enumerate(draw_p2_params(rng, n))]


SETUP = {
    "construct-chain": setup_construct_chain,
    "certify-files": setup_certify_files,
    "p2-sweep": setup_p2_sweep,
}


def mismatches(record: dict, expected: dict) -> list[str]:
    """Fields of `record` that differ from the reference entry."""
    out = []
    for key, want in expected.items():
        got = record.get(key)
        if key == "defect_mean":
            ok = got is not None and abs(got - want) <= DEFECT_ABS_TOL
        else:
            ok = got == want
        if not ok:
            shown = got if key != "witness_pairs" else f"{len(got or [])} pairs"
            out.append(f"{key}: got {shown!r}")
    return out
