"""The batched self-intersection scan against the scalar scan it replaced
(tests/scalar_scan.py): the same witness face pairs and kinds, and points
equal to the last bit, on the benchmark's certify-files corpus, every
catalog family at small genera, seed-drawn p2-24 meshes, rigidly moved
copies and coplanar overlaps."""

import math

import numpy as np
import pytest

from ccpforge import CATALOG, FamilyRequest, build_polyhedron, gen_p2_24
from ccpforge.generators import generate_family
from ccpforge.mesh import MeshMetadata, Polyhedron
from ccpforge import metrics
from ccpforge.metrics import self_intersections

import scalar_scan
from conftest import _derive_edge_slots, random_rigid_motion


def assert_same_witnesses(p):
    got = self_intersections(p)
    want = scalar_scan.self_intersections(p)
    assert [w.faces for w in got] == [w.faces for w in want]
    assert [w.kind for w in got] == [w.kind for w in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.point, w.point), (g.faces, g.point - w.point)
    return got


def family(name, genus=None, fewest=False, **params):
    return generate_family(FamilyRequest(name, genus, params, fewest))


# the meshes of the benchmark's certify-files workload
CERTIFY_FILES = [("minimal", 10, False), ("minimal", 40, False),
                 ("orientable", 6, False), ("v8g", 10, False),
                 ("n5g", 15, False), ("nonorientable", 10, False),
                 ("nonorientable", 10, True), ("p2-24", None, False)]

SMALL_GENERA = [
    ("tetrahedron", None, {}), ("flat-torus-9", None, {}),
    ("p2-24", None, {}), ("orientable", 0, {}), ("orientable", 1, {}),
    ("orientable", 3, {}), ("thh", None, {}),
    ("r-block", None, {"r": 0.5, "h": 0.5 * math.sqrt(3 * (1 + math.sqrt(3)))}),
    ("q2-9", None, {}), ("q3-18", None, {}), ("cho", None, {}),
    ("nonorientable", 1, {}), ("nonorientable", 2, {}),
    ("nonorientable", 5, {}), ("v8g", 2, {}), ("v8g", 3, {}),
    ("v6g", 5, {}), ("v7gm7", 4, {}), ("n5g", 3, {}), ("n5g", 5, {}),
    ("minimal", 1, {}), ("minimal", 2, {}), ("minimal", 3, {}),
]


@pytest.mark.parametrize("name,genus,fewest", CERTIFY_FILES)
def test_certify_files_corpus(name, genus, fewest):
    assert_same_witnesses(family(name, genus, fewest))


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_catalog_small_genera(name, genus, params):
    assert_same_witnesses(family(name, genus, **params))


def test_small_genera_cover_the_catalog():
    assert {f.family for f in CATALOG} == {s[0] for s in SMALL_GENERA}


def test_seed_drawn_p2_24():
    rng = np.random.default_rng(11)
    s3 = math.sqrt(3.0)
    for _ in range(6):
        c = float(rng.uniform(0.004, 1 / (4 * s3) - 0.004))
        b = float(rng.uniform(c + 0.004, 1 / s3 - 0.004))
        assert_same_witnesses(gen_p2_24(b, c))


@pytest.mark.parametrize("name,genus,fewest", [
    ("q3-18", None, False), ("minimal", 3, False), ("nonorientable", 4, True),
    ("orientable", 2, False), ("cho", None, False)])
def test_rigidly_moved_copies(name, genus, fewest):
    rng = np.random.default_rng(5)
    p = family(name, genus, fewest)
    for _ in range(2):
        rot, tr = random_rigid_motion(rng)
        moved = build_polyhedron((rot @ p.vertices.T).T + tr, p.faces,
                                 metadata=p.metadata,
                                 edge_slots=p.edge_slots)
        assert_same_witnesses(moved)


def two_tetrahedra(shift):
    """Two tetrahedra whose bases lie in one plane, the second base moved
    by `shift` within it; not a surface, but a valid scan input."""
    base = np.array([(0, 0, 0), (2, 0, 0), (0, 2, 0)], float)
    v = np.vstack([base, [(0.5, 0.5, 1.0)],
                   base + (shift[0], shift[1], 0.0), [(1.0, 1.0, -1.0)]])
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3),
             (4, 5, 6), (4, 7, 5), (5, 7, 6), (6, 7, 4)]
    slots, pairs = _derive_edge_slots(faces)
    return Polyhedron(v, tuple(faces), pairs, slots, MeshMetadata())


@pytest.mark.parametrize("shift", [(0.5, 0.5), (0.25, -0.5), (2.0, 0.0),
                                   (-2.0, 2.0), (1.0, 1.0)])
def test_coplanar_overlaps(shift):
    rng = np.random.default_rng(17)
    p = two_tetrahedra(shift)
    kinds = {w.kind for w in assert_same_witnesses(p)}
    if shift == (0.5, 0.5):
        assert "coplanar-overlap" in kinds
    for _ in range(3):
        rot, tr = random_rigid_motion(rng)
        assert_same_witnesses(Polyhedron(
            (rot @ p.vertices.T).T + tr, p.faces, p.edges, p.edge_slots,
            MeshMetadata()))


def _rows_tested_and_clipped(monkeypatch, meshes):
    """Coplanar rows that the side test sees and that reach the clip, over
    the scans of the given meshes."""
    count = {"tested": 0, "clipped": 0}

    def counted(name, key):
        real = getattr(metrics, name)

        def wrapper(a, b):
            count[key] += len(a)
            return real(a, b)
        monkeypatch.setattr(metrics, name, wrapper)

    counted("_side_separates", "tested")
    counted("_clip_convex", "clipped")
    for p in meshes:
        self_intersections(p)
    return count


def test_separated_coplanar_rows_skip_the_clip(monkeypatch):
    """On the certify-files corpus every coplanar row is separated by a
    side, so none is clipped; overlapping bases still are."""
    count = _rows_tested_and_clipped(monkeypatch, [
        family(*spec) for spec in CERTIFY_FILES])
    assert count["tested"] > 2000 and count["clipped"] == 0
    count = _rows_tested_and_clipped(monkeypatch, [two_tetrahedra((0.5, 0.5))])
    assert count["clipped"] > 0


def _seam_rows(monkeypatch):
    """Spies on the scans run while the spy is set: per call of
    _at_shared_vertex its scan, its arguments and its verdict, and the
    sample count of each clearance call."""
    seen = {"rows": [], "clearance": []}
    Scan = metrics._TriangleScan
    test, clearance = Scan._at_shared_vertex, Scan.clearance

    def spy_test(scan, i, j, a, b):
        drop = test(scan, i, j, a, b)
        seen["rows"].append((scan, i, j, a, b, drop))
        return drop

    def spy_clearance(scan, key, pts):
        seen["clearance"].append(len(pts))
        return clearance(scan, key, pts)
    monkeypatch.setattr(Scan, "_at_shared_vertex", spy_test)
    monkeypatch.setattr(Scan, "clearance", spy_clearance)
    return seen


LARGER = [("orientable", 30, False), ("nonorientable", 31, False),
          ("v8g", 40, False)]


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA + [
    (name, genus, {}) for name, genus, _ in LARGER])
def test_rows_ending_at_a_shared_vertex_are_seams(monkeypatch, name, genus,
                                                   params):
    """Every crossing dropped for ending near a shared vertex at both
    ends, sampled as it was before the rule, has every sample's clearance
    below seam_tol: the rule drops only samples that `keep` would.  The
    larger meshes each drop some."""
    seen = _seam_rows(monkeypatch)
    self_intersections(family(name, genus, **params))
    dropped = 0
    for scan, i, j, a, b, drop in seen["rows"]:
        i, j, a, b = i[drop], j[drop], a[drop], b[drop]
        pts = scan._samples(j, a, b).reshape(-1, 3)
        key = np.repeat(scan.face[i] * scan.n_faces + scan.face[j], 5)
        assert (scan.clearance(key, pts) < scan.seam_tol).all()
        dropped += len(i)
    assert dropped or (name, genus, False) not in LARGER


def vertex_contact(reach):
    """A tetrahedron V P Q D whose side PQ pierces triangle V A B of a
    second tetrahedron V A B C at a point X, `reach` from their shared
    vertex V, in a direction inside the triangle's corner at V: face VPQ
    meets VAB in the segment from V to X, and face PQD crosses VAB (and
    tetrahedron VABC's other faces at V) near X.  Not one surface, but a
    valid scan input."""
    x = reach / np.sqrt(2.0) * np.array([1.0, 1.0, 0.0])
    w = np.array([-1.0, -0.5, 1.0])
    v = np.array([(0, 0, 0), x + w, x - w, (-1, -1, -1),        # V P Q D
                  (2, 0, 0), (0, 2, 0), (0.5, 0.5, 1)], float)  # A B C
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2),
             (0, 5, 4), (0, 4, 6), (4, 5, 6), (5, 0, 6)]
    slots, pairs = _derive_edge_slots(faces)
    return Polyhedron(v, tuple(faces), pairs, slots, MeshMetadata())


@pytest.mark.parametrize("factor,dropped", [(0.9, True), (1.1, False)])
def test_crossing_near_a_shared_vertex(monkeypatch, factor, dropped):
    """The crossing of VPQ through VAB runs from V to X: with X just
    inside seam_tol / 2 of V the row is dropped unsampled, just beyond it
    the row is sampled.  Either way the pair is a seam, PQD against VAB
    is a witness, and the scan equals the scalar scan to the bit."""
    seam_tol = metrics._TriangleScan(vertex_contact(1.0)).seam_tol
    p = vertex_contact(factor * seam_tol / 2)
    seen = _seam_rows(monkeypatch)
    got = assert_same_witnesses(p)
    faces = [w.faces for w in got]
    assert (0, 4) not in faces and (3, 4) in faces
    rows = {(int(f), int(g), bool(d))
            for scan, i, j, _, _, drop in seen["rows"]
            for f, g, d in zip(scan.face[i], scan.face[j], drop)}
    assert (0, 4, dropped) in rows
    assert (3, 4, False) in rows


def test_embedded_meshes_skip_clearance(monkeypatch):
    """Every crossing of p2-24, orientable g = 6 and v8g g = 10 ends at a
    shared vertex, so clearance never runs on them.  Over the whole
    certify-files corpus at most 7,700 samples reach clearance (20,305
    when every clipped crossing was sampled), at least 2,500 rows are
    dropped, and the witnesses still equal the scalar scan's."""
    seen = _seam_rows(monkeypatch)
    for spec in [("p2-24", None, False), ("orientable", 6, False),
                 ("v8g", 10, False)]:
        assert self_intersections(family(*spec)) == []
    assert seen["clearance"] == []
    seen = _seam_rows(monkeypatch)
    for spec in CERTIFY_FILES:
        assert_same_witnesses(family(*spec))
    assert sum(seen["clearance"]) <= 7700
    assert sum(int(r[-1].sum()) for r in seen["rows"]) >= 2500
