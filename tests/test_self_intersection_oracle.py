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
