"""Edge lengths, corner angles, defects, the closed-surface defect identity,
dihedral angles and self-intersection detection."""

import math

import numpy as np
import pytest

from ccpforge import (FamilyRequest, angular_defect, build_polyhedron,
                      corner_angle, defect_profile, descartes_residual,
                      dihedral_angle, edge_length, gen_flat_torus9,
                      gen_minimal, gen_p2_24, gen_q2_9, gen_r_block,
                      gen_tetrahedron, gen_tetrahemihexahedron,
                      self_intersections)
from ccpforge.errors import FlatEdge, VertexNotOnFace
from ccpforge.generators import generate_family

from conftest import random_rigid_motion


def test_edge_lengths_flat_torus():
    p = gen_flat_torus9()

    def length(a, b):
        return edge_length(p, p.edge_index(p.label(a), p.label(b)))

    assert length("v1", "v3") == pytest.approx(
        math.sqrt(3 - math.sqrt(2)), abs=1e-12)
    assert length("v1", "v3,1") == pytest.approx(
        math.sqrt(3 + 2 * math.cos(math.pi / 12)), abs=1e-12)
    assert length("v3", "v3,1") == pytest.approx(math.sqrt(3), abs=1e-12)
    assert length("v2", "v1") == pytest.approx(
        math.sqrt(9 / 4 - 2 * math.cos(math.pi / 8)), abs=1e-12)
    assert length("v2", "v1,1") == pytest.approx(
        math.sqrt(9 / 4 + 2 * math.cos(11 * math.pi / 24)), abs=1e-12)
    assert length("v1", "v1,1") == pytest.approx(math.sqrt(3), abs=1e-12)


def test_corner_angles(cube):
    assert corner_angle(cube, 0, cube.faces[0][0]) == pytest.approx(
        math.pi / 2, abs=1e-12)
    p24 = gen_p2_24()
    a = corner_angle(p24, 0, p24.label("v2+++"))
    assert a == pytest.approx(7 * math.pi / 6, abs=1e-12)
    slope = corner_angle(
        p24,
        next(i for i, f in enumerate(p24.faces)
             if {p24.label("v3-++"), p24.label("v3+++"),
                 p24.label("v1+++")} <= set(f)),
        p24.label("v3+++"))
    assert slope == pytest.approx(math.pi / 2 + math.atan(math.sqrt(3) / 7),
                                  abs=1e-12)


def test_corner_angle_q2_9():
    q = gen_q2_9()
    f = next(i for i, fc in enumerate(q.faces)
             if set(fc) == {q.label("v1"), q.label("v5"), q.label("v6")})
    assert corner_angle(q, f, q.label("v5")) == pytest.approx(
        5 * math.pi / 12, abs=1e-12)


def test_vertex_not_on_face(cube):
    missing = next(v for v in range(8) if v not in cube.faces[0])
    with pytest.raises(VertexNotOnFace):
        corner_angle(cube, 0, missing)


def test_angular_defects():
    t = gen_tetrahedron()
    assert angular_defect(t, 0) == pytest.approx(math.pi, abs=1e-12)
    q = gen_tetrahemihexahedron()
    for v in range(6):
        assert angular_defect(q, v) == pytest.approx(math.pi / 3, abs=1e-12)


def test_defect_profile_constancy():
    dp = defect_profile(gen_flat_torus9())
    assert dp.is_constant and abs(dp.mean) < 1e-12
    dp = defect_profile(gen_p2_24())
    assert dp.is_constant
    assert dp.mean == pytest.approx(-math.pi / 6, abs=1e-12)


def test_defect_profile_broken_symmetry():
    v = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1.4, -1.2, 1.1)],
                 float)
    f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    assert not defect_profile(build_polyhedron(v, f)).is_constant


def test_descartes_residual():
    for p in (gen_tetrahedron(), gen_flat_torus9(), gen_q2_9(),
              gen_p2_24()):
        assert descartes_residual(p) < 1e-8
    # genus-2 minimal surface: eight vertices of defect -pi/2 sum to -4*pi
    m2 = gen_minimal(2)
    total = sum(angular_defect(m2, v) for v in range(m2.n_vertices))
    assert total == pytest.approx(8 * (-math.pi / 2), abs=1e-9)
    assert total == pytest.approx(2 * math.pi * (2 - 2 * 2), abs=1e-9)


def test_dihedral(cube):
    assert dihedral_angle(cube, 0) == pytest.approx(math.pi / 2, abs=1e-12)
    t = gen_tetrahedron()
    assert dihedral_angle(t, 0) == pytest.approx(math.acos(1 / 3),
                                                 abs=1e-12)


def test_dihedral_flat_raises():
    # two coplanar triangles sharing an edge inside a tetrahedron-like body
    v = [(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0.2, 1)]
    f = [(0, 2, 1), (0, 1, 3), (0, 4, 2), (2, 4, 1), (0, 3, 4), (3, 1, 4)]
    from ccpforge.mesh import MeshMetadata, Polyhedron
    from conftest import _derive_edge_slots
    slots, pairs = _derive_edge_slots([tuple(c) for c in f])
    p = Polyhedron(np.array(v, float), tuple(tuple(c) for c in f),
                   pairs, slots, MeshMetadata())
    e = p.edge_index(0, 1)
    with pytest.raises(FlatEdge):
        dihedral_angle(p, e)


def test_rigid_and_scale_invariance():
    rng = np.random.default_rng(7)
    p = gen_p2_24()
    base = defect_profile(p).per_vertex
    for _ in range(3):
        rot, tr = random_rigid_motion(rng)
        moved = build_polyhedron((rot @ p.vertices.T).T + tr, p.faces)
        assert np.abs(defect_profile(moved).per_vertex - base).max() < 1e-9
    scaled = build_polyhedron(p.vertices * 37.5, p.faces)
    assert np.abs(defect_profile(scaled).per_vertex - base).max() < 1e-12


def test_convex_corner_angle_sum(cube):
    for f in range(cube.n_faces):
        k = len(cube.faces[f])
        total = sum(corner_angle(cube, f, v) for v in cube.faces[f])
        assert total == pytest.approx((k - 2) * math.pi, abs=1e-12)


def test_self_intersections_basic():
    assert self_intersections(gen_tetrahedron()) == []
    w = self_intersections(gen_tetrahemihexahedron())
    assert w, "hemi polyhedron must self-intersect"
    assert all(a < b for a, b in (x.faces for x in w))
    m2 = self_intersections(gen_minimal(2))
    assert m2


def test_self_intersections_face_rotation_invariant():
    p = gen_tetrahemihexahedron()
    rotated = build_polyhedron(
        p.vertices, [c[2:] + c[:2] for c in p.faces])
    a = {w.faces for w in self_intersections(p)}
    b = {w.faces for w in self_intersections(rotated)}
    assert a == b


def test_r_block_identities():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = rng.uniform(0.2, 0.95)
        h = rng.uniform(0.3, 2.0)
        p = gen_r_block(r, h)
        leg = edge_length(p, p.edge_index(p.label("v1"), p.label("v5")))
        assert abs(leg ** 2 - (r * r - r + 1 + h * h)) < 1e-12
        f = next(i for i, fc in enumerate(p.faces)
                 if set(fc) == {p.label("v5"), p.label("v6"),
                                p.label("v1")})
        want = math.acos(math.sqrt(3) * r / (2 * leg))
        assert corner_angle(p, f, p.label("v5")) == pytest.approx(
            want, abs=1e-12)
        f2 = next(i for i, fc in enumerate(p.faces)
                  if {p.label("v5"), p.label("v3"), p.label("v2")}
                  <= set(fc))
        want2 = math.acos(math.sqrt(3) * (1 - r) / (2 * leg))
        assert corner_angle(p, f2, p.label("v3")) == pytest.approx(
            want2, abs=1e-12)


def test_plane_meets():
    """Vertices within eps of the plane, and sides whose ends lie off it
    on opposite sides; a triangle with fewer than two such points only
    touches the plane and never reaches the crossing test."""
    from ccpforge.metrics import _plane_meets
    s = np.array([[1.0, -1.0, 1.0],       # two sides cross
                  [0.0, 1.0, 1.0],        # touches at a vertex
                  [1e-13, 2.0, 3.0],      # touches within eps
                  [0.0, 0.0, 1.0],        # a side on the plane
                  [0.0, 1.0, -1.0],       # a vertex and the opposite side
                  [-0.0, -1.0, -2.0]])
    on, cut = (a.T for a in _plane_meets(s.T, 1e-12))
    assert on.tolist() == [[False] * 3, [True, False, False],
                           [True, False, False], [True, True, False],
                           [True, False, False], [True, False, False]]
    assert cut.tolist() == [[True, True, False]] + [[False] * 3] * 3 + [
        [False, True, False], [False] * 3]


# meshes of the oracle corpus with witnesses, each of which fits in one
# default block of the narrow phase
BLOCK_CORPUS = [("n5g", 15, False), ("nonorientable", 10, False),
                ("nonorientable", 10, True), ("minimal", 10, False)]


@pytest.mark.parametrize("name,genus,fewest", BLOCK_CORPUS)
def test_witnesses_do_not_depend_on_the_row_budget(monkeypatch, name, genus,
                                                   fewest):
    """Blocks of 1, 7 and 64 rows give the faces, kinds and point bits of
    one default block, so the merge across blocks in _best_per_pair
    keeps each face pair's best sample."""
    from ccpforge import metrics
    p = generate_family(FamilyRequest(name, genus, {}, fewest))
    want = self_intersections(p)
    assert want
    for rows in (1, 7, 64):
        monkeypatch.setattr(metrics, "_ROWS", rows)
        got = self_intersections(p)
        assert [w.faces for w in got] == [w.faces for w in want]
        assert [w.kind for w in got] == [w.kind for w in want]
        assert all(np.array_equal(g.point, w.point)
                   for g, w in zip(got, want))


def _rows_reaching_crossing(monkeypatch, p):
    """p's triangle scan, its candidate rows, and the (i, j) pairs among
    them that reach the crossing test when all go through contacts."""
    from ccpforge.metrics import _TriangleScan
    scan = _TriangleScan(p)
    seen_i, seen_j = [], []
    segment, crossing = scan._segment, scan._crossing

    def spy_segment(i, *rest):
        seen_i.extend(i.tolist())
        return segment(i, *rest)

    def spy_crossing(j, seg):
        seen_j.extend(j.tolist())
        return crossing(j, seg)
    monkeypatch.setattr(scan, "_segment", spy_segment)
    monkeypatch.setattr(scan, "_crossing", spy_crossing)
    i, j = (a.astype(np.intp) for a in scan.candidates())
    scan.contacts(i, j)
    return scan, i, j, set(zip(seen_i, seen_j))


def test_crossing_on_a_side_of_both_faces_is_dropped(monkeypatch):
    """In a tetrahedron every triangle meets each other face's plane at
    the two ends of a side the faces share: every candidate row is
    transversal with two on-plane vertices, and none reaches _crossing."""
    from ccpforge.metrics import _plane_meets
    scan, i, j, crossed = _rows_reaching_crossing(monkeypatch,
                                                  gen_tetrahedron())
    assert len(i) == 6
    on, cut = _plane_meets(scan._distances(i, j), scan.eps)
    assert (on.sum(axis=0) == 2).all() and not cut.any()
    assert scan._on_shared_side(i, j, on).all()
    assert crossed == set()
    assert self_intersections(gen_tetrahedron()) == []


def diagonal_contact():
    """A tetrahedron ABTS standing on the diagonal AB of a square pyramid's
    base PBQA: AB is a side of the tetrahedron's faces but only a diagonal
    of the base, which the ear clip cuts along AB.  Not one surface, but
    a valid scan input."""
    from ccpforge.mesh import MeshMetadata, Polyhedron
    from conftest import _derive_edge_slots
    v = np.array([(0, 0, 0), (2, 0, 0), (1, -1, 0), (1, 1, 0),    # A B P Q
                  (1, 0, -1), (1, 0, 1), (1, 1, 1)], float)       # X T S
    faces = [(0, 1, 5), (2, 1, 3, 0),
             (1, 0, 6), (0, 5, 6), (1, 6, 5),
             (2, 4, 1), (1, 4, 3), (3, 4, 0), (0, 4, 2)]
    slots, pairs = _derive_edge_slots(faces)
    return Polyhedron(v, tuple(faces), pairs, slots, MeshMetadata())


def test_crossing_on_a_diagonal_keeps_its_witness(monkeypatch):
    """Triangle ABT meets the base's plane at A and B, the ends of a side
    of its own face but of a diagonal of the base: both its rows against
    the base's triangles are sampled, and the face pair's witness is the
    contact at AB's midpoint, as in the scalar scan."""
    import scalar_scan
    p = diagonal_contact()
    vertex, face = p.geometry.triangulation
    assert {frozenset(t) for t in vertex[face == 1].tolist()} == {
        frozenset((0, 2, 1)), frozenset((1, 3, 0))}
    scan, i, j, crossed = _rows_reaching_crossing(monkeypatch, p)
    on_base = [(a, b) for a, b in zip(i.tolist(), j.tolist())
               if face[a] == 0 and face[b] == 1]
    assert len(on_base) == 2 and set(on_base) <= crossed

    got = self_intersections(p)
    want = scalar_scan.self_intersections(p)
    assert [(w.faces, w.kind) for w in got] == \
        [(w.faces, w.kind) for w in want]
    assert all(np.array_equal(g.point, w.point) for g, w in zip(got, want))
    ab = next(w for w in got if w.faces == (0, 1))
    assert ab.kind == "transversal"
    assert np.allclose(ab.point, (1.0, 0.0, 0.0), atol=1e-12)


def _lexsort_best(key, clearance, i, j, place):
    """The per-pair selection as five separate sort keys."""
    idx = np.lexsort((place, j, i, -clearance, key))
    return idx[np.diff(key[idx], prepend=-1) != 0]


@pytest.mark.parametrize("n_tri", [1, 2, 7, 1000, "bound"])
def test_best_per_pair_packs_its_tie_keys(n_tri):
    """_best_per_pair, whose three tie keys (i, j, place) are packed into
    one int64, keeps the rows that sorting on the five keys apart keeps,
    row for row, on samples with heavy ties in clearance (both zeros
    among them), in (i, j) and in place.  At the radix bound the largest
    packed key is just below 2**63, and one more triangle would pass
    it."""
    from ccpforge.metrics import _PLACES, _best_per_pair
    if n_tri == "bound":
        n_tri = math.isqrt(2 ** 63 // _PLACES)
        assert _PLACES * n_tri ** 2 - 1 <= np.iinfo(np.int64).max \
            < _PLACES * (n_tri + 1) ** 2 - 1
    rng = np.random.default_rng(n_tri % 9973)
    n = 2000
    tri = np.unique(np.r_[0, 1, n_tri - 2, n_tri - 1].clip(0, n_tri - 1))
    key = rng.integers(0, 40, n)
    clearance = rng.choice([0.0, -0.0, 0.5, 1.0, np.inf], n)
    i, j = rng.choice(tri, (2, n))
    place = rng.integers(0, _PLACES, n)
    want = _lexsort_best(key, clearance, i, j, place)
    assert len(want) == len(np.unique(key))
    got = _best_per_pair(n_tri, key, clearance, i, j, place, np.arange(n))
    assert np.array_equal(got[-1], want)
    for g, a in zip(got, (key, clearance, i, j, place)):
        assert g.tobytes() == a[want].tobytes()


@pytest.mark.parametrize("name,genus", [("minimal", 10), ("orientable", 6),
                                        ("two-tetrahedra", None)])
def test_contacts_are_row_by_row(name, genus):
    """contacts on a seeded random split of a mesh's candidate rows, the
    parts' results concatenated, equals one call on all rows: the same
    pairs, places, kinds and point bytes per row, once sorted by (i, j,
    place).  A gather or mask along the wrong axis, or a mask cut short,
    mixes or loses rows and breaks this.  minimal g = 10 has transversal
    contacts, the two tetrahedra a coplanar one; orientable g = 6 has
    none."""
    from ccpforge.metrics import _TriangleScan
    from test_self_intersection_oracle import two_tetrahedra
    p = two_tetrahedra((0.5, 0.5)) if genus is None else \
        generate_family(FamilyRequest(name, genus, {}))
    scan = _TriangleScan(p)
    i, j = (a.astype(np.intp) for a in scan.candidates())

    def by_row(parts):
        ci, cj, place, flat, pts = (np.concatenate(a) for a in zip(*parts))
        order = np.lexsort((place, cj, ci))
        return [a[order].tobytes() for a in (ci, cj, place, flat, pts)]

    want = by_row([scan.contacts(i, j)])
    assert want[0] or name == "orientable"
    part = np.random.default_rng(30).integers(0, 7, len(i))
    # a few rows alone, as blocks of one
    part[np.random.default_rng(31).choice(len(i), 5, replace=False)] = \
        np.arange(7, 12)
    got = by_row([scan.contacts(i[part == k], j[part == k])
                  for k in range(12)])
    assert got == want
