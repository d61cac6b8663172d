"""Mesh construction, validation errors and topological classification."""

from dataclasses import dataclass

import numpy as np
import pytest

from ccpforge import _geom
from ccpforge import (build_polyhedron, classify, euler_characteristic,
                      gen_flat_torus9, gen_q2_9, gen_tetrahedron,
                      gen_tetrahemihexahedron, is_orientable)
from ccpforge.errors import (DegenerateFace, DisconnectedSurface, FlatEdge,
                             InconsistentTopology, IndexOutOfRange,
                             NonManifoldEdge)
from ccpforge.mesh import (MeshMetadata, Polyhedron,
                           replace_meta, topology_from)

from conftest import _derive_edge_slots, cube_data, random_rigid_motion
from test_self_intersection_oracle import SMALL_GENERA, family

TET_V = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
TET_F = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def test_tetrahedron_build():
    p = build_polyhedron(TET_V, TET_F)
    assert p.n_vertices == 4 and p.n_edges == 6 and p.n_faces == 4
    assert euler_characteristic(p) == 2


def test_q2_9_counts():
    p = gen_q2_9()
    assert (p.n_vertices, p.n_edges, p.n_faces) == (9, 21, 12)


def test_open_cube_rejected():
    verts, faces = cube_data()
    with pytest.raises(NonManifoldEdge):
        build_polyhedron(verts, faces[:-1])


def test_bad_index_rejected():
    with pytest.raises(IndexOutOfRange):
        build_polyhedron(TET_V, [(0, 1, 9), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


@pytest.mark.parametrize("first,named", [((9, 1, -1), 9), ((0, -2, 7), -2),
                                         ((2, 0, 4), 4)])
def test_bad_index_names_first_in_cycle_order(first, named):
    with pytest.raises(IndexOutOfRange,
                       match=f"face 0 references vertex {named}$"):
        build_polyhedron(TET_V, [first, (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def test_repeated_vertex_rejected():
    with pytest.raises(DegenerateFace):
        build_polyhedron(TET_V, [(0, 1, 2, 1)] + TET_F[1:])


def test_nonplanar_face_rejected():
    verts, faces = cube_data()
    verts = verts.copy()
    verts[7] += (0.2, 0.1, 0.05)
    with pytest.raises(DegenerateFace):
        build_polyhedron(verts, faces)


def test_flat_edge_rejected():
    # split one cube face into two coplanar triangles along its diagonal
    verts, faces = cube_data()
    quad = faces.pop(2)
    faces.append([quad[0], quad[1], quad[2]])
    faces.append([quad[0], quad[2], quad[3]])
    with pytest.raises(FlatEdge):
        build_polyhedron(verts, faces)


def test_disconnected_rejected():
    v = np.vstack([TET_V, np.asarray(TET_V) + 10.0])
    f = TET_F + [tuple(i + 4 for i in cyc) for cyc in TET_F]
    with pytest.raises(DisconnectedSurface):
        build_polyhedron(v, f)


def test_orientability():
    assert is_orientable(gen_tetrahedron())
    assert is_orientable(gen_flat_torus9())
    assert not is_orientable(gen_tetrahemihexahedron())


def test_orientation_round_trip():
    p = gen_flat_torus9()
    flipped = build_polyhedron(p.vertices,
                               [tuple(reversed(c)) for c in p.faces])
    assert is_orientable(flipped)


def test_classify():
    assert classify(gen_tetrahedron()).genus == 0
    t = classify(gen_flat_torus9())
    assert t.orientable and t.genus == 1 and t.euler_characteristic == 0
    q = classify(gen_q2_9())
    assert not q.orientable and q.genus == 2


def test_topology_from():
    assert topology_from(0, True).genus == 1
    assert topology_from(-2, False).genus == 4
    assert topology_from(2, True).genus == 0
    with pytest.raises(InconsistentTopology):
        topology_from(1, True)


def test_edge_count_identity():
    for p in (gen_tetrahedron(), gen_flat_torus9(), gen_q2_9()):
        assert 2 * p.n_edges == sum(len(c) for c in p.faces)


def test_deterministic_edges():
    a = build_polyhedron(TET_V, TET_F)
    b = build_polyhedron(TET_V, TET_F)
    assert a.edges == b.edges and a.edge_slots == b.edge_slots


def test_replace_meta_keeps_every_field_and_copies_containers():
    @dataclass
    class Tagged(MeshMetadata):
        tag: str = ""

    meta = Tagged(family="t", provenance=["drill"], seam_edges={(0, 1)},
                  tag="kept")
    new = replace_meta(meta, genus=3)
    assert (new.tag, new.family, new.genus) == ("kept", "t", 3)
    new.provenance.append("connect_sum")
    new.seam_edges.add((1, 2))
    assert meta.provenance == ["drill"] and meta.seam_edges == {(0, 1)}


def test_flat_edge_beside_non_convex_face_rejected():
    # 3x3x1 box whose top is split into the square [1,3]^2 and the L-shaped
    # rest; the L's vertex mean lies inside the square, outside the L
    verts = [(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0), (0, 0, 1),
             (3, 0, 1), (3, 3, 1), (0, 3, 1), (1, 1, 1), (3, 1, 1),
             (1, 3, 1)]
    faces = [(8, 9, 6, 10), (4, 5, 9, 8, 10, 7), (0, 3, 2, 1), (0, 1, 5, 4),
             (1, 2, 6, 9, 5), (2, 3, 7, 10, 6), (3, 0, 4, 7)]
    with pytest.raises(FlatEdge):
        build_polyhedron(verts, faces)


def reference_orientation(p):
    """The depth-first orientation search that the double cover replaced:
    propagate a sign from face 0 over the face-adjacency graph.  Returns
    (connected, orientable) as Polyhedron.orientation does."""
    def faces_of(e):
        (f1, _), (f2, _) = p.edge_slots[e]
        return f1, f2

    def direction(e, side):
        f, s = p.edge_slots[e][side]
        return 1 if p.faces[f][s] == p.edges[e][0] else -1

    sign = [0] * p.n_faces
    sign[0] = 1
    stack = [0]
    conflict = False
    edges_of = [[] for _ in range(p.n_faces)]
    for e in range(p.n_edges):
        f1, f2 = faces_of(e)
        edges_of[f1].append(e)
        edges_of[f2].append(e)
    while stack:
        f = stack.pop()
        for e in edges_of[f]:
            f1, f2 = faces_of(e)
            side = 0 if f == f1 else 1
            g = f2 if side == 0 else f1
            need = -sign[f] * direction(e, side) * direction(e, 1 - side)
            if sign[g] == 0:
                sign[g] = need
                stack.append(g)
            elif sign[g] != need:
                conflict = True
    return 0 not in sign, not conflict


ORIENTATION_CASES = [(name, genus, False, params)
                     for name, genus, params in SMALL_GENERA] + [
    ("nonorientable", g, fewest, {})
    for g in (3, 4, 6, 7, 8, 10) for fewest in (False, True)]


@pytest.mark.parametrize("name,genus,fewest,params", ORIENTATION_CASES)
def test_orientation_cover_agrees_with_search(name, genus, fewest, params):
    p = family(name, genus, fewest, **params)
    assert p.orientation == reference_orientation(p) == \
        (True, classify(p).orientable)
    if p.has_multi_edges:
        return
    # reversing some cycles makes stored neighbours traverse shared edges
    # in the same sense, which the cover must see through
    rng = np.random.default_rng(p.n_faces)
    flip = rng.random(p.n_faces) < 0.5
    q = build_polyhedron(p.vertices, [c[::-1] if f else c
                                      for c, f in zip(p.faces, flip)],
                         metadata=p.metadata)
    assert q.orientation == reference_orientation(q) == p.orientation


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA + [
    ("minimal", g, {}) for g in range(4, 46)])
def test_multi_edges_are_repeated_vertex_pairs(name, genus, params):
    """has_multi_edges, read from the corner layout, says whether two
    edge cells share a vertex pair."""
    p = family(name, genus, **params)
    assert p.has_multi_edges == (len(set(p.edges)) != len(p.edges))


def disjoint_union(a, b, shift=10.0):
    v = np.vstack([a.vertices, b.vertices + shift])
    f = list(a.faces) + [tuple(i + a.n_vertices for i in c) for c in b.faces]
    slots, pairs = _derive_edge_slots(f)
    return Polyhedron(v, tuple(f), pairs, slots, MeshMetadata()), v, f


@pytest.mark.parametrize("second", [gen_tetrahedron, gen_tetrahemihexahedron])
def test_disjoint_surfaces_are_disconnected(second):
    p, v, f = disjoint_union(gen_tetrahedron(), second())
    assert p.orientation == reference_orientation(p) == (False, True)
    with pytest.raises(DisconnectedSurface):
        classify(p)
    with pytest.raises(DisconnectedSurface):
        is_orientable(p)
    with pytest.raises(DisconnectedSurface):
        build_polyhedron(v, f)


def test_orientation_search_runs_once_per_mesh(monkeypatch, tmp_path):
    import ccpforge.mesh as mesh_mod
    from ccpforge import load_json, save_json, verify
    path = tmp_path / "q2_9.json"
    save_json(gen_q2_9(), path)
    calls = []
    search = mesh_mod._orientation_cover

    def counted(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(mesh_mod, "_orientation_cover", counted)
    p = load_json(path)
    assert not verify(p).topology.orientable
    relabelled = p.with_metadata(family="relabelled")
    assert not is_orientable(relabelled)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    verts = np.array(TET_V, float)
    verts[2, 1] = bad
    with pytest.raises(DegenerateFace, match="vertex 2 has a non-finite"):
        build_polyhedron(verts, TET_F)


def assert_frames_fit_face_by_face(p):
    """The plane arrays of geometry, fitted per face length, equal fitting
    each face's own (k, 3) points alone, to the last bit."""
    geo = p.geometry
    assert geo.fitted.all() and len(geo.fitted) == p.n_faces
    for f, cyc in enumerate(p.faces):
        pts = p.vertices[list(cyc)]
        c, n, resid = _geom.plane_fit(pts)
        u, v = _geom.plane_basis(n)
        uv = _geom.project_2d(pts, c, u, v)
        want = (c, n, resid, u, v, uv, _geom.polygon_area_2d(uv))
        got = (geo.centroid[f], geo.normal[f], geo.residual[f], geo.u[f],
               geo.v[f], geo.polygons[f], geo.area[f])
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_frames_equal_face_by_face_fits(name, genus, params):
    p = family(name, genus, **params)
    assert_frames_fit_face_by_face(p)
    rot, tr = random_rigid_motion(np.random.default_rng(len(p.faces)))
    assert_frames_fit_face_by_face(build_polyhedron(
        (rot @ p.vertices.T).T + tr, p.faces, metadata=p.metadata,
        edge_slots=p.edge_slots))


@pytest.mark.parametrize("name,genus", [("p2-24", None), ("q3-18", None),
                                        ("minimal", 5)])
def test_planes_do_not_depend_on_translation(name, genus):
    """Moving every vertex by (1e4, 1e4, 1e4) leaves each face normal and
    each dihedral angle within 1e-11 of the unmoved mesh's."""
    p = family(name, genus)
    q = build_polyhedron(p.vertices + 1e4, p.faces, metadata=p.metadata,
                         edge_slots=p.edge_slots)
    assert np.abs(q.geometry.normal - p.geometry.normal).max() < 1e-11
    assert np.abs(q.geometry.dihedrals - p.geometry.dihedrals).max() < 1e-11


def test_plane_helpers_round_a_row_as_in_a_stack():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(6, 5, 3)) * (10.0, 0.1, 1e-3)
    rot, tr = random_rigid_motion(rng)
    pts = pts @ rot.T + tr
    c, n, resid = _geom.plane_fit(pts)
    u, v = _geom.plane_basis(n)
    poly = _geom.project_2d(pts, c, u, v)
    area = _geom.polygon_area_2d(poly)
    one = _geom.project_2d(pts[:, :1], c, u, v)
    for i, row in enumerate(pts):
        ci, ni, ri = _geom.plane_fit(row)
        ui, vi = _geom.plane_basis(ni)
        pi = _geom.project_2d(row, ci, ui, vi)
        for got, want in ((ci, c[i]), (ni, n[i]), (ri, resid[i]),
                          (ui, u[i]), (vi, v[i]), (pi, poly[i]),
                          (_geom.polygon_area_2d(pi), area[i]),
                          (_geom.project_2d(row[:1], ci, ui, vi), one[i])):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert _geom.dot(ui, vi) == np.dot(ui, vi)
        assert _geom.dot(u, pts[:, 0])[i] == np.dot(ui, row[0])
        assert _geom.norm(row[0]) == np.linalg.norm(row[0])
        assert _geom.norm(pts[:, 0])[i] == np.linalg.norm(row[0])
