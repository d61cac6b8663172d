"""Mesh construction, validation errors and topological classification."""

import ast
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from ccpforge import _geom
from ccpforge import (build_polyhedron, classify, euler_characteristic,
                      gen_flat_torus9, gen_p2_24, gen_q2_9, gen_tetrahedron,
                      gen_tetrahemihexahedron, is_orientable)
from ccpforge.errors import (BadParameters, DegenerateFace,
                             DisconnectedSurface, FlatEdge,
                             InconsistentTopology, IndexOutOfRange,
                             NonManifoldEdge)
from ccpforge import mesh as mesh_mod
from ccpforge import surgery as surgery_mod
from ccpforge.fileio import document_to_mesh, mesh_to_document
from ccpforge.mesh import (MeshGeometry, MeshMetadata, Polyhedron,
                           _cell_array, _corner_layout, _derived_cells,
                           _edge_cells, topology_from)
from ccpforge.verify import verify

from conftest import (as_tuples, cube_data, face_polygon, refuses_change,
                      random_rigid_motion, unchecked_mesh)
from test_self_intersection_oracle import CERTIFY_FILES, SMALL_GENERA, family

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


@pytest.mark.parametrize("faces,error,message", [
    ([(0, 1)] + TET_F[1:], DegenerateFace,
     "face 0 has fewer than 3 vertices"),
    (TET_F[:3] + [(1, 3, 2, 3)], DegenerateFace, "face 3 repeats a vertex"),
    (TET_F[:2] + [(0, 3, 4)] + TET_F[3:], IndexOutOfRange,
     "face 2 references vertex 4"),
    (TET_F[:2] + [(0, -1, 1)] + TET_F[3:], IndexOutOfRange,
     "face 2 references vertex -1"),
    # two faces fail different checks: the first face is named
    (TET_F[:1] + [(0, 2, 9), (0, 3)] + TET_F[3:], IndexOutOfRange,
     "face 1 references vertex 9"),
    (TET_F[:1] + [(0, 2, 2), (0, 3, -1)] + TET_F[3:], DegenerateFace,
     "face 1 repeats a vertex"),
    (TET_F[:1] + [(0, 2, 5), (0, 3)] + [(1, 1, 1)], IndexOutOfRange,
     "face 1 references vertex 5"),
    # one face fails two checks: length, then repeats, then range
    ([(1, 1)] + TET_F[1:], DegenerateFace,
     "face 0 has fewer than 3 vertices"),
    ([(9, 1)] + TET_F[1:], DegenerateFace,
     "face 0 has fewer than 3 vertices"),
    ([(9, 9, 1)] + TET_F[1:], DegenerateFace, "face 0 repeats a vertex"),
    ([(-5, 1, -5)] + TET_F[1:], DegenerateFace, "face 0 repeats a vertex"),
    ([()] + TET_F[1:], DegenerateFace, "face 0 has fewer than 3 vertices"),
    # an id beyond any index type is out of range, not wrapped
    (TET_F[:3] + [(1, 3, 2 ** 70)], IndexOutOfRange,
     f"face 3 references vertex {2 ** 70}"),
], ids=["short", "repeat", "high", "negative", "first-face-range",
        "first-face-repeat", "first-face-before-several", "short-repeat",
        "short-range", "repeat-range", "repeat-negative", "empty",
        "beyond-intp"])
def test_face_check_names_first_face_and_check(faces, error, message):
    with pytest.raises(error) as info:
        build_polyhedron(TET_V, faces)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("entry", [2.7, "2", None, np.float64(2.0), (2,)],
                         ids=["float", "text", "none", "numpy-float",
                              "tuple"])
def test_face_entries_are_integers(entry):
    """A face entry that is not an integer by operator.index raises
    IndexOutOfRange naming its face, before the face's other checks; a
    float is not truncated and built."""
    with pytest.raises(IndexOutOfRange) as info:
        build_polyhedron(TET_V, TET_F[:3] + [(1, 3, entry)])
    assert str(info.value) == f"face 3 vertex {entry!r} is not an integer"
    with pytest.raises(IndexOutOfRange, match="^face 2 vertex"):
        build_polyhedron(TET_V, TET_F[:2] + [(0, entry, 1, 1)] + TET_F[3:])
    # an earlier face that fails another check is named first
    with pytest.raises(DegenerateFace, match="^face 0 repeats a vertex$"):
        build_polyhedron(TET_V, [(0, 1, 1)] + TET_F[1:3] + [(1, 3, entry)])


TET_CELLS = build_polyhedron(TET_V, TET_F).geometry.cells


def slot_true(cells):
    """cells as nested ((face, slot), (face, slot)) lists, the first slot
    1 given as True."""
    out = cells.reshape(-1, 2, 2).tolist()
    half = next(h for cell in out for h in cell if h[1] == 1)
    half[1] = True
    return out


@pytest.mark.parametrize("faces,slots,error,message", [
    ([(0, True, 2)] + TET_F[1:], None, IndexOutOfRange,
     "face 0 vertex True is not an integer"),
    ([(0, np.True_, 2)] + TET_F[1:], None, IndexOutOfRange,
     "face 0 vertex np.True_ is not an integer"),
    (TET_F, slot_true(TET_CELLS), NonManifoldEdge,
     r"half-edge \(\d+, True\) entry True is not an integer"),
], ids=["face", "numpy-face", "nested-slots"])
def test_a_bool_among_integers_is_no_integer(faces, slots, error, message):
    """numpy reads a bool among a list's integers as an integer; a face or
    nested edge_slots that holds one raises as a bool alone does, where
    it used to build with True read as 1."""
    with pytest.raises(error, match=message):
        build_polyhedron(TET_V, faces, edge_slots=slots)


def fractional(cells):
    """cells as floats, one slot a half off its integer."""
    out = cells.astype(float)
    out[0, 1] += 0.5
    return out


@pytest.mark.parametrize("slots,message", [
    (fractional(TET_CELLS), r"half-edge \(0\.0, 0\.5\) entry 0\.0 is not an "
     r"integer"),
    (TET_CELLS.astype(float), "entry 0.0 is not an integer"),
    (TET_CELLS.astype(bool), "entry False is not an integer"),
    ([[None, 0, 1, 0]], r"half-edge \(None, 0\) entry None is not"),
    ([[0, 0, "1", 0]] + TET_CELLS[1:].tolist(),
     r"half-edge \('1', 0\) entry '1' is not"),
    ("x", "edge_slots 'x' are not"), (object(), "edge_slots <object"),
    ([[0, 0, 1]], r"are not \(face, slot\) half-edges, two to a cell"),
    ([[(0, 0), (1, 0)], [(0, 1)]], "are not"),
], ids=["fraction", "whole-floats", "bools", "none", "text", "str",
        "object", "three", "ragged"])
def test_edge_slot_entries_are_integers(slots, message):
    """An explicit pairing whose entries are not integers by the faces'
    rule (operator.index, so no float, text, None or bool), or that is
    not (face, slot) half-edges two to a cell, raises NonManifoldEdge; a
    fractional slot is not truncated and built."""
    with pytest.raises(NonManifoldEdge, match=message):
        build_polyhedron(TET_V, TET_F, edge_slots=slots)


@pytest.mark.parametrize("vertices", ["abc", None, 5, [[0, 0], [1, 1, 1]],
                                      [["a", 0, 0]] * 4, np.zeros((4, 2))],
                         ids=["text", "none", "int", "ragged", "strings",
                              "two-columns"])
def test_vertices_must_be_an_n_by_3_array(vertices):
    with pytest.raises(IndexOutOfRange) as info:
        build_polyhedron(vertices, TET_F)
    assert str(info.value) == "vertices must be an (n, 3) array"


@pytest.mark.parametrize("faces", [None, 5, 2.5])
def test_faces_must_be_iterable(faces):
    with pytest.raises(IndexOutOfRange) as info:
        build_polyhedron(TET_V, faces)
    assert str(info.value) == \
        f"faces {faces!r} is not a sequence of vertex cycles"


@pytest.mark.parametrize("face", [5, None, np.int64(3), np.array(3)],
                         ids=["int", "none", "numpy-int", "0-d array"])
def test_a_face_must_be_a_cycle(face):
    """A face that has no length raises IndexOutOfRange naming it, before
    any face is checked further."""
    with pytest.raises(IndexOutOfRange) as info:
        build_polyhedron(TET_V, TET_F[:2] + [face] + TET_F[2:])
    assert str(info.value) == f"face 2 {face!r} is not a vertex cycle"


def test_faces_are_tuples_of_python_ints():
    faces = [np.array(TET_F[0], np.int32), list(map(np.int64, TET_F[1])),
             np.array(TET_F[2], np.uint8), [1, 3, 2]]
    p = build_polyhedron(TET_V, faces)
    assert p.faces == tuple(TET_F)
    assert type(p.faces) is tuple
    assert all(type(c) is tuple for c in p.faces)
    assert all(type(v) is int for c in p.faces for v in c)
    assert build_polyhedron(TET_V, (c for c in TET_F)).faces == tuple(TET_F)


@pytest.mark.parametrize("name", ["zz", "", ["v1"], None])
def test_unknown_label_is_bad_parameters(name):
    p = gen_q2_9()
    assert p.vertices[p.label("v1")] is not None
    with pytest.raises(BadParameters, match="no vertex is labelled"):
        p.label(name)


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


def test_replace_keeps_every_field_and_copies_containers():
    """dataclasses.replace keeps every field, a subclass's too, which
    must be frozen as MeshMetadata is; both records hold frozen copies of
    the containers given, so a change to the caller's dict reaches
    neither and neither can be changed."""
    @dataclass(frozen=True)
    class Tagged(MeshMetadata):
        tag: str = ""

    labels = {"a": 0}
    meta = Tagged(family="t", provenance=["drill"], seam_edges={(0, 1)},
                  vertex_labels=labels, tag="kept")
    new = replace(meta, genus=3)
    assert (new.tag, new.family, new.genus) == ("kept", "t", 3)
    labels["b"] = 1
    for m in (meta, new):
        assert m.provenance == ("drill",)
        assert type(m.seam_edges) is frozenset and m.seam_edges == {(0, 1)}
        assert m.vertex_labels == {"a": 0}
        refuses_change(m)
    with pytest.raises(TypeError, match="non-frozen"):
        @dataclass
        class Loose(MeshMetadata):
            tag: str = ""


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
    """has_multi_edges, read from the sorted edge pairs, says whether two
    edge cells share a vertex pair."""
    p = family(name, genus, **params)
    assert p.has_multi_edges == (len(set(p.edges)) != len(p.edges))


def disjoint_union(a, b, shift=10.0):
    v = np.vstack([a.vertices, b.vertices + shift])
    f = list(a.faces) + [tuple(i + a.n_vertices for i in c) for c in b.faces]
    return unchecked_mesh(v, f), v, f


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


def newell_face(pts):
    """One face's plane as a validated mesh fits it, from its own (k, 3)
    points alone: the centroid, the Newell vector of the cycle about it
    and the unit normal from it, the residual, the plane_basis frame, uv
    and the area, half the Newell vector's length."""
    c = np.add.reduceat(pts, [0], axis=0)[0] / len(pts)
    d = pts - c
    newell = np.add.reduceat(_geom.cross(d, np.roll(d, -1, axis=0)), [0],
                             axis=0)[0]
    n = newell / _geom.norm(newell)
    u, v = _geom.plane_basis(n)
    uv = np.stack([_geom.dot(d, u), _geom.dot(d, v)], axis=1)
    resid = np.abs(_geom.dot(d, n)).max()
    return c, n, resid, u, v, uv, 0.5 * _geom.norm(newell)


def assert_frames_fit_face_by_face(p):
    """The plane arrays of p's geometry equal fitting each face's own
    (k, 3) points alone by newell_face, to the last bit."""
    geo = p.geometry
    assert len(geo.area) == p.n_faces
    for f, cyc in enumerate(p.faces):
        got = (geo.centroid[f], geo.normal[f], geo.residual[f], geo.u[f],
               geo.v[f], face_polygon(geo, f), geo.area[f])
        for a, b in zip(got, newell_face(p.vertices[list(cyc)]),
                        strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_frames_equal_face_by_face_fits(name, genus, params):
    """A validated mesh's planes, fitted in one pass over every corner,
    are each face's own Newell fit, also after a rigid motion; and a fit
    of a seeded subset of the faces alone, in a seeded order, as surgery
    fits the faces it reads (surgery._fitted), gives each face the bytes
    of its rows in the mesh's geometry, the sign of a zero included."""
    p = family(name, genus, **params)
    assert_frames_fit_face_by_face(p)
    rng = np.random.default_rng(len(p.faces))
    rot, tr = random_rigid_motion(rng)
    assert_frames_fit_face_by_face(build_polyhedron(
        (rot @ p.vertices.T).T + tr, p.faces, metadata=p.metadata,
        edge_slots=p.edge_slots))
    geo = p.geometry
    for _ in range(3):
        faces = rng.permutation(p.n_faces)[:rng.integers(1, p.n_faces + 1)]
        corners, planes = surgery_mod._fitted(p.vertices,
                                              [p.faces[f] for f in faces])
        for name, part in zip(mesh_mod._PLANES, planes):
            want = getattr(geo, name)
            for at, f in enumerate(faces.tolist()):
                if name == "uv":
                    a, b = corners.start[at], geo.face_start[f]
                    k = geo.face_size[f]
                    got, row = part[a:a + k], want[b:b + k]
                else:
                    got, row = part[at], want[f]
                assert got.tobytes() == row.tobytes(), (name, f)


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_newell_normals_are_the_least_squares_ones(name, genus, params):
    """On a planar face the Newell normal and the least-squares normal, the
    smallest principal direction of the face's points about their
    centroid (here by SVD, signed to agree with the Newell normal), agree
    to within 1e-12."""
    p = family(name, genus, **params)
    geo = p.geometry
    for f, cyc in enumerate(p.faces):
        d = p.vertices[list(cyc)] - geo.centroid[f]
        lsq = np.linalg.svd(d)[2][-1]
        lsq *= np.sign(lsq @ geo.normal[f])
        assert np.abs(geo.normal[f] - lsq).max() < 1e-12, f


COLLINEAR_FACES = [(0, 3, 1), (0, 1, 2), (0, 2, 4), (1, 3, 4), (0, 4, 3),
                   (1, 4, 2)]


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_a_collinear_face_has_near_zero_area(seed):
    """Face 0's third corner lies on the segment between its other two:
    exactly (seed None), where its Newell vector and area are 0, never
    NaN, or drawn in general position, where the vector is rounding noise
    whose direction is noise too.  Either way the build raises near-zero
    area for the face, not a deviation from a plane, with no warning and
    no verdict."""
    if seed is None:
        v = np.array([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 0),
                      (0, 0, 2)], float)
        geo = MeshGeometry(v, mesh_mod.Combinatorics.of(COLLINEAR_FACES,
                                                        len(v)))
        assert geo.area[0] == 0.0 and not np.isnan(geo.area).any()
    else:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(5, 3)) * 10.0 ** rng.uniform(-2, 2)
        v[3] = v[0] + rng.uniform(0.2, 0.8) * (v[1] - v[0])
    with pytest.raises(DegenerateFace, match="^face 0 has near-zero area$"):
        build_polyhedron(v, COLLINEAR_FACES)


@pytest.mark.parametrize("lift", [1e-6, -1e-6])
def test_a_lifted_vertex_deviates_from_planarity(lift):
    """p2-24 with a vertex of its last face lifted by 1e-6 off the plane of
    the first face that holds it raises for that face, by how much it
    deviates."""
    p = gen_p2_24()
    v = p.vertices.copy()
    w = p.faces[-1][0]
    first = min(f for f, cyc in enumerate(p.faces) if w in cyc)
    v[w] += lift * p.geometry.normal[first]
    with pytest.raises(DegenerateFace, match=f"^face {first} deviates "
                       r"\d\.\d\de-0[67] from planarity$"):
        build_polyhedron(v, p.faces)


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


def tuples_as_built(doc):
    """edge_slots and edges as build_polyhedron made them when it kept
    tuples: as_tuples of the cells a document's faces derive, or of its
    edge_cells."""
    corners = _corner_layout(doc["faces"])
    if "edge_cells" in doc:
        return as_tuples(*_edge_cells(_cell_array(doc["edge_cells"]),
                                      corners))
    return as_tuples(*_derived_cells(corners))


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_edge_tuples_are_built_on_first_read(name, genus, params):
    """A generated mesh and its JSON round trip keep their edge cells as
    arrays: building, loading and verifying either builds neither tuple
    view.  Read, the views are the tuples the build used to make, pairs
    ascending, and n_edges counts them."""
    p = family(name, genus, **params)
    doc = json.loads(json.dumps(mesh_to_document(p)))
    q = document_to_mesh(doc)
    for m in (p, q):
        verify(m)
        assert "edges" not in vars(m) and "edge_slots" not in vars(m)
    slots, pairs = tuples_as_built(doc)
    for m in (q, p):
        assert m.edge_slots == slots and m.edges == pairs
        assert m.n_edges == len(m.edges) == len(m.edge_slots)
        assert list(pairs) == sorted(pairs)
        assert m.edge_pairs.tolist() == [list(e) for e in pairs]


def test_with_metadata_carries_the_edge_arrays():
    """with_metadata shares the geometry and the pair array and builds no
    tuples; read later, they are the original's."""
    p = family("orientable", 3)
    q = p.with_metadata(family="relabelled")
    assert q.geometry is p.geometry and q.edge_pairs is p.edge_pairs
    assert "edges" not in vars(q) and "edge_slots" not in vars(q)
    assert (q.metadata.family, p.metadata.family) == \
        ("relabelled", "orientable")
    assert q.edges == p.edges and q.edge_slots == p.edge_slots
    r = q.with_metadata(genus=7)
    assert r.edges is q.edges and r.metadata.genus == 7


def test_only_build_polyhedron_makes_a_polyhedron():
    """The class takes no parts: a mesh that no build validated cannot be
    constructed."""
    v, f = cube_data()
    slots, pairs = as_tuples(*_derived_cells(_corner_layout(f)))
    with pytest.raises(TypeError, match="build_polyhedron"):
        Polyhedron(v, f, pairs, slots)
    with pytest.raises(TypeError, match="build_polyhedron"):
        Polyhedron()


SRC = Path(__file__).resolve().parent.parent / "src" / "ccpforge"


def unchecked_uses(source: str) -> list[tuple[int, str]]:
    """(line, text) of each call of Polyhedron( and each read of the tuple
    views .edges and .edge_slots in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                ast.unparse(node.func).split(".")[-1] == "Polyhedron":
            out.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Attribute) and \
                node.attr in ("edges", "edge_slots"):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(set(out))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_the_library_builds_meshes_only_by_build_polyhedron(module):
    """No module constructs a Polyhedron but through build_polyhedron, and
    none reads the tuple views: the library reads edge_pairs rows."""
    assert unchecked_uses((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_each_unchecked_use():
    source = "\n".join([
        "Polyhedron(v, f, e, s)", "mesh.Polyhedron(v, f, e, s)",
        "p.edges[e]", "zip(p.edge_slots)", "build_polyhedron(v, f)",
        "Polyhedron.__new__(Polyhedron)", "p.edge_pairs[e]",
        "meta.seam_edges"])
    assert [line for line, _ in unchecked_uses(source)] == [1, 2, 3, 4]


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA + [
    ("minimal", g, {}) for g in range(4, 13)])
def test_edge_index_finds_the_first_cell_of_a_pair(name, genus, params):
    """edge_index(u, v), in either order, is the first edge cell on the
    pair, as a lookup from each pair to its first cell gives it; the
    glued seams of minimal g >= 4 double some pairs."""
    p = family(name, genus, **params)
    first = {}
    for e, pair in enumerate(p.edges):
        first.setdefault(pair, e)
    if name == "minimal" and genus >= 4:
        assert len(first) < p.n_edges
    for (u, v), e in first.items():
        assert p.edge_index(u, v) == p.edge_index(v, u) == e


def test_a_polyhedron_is_immutable():
    p = build_polyhedron(TET_V, TET_F)
    with pytest.raises(AttributeError):
        p.faces = ()
    with pytest.raises(ValueError):
        p.vertices[0, 0] = 5.0


def cells_by_six_keys(cells, corners):
    """_edge_cells' rows and pairs as it sorted them with six keys: the
    vertex pair, then f1, s1, f2 and s2."""
    half = cells.reshape(-1, 2)
    corner = corners.start[half[:, 0]] + half[:, 1]
    u, v = corners.vertex[corner], corners.vertex[corners.next[corner]]
    ends = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)[::2]
    order = np.lexsort((cells[:, 3], cells[:, 2], cells[:, 1], cells[:, 0],
                        ends[:, 1], ends[:, 0]))
    return cells[order], ends[order]


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA + [
    ("minimal", g, {}) for g in (6, 12)])
def test_explicit_cells_sort_as_by_six_keys(name, genus, params):
    """Explicit cells, their rows shuffled and some halves swapped, of
    the mesh's faces in a shuffled order, sort by the vertex pair and the
    first corner as they sorted by six keys; minimal g = 6 and 12 have
    doubled segments (10 and 22), whose two cells the corners order."""
    p = family(name, genus, **params)
    rng = np.random.default_rng(p.n_faces)
    for _ in range(3):
        order = rng.permutation(p.n_faces)
        corners = _corner_layout([p.faces[f] for f in order])
        cells = p.geometry.cells[rng.permutation(p.n_edges)]
        cells[:, 0::2] = order.argsort()[cells[:, 0::2]]
        swap = rng.random(len(cells)) < 0.5
        cells[swap] = cells[swap][:, [2, 3, 0, 1]]
        for got, want in zip(_edge_cells(cells, corners),
                             cells_by_six_keys(cells, corners)):
            assert got.tobytes() == want.tobytes()


def first_face_failure(geo, is_simple):
    """The per-face loop the array checks replaced: face by face, in
    order, area, planarity, then the simplicity of a face of four or more
    vertices; the message of the first failure, or None."""
    scale = geo.scale
    for fi in range(len(geo.face_size)):
        resid = float(geo.residual[fi])
        if geo.area[fi] <= mesh_mod.LENGTH_TOL * scale * scale:
            return f"face {fi} has near-zero area"
        if resid > mesh_mod.PLANARITY_TOL * scale:
            return f"face {fi} deviates {resid:.2e} from planarity"
        if geo.face_size[fi] > 3 and \
                not is_simple(face_polygon(geo, fi).tolist()):
            return f"face {fi} is not a simple polygon"
    return None


def asked_faces(geo) -> list[int]:
    """The faces whose simplicity the build tests, face by face: those
    with a corner angle above pi or whose exterior angles, pi less each
    corner angle, do not sum to 2 * pi within DEFECT_TOL.  Any other face
    is convex."""
    out = []
    for f in range(len(geo.face_size)):
        a = geo.face_start[f]
        angles = geo.corner_angles[a:a + geo.face_size[f]].tolist()
        turn = sum(np.pi - t for t in angles)
        if max(angles) > np.pi or \
                abs(turn - 2 * np.pi) > mesh_mod.DEFECT_TOL:
            out.append(f)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_face_checks_name_the_first_failing_face(monkeypatch, seed):
    """p2-24 (18 faces of 4, 6 and 8 vertices) with up to two vertices
    lifted off their faces' planes, up to two faces taken as of zero area
    (by the Newell pass), and up to two of the faces that the build asks
    about, those with a reflex corner, taken as not simple:
    build_polyhedron names the face and the check that the per-face loop
    named first."""
    rng = np.random.default_rng(seed)
    p = gen_p2_24()
    v = p.vertices.copy()
    lifted = rng.choice(len(v), int(rng.integers(0, 3)), replace=False)
    v[lifted, 2] += 1e-6
    flat, crossed = (set(rng.choice(faces, int(rng.integers(0, 3)),
                                    replace=False).tolist())
                     for faces in (p.n_faces, asked_faces(p.geometry)))
    newell = mesh_mod._newell

    def flattened(vertices, corners):
        *planes, area = newell(vertices, corners)
        return *planes, np.where(np.isin(np.arange(p.n_faces), list(flat)),
                                 0.0, area)

    monkeypatch.setattr(mesh_mod, "_newell", flattened)
    geo = MeshGeometry(v, p.combinatorics)
    assert [f for f in range(p.n_faces) if geo.area[f] == 0] == sorted(flat)
    faces = {face_polygon(geo, f).tobytes(): f for f in range(p.n_faces)}

    def is_simple(pts, eps=1e-12):
        return faces[np.array(pts).tobytes()] not in crossed

    monkeypatch.setattr(_geom, "polygon_is_simple", is_simple)
    want = first_face_failure(geo, is_simple)
    if want is None:
        build_polyhedron(v, p.faces)
    else:
        with pytest.raises(DegenerateFace, match=f"^{re.escape(want)}$"):
            build_polyhedron(v, p.faces)


# the meshes of the benchmark's workloads with faces of four or more
# corners: certify-files' eight and construct-chain's orientable g = 8
WORKLOAD_MESHES = CERTIFY_FILES + [("orientable", 8, False)]


def crossing_tests(monkeypatch, p) -> list[int]:
    """The sizes of the faces, in order, that build_polyhedron hands
    polygon_is_simple as it builds p's parts again."""
    sizes = []
    is_simple = _geom.polygon_is_simple

    def counted(pts, eps=1e-12):
        sizes.append(len(pts))
        return is_simple(pts, eps)

    with monkeypatch.context() as m:
        m.setattr(_geom, "polygon_is_simple", counted)
        build_polyhedron(p.vertices, p.faces, p.metadata, p.edge_slots)
    return sizes


def test_the_build_tests_only_faces_it_cannot_call_convex(monkeypatch):
    """Of the 393 faces of four or more corners in the nine workload
    meshes, 349 of them quads, the build hands polygon_is_simple the 36
    with a reflex corner and no quad: p2-24's notched walls and bitten
    caps, and v8g's windows and caps; on p2-24 alone, 6 of its 18."""
    meshes = [family(*row) for row in WORKLOAD_MESHES]
    sizes = [np.asarray(p.geometry.face_size) for p in meshes]
    assert sum(int((k > 3).sum()) for k in sizes) == 393
    assert sum(int((k == 4).sum()) for k in sizes) == 349
    asked = [crossing_tests(monkeypatch, p) for p in meshes]
    assert sum(map(len, asked)) == 36 and 4 not in sum(asked, [])
    p = gen_p2_24()
    assert len(crossing_tests(monkeypatch, p)) == 6 == \
        len(asked_faces(p.geometry)) and p.n_faces == 18


def test_a_crossed_face_within_the_simplicity_eps_raises():
    """A pyramid over a bowtie quad whose crossing lies within
    polygon_is_simple's eps, one end 4e-13 off the other side's line: the
    quad reads as simple, but its corner angles sum to 4*pi, not 2*pi,
    and the build names it."""
    v = np.array([(0, 0, 0), (2, 0, 0), (1, 4e-13, 0), (1, -1, 0),
                  (0.8, -0.3, 1)], float)
    faces = [(0, 1, 2, 3), (4, 1, 0), (4, 2, 1), (4, 3, 2), (4, 0, 3)]
    assert _geom.polygon_is_simple(v[:4, :2])
    with pytest.raises(DegenerateFace, match=r"^face 0 is crossed: its "
                       r"corner angles sum to 12\.5664, not 6\.28319$"):
        build_polyhedron(v, faces)
