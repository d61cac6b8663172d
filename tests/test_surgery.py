"""Connected sums, prism-order selection, drilling and annulus retiling."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import ccpforge._geom as geom_mod
import ccpforge.generators as generators_mod
import ccpforge.mesh as mesh_mod
import ccpforge.surgery as surgery_mod
from ccpforge import (DrillSpec, FaceCorrespondence, FamilyRequest,
                      build_polyhedron, choose_prism_order, classify,
                      connect_sum, defect_profile, drill, drill_repeat,
                      euler_characteristic, gen_cubohemioctahedron,
                      gen_minimal, gen_p2_24, gen_q3_18, gen_r_block,
                      gen_tetrahedron, is_embedded, retile_pierced_face,
                      verify)
from ccpforge._geom import dist_point_polygon_boundary
from ccpforge.errors import (AmbiguousCorrespondence, AxisObstructed,
                             BadOrder, BadParameters, CcpError,
                             DegenerateFace, FlatSeam, HoleNotInside,
                             IndexOutOfRange, NonNegativeChi, NotInteger,
                             NotIsometric)
from ccpforge.generators import gen_t_block, generate_family
from ccpforge.mesh import MeshData, MeshMetadata
from ccpforge.surgery import _axis, build_glued, glue, pierce

from conftest import (assert_same_planes, cube_data, face_polygon,
                      random_rigid_motion)
from scalar_polygon import dist_point_segment
from test_self_intersection_oracle import SMALL_GENERA

R_PARAMS = (0.5, 0.5 * math.sqrt(3 * (1 + math.sqrt(3))))


def scalene_tetra(offset=0.0):
    v = np.array([(0, 0, 0), (3, 0, 0), (0, 4, 0), (1.1, 1.3, 5)], float)
    v += offset
    return build_polyhedron(v, [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)])


class TestConnectSum:
    def test_tetra_pair_chi(self):
        t1, t2 = gen_tetrahedron(), gen_tetrahedron()
        out = connect_sum(t1, t2, FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
        assert euler_characteristic(out) == 2
        assert out.n_vertices == 5 and out.n_faces == 6

    def test_q2_9_from_r_blocks(self):
        out = connect_sum(gen_r_block(*R_PARAMS), gen_r_block(*R_PARAMS),
                          FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
        assert euler_characteristic(out) == 1 + 1 - 2
        assert (out.n_vertices, out.n_edges, out.n_faces) == (9, 21, 12)
        assert defect_profile(out).is_constant

    def test_q3_18_chi(self):
        out = gen_q3_18()
        assert euler_characteristic(out) == -1    # 2 + 3*1 - 3*2

    def test_vertex_count_identity(self):
        p1, p2 = gen_r_block(*R_PARAMS), gen_r_block(*R_PARAMS)
        out = connect_sum(p1, p2, FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
        assert out.n_vertices == p1.n_vertices + p2.n_vertices - 3

    def test_auto_search_unique(self):
        out = connect_sum(scalene_tetra(), scalene_tetra(),
                          FaceCorrespondence(0, 0))
        assert euler_characteristic(out) == 2

    def test_auto_search_ambiguous(self):
        with pytest.raises(AmbiguousCorrespondence):
            connect_sum(gen_tetrahedron(), gen_tetrahedron(),
                        FaceCorrespondence(0, 0))

    def test_not_isometric(self):
        big = build_polyhedron(
            np.asarray([(1, 1, 1), (1, -1, -1), (-1, 1, -1),
                        (-1, -1, 1)], float) * 2.0,
            [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
        with pytest.raises(NotIsometric):
            connect_sum(gen_tetrahedron(), big, FaceCorrespondence(0, 0))

    @pytest.mark.parametrize("corr,error", [
        (FaceCorrespondence(7, 0), "face 7 out of range"),
        (FaceCorrespondence(0, 9), "face 9 out of range"),
        (FaceCorrespondence(-1, 0, mapping=(0, 2, 1)), "face -1 out of range"),
        (FaceCorrespondence(-4, -4, mapping=(0, 2, 1)),
         "face -4 out of range"),
        (FaceCorrespondence(0.0, 0, mapping=(0, 2, 1)),
         "face 0.0 is not an integer"),
    ], ids=["face1-beyond", "face2-beyond", "face1-negative",
            "both-negative", "not-an-integer"])
    def test_face_ids_off_the_mesh(self, corr, error):
        """A face id that is not a face of its mesh raises IndexOutOfRange
        with drill's message, before any correspondence is sought; a
        negative id is not read from the end of the face list."""
        t = gen_tetrahedron()
        with pytest.raises(IndexOutOfRange, match=error):
            connect_sum(t, t, corr)

    @pytest.mark.parametrize("mapping,error", [
        (("a", 2, 1), "mapping entry 'a' is not an integer"),
        ((0.0, 2, 1), "mapping entry 0.0 is not an integer"),
        (5, "mapping 5 is not a sequence"),
    ], ids=["text", "float", "not-a-sequence"])
    def test_mapping_entries_are_integers(self, mapping, error):
        """A mapping entry is read as a face id is: one that is not an
        integer raises IndexOutOfRange, and a float is not truncated and
        glued; numpy integers pass.  So does a mapping that is not a
        sequence at all."""
        t = gen_tetrahedron()
        with pytest.raises(IndexOutOfRange, match=error):
            connect_sum(t, t, FaceCorrespondence(0, 0, mapping=mapping))
        assert connect_sum(t, t, FaceCorrespondence(
            0, 0, mapping=tuple(map(np.int64, (0, 2, 1))))).n_faces == 6

    def test_chain_face_ids_count_the_faces_glued_so_far(self):
        t = gen_tetrahedron()
        with pytest.raises(IndexOutOfRange,
                           match="face 6 out of range: the mesh has 6 faces"):
            glue(t, [(t, FaceCorrespondence(0, 0, mapping=(0, 2, 1))),
                     (t, FaceCorrespondence(6, 0))])

    def test_flat_seam(self):
        verts, faces = cube_data()
        c1 = build_polyhedron(verts, faces)
        c2 = build_polyhedron(verts, faces)
        # stack the second cube on top, (x, y)-aligned: the side walls of
        # the two cubes become coplanar across the seam
        aligned = tuple(
            next(w for w in c2.faces[0]
                 if tuple(c2.vertices[w][:2]) == tuple(c1.vertices[v][:2]))
            for v in c1.faces[1])
        with pytest.raises(FlatSeam):
            connect_sum(c1, c2, FaceCorrespondence(1, 0, mapping=aligned))

    def test_flat_seam_from_glued_data(self):
        """Two cubes glued as data: the glue checks only congruence, and
        the one build of the chain finds the flat seam."""
        verts, faces = cube_data()
        cube = MeshData(verts, faces, MeshMetadata())
        aligned = tuple(
            next(w for w in faces[0]
                 if tuple(verts[w][:2]) == tuple(verts[v][:2]))
            for v in faces[1])
        chain = glue(cube, [(cube, FaceCorrespondence(1, 0,
                                                      mapping=aligned))])
        assert (len(chain.vertices), len(chain.faces)) == (12, 10)
        with pytest.raises(FlatSeam):
            build_glued(chain)

    def test_carries_second_mesh_seams(self):
        """The second mesh's retiling seams come through under their new
        ids: face2's vertices take face1's ids, the rest are appended in
        order.  They are exempt from the flat-edge rejection, so the glue
        builds and verifies with no dihedral violation."""
        p1 = gen_p2_24()
        p2 = drill(gen_p2_24(), DrillSpec(0, 1, 12))
        mapping = (0, 1, 5, 4)
        out = connect_sum(p1, p2, FaceCorrespondence(14, 12, mapping))
        assert out.n_vertices == 68
        new_id = dict(zip(mapping, p1.faces[14]))
        fresh = [v for v in range(p2.n_vertices) if v not in new_id]
        new_id.update({v: p1.n_vertices + i for i, v in enumerate(fresh)})
        assert len(p2.metadata.seam_edges) == 40
        assert out.metadata.seam_edges == {
            tuple(sorted((new_id[u], new_id[w])))
            for u, w in p2.metadata.seam_edges}
        assert verify(out).dihedral_violations == []
        assert_same_as_full_build(out)


class TestPrismOrder:
    def test_values(self):
        assert choose_prism_order(gen_p2_24()) == 12
        assert choose_prism_order(gen_cubohemioctahedron()) == 6
        assert choose_prism_order(gen_q3_18()) == 18

    def test_nonnegative_chi(self):
        with pytest.raises(NonNegativeChi):
            choose_prism_order(gen_tetrahedron())

    def test_not_integer(self):
        from ccpforge import gen_minimal
        with pytest.raises(NotInteger):
            choose_prism_order(gen_minimal(3))   # V=10, chi=-4


class TestRetile:
    def test_square_in_square(self):
        outer = np.array([(2, 2, 0), (-2, 2, 0), (-2, -2, 0), (2, -2, 0)],
                         float)
        hole = 0.5 * outer
        faces = retile_pierced_face(outer, hole)
        assert len(faces) == 4 and all(len(c) == 4 for c in faces)

    def test_twelve_gon_spokes(self):
        outer = np.array([(3 * math.cos(i * math.pi / 6),
                           3 * math.sin(i * math.pi / 6), 1)
                          for i in range(12)])
        hole = outer * (1 / 3, 1 / 3, 1)
        faces = retile_pierced_face(outer, hole)
        assert len(faces) == 12 and all(len(c) == 4 for c in faces)

    def test_mixed_counts_sweep(self):
        outer = np.array([(2, 2, 0), (-2, 2, 0), (-2, -2, 0), (2, -2, 0)],
                         float)
        hole = np.array([(math.cos(a), math.sin(a), 0)
                         for a in np.linspace(0.1, 0.1 + 2 * math.pi, 12,
                                              endpoint=False)])
        faces = retile_pierced_face(outer, hole)
        assert len(faces) == 16 and all(len(c) == 3 for c in faces)

    def test_hole_touching_boundary(self):
        outer = np.array([(2, 2, 0), (-2, 2, 0), (-2, -2, 0), (2, -2, 0)],
                         float)
        hole = np.array([(2, 0, 0), (0, 1, 0), (0, -1, 0)], float)
        with pytest.raises(HoleNotInside):
            retile_pierced_face(outer, hole)

    def test_hole_outside(self):
        outer = np.array([(2, 2, 0), (-2, 2, 0), (-2, -2, 0), (2, -2, 0)],
                         float)
        hole = np.array([(5, 0, 0), (6, 1, 0), (6, -1, 0)], float)
        with pytest.raises(HoleNotInside):
            retile_pierced_face(outer, hole)


class TestDrill:
    def test_cube_drill(self, cube):
        out = drill(cube, DrillSpec(face1=1, face2=0, n=4))
        assert out.n_vertices == cube.n_vertices + 8
        assert euler_characteristic(out) == 0
        tc = classify(out)
        assert tc.orientable and tc.genus == 1
        dp = defect_profile(out)
        assert np.abs(dp.per_vertex[8:] + math.pi / 2).max() < 1e-9
        assert np.abs(dp.per_vertex[:8] - math.pi / 2).max() < 1e-9
        assert is_embedded(out)

    def test_bad_order(self, cube):
        with pytest.raises(BadOrder):
            drill(cube, DrillSpec(1, 0, 2))

    @pytest.mark.parametrize("spec,k,kind,error", [
        (DrillSpec(0, 1, 12.5), 1, BadOrder,
         "prism order 12.5 is not an integer"),
        (DrillSpec(0, 1, 12.0), 2, BadOrder,
         "prism order 12.0 is not an integer"),
        (DrillSpec(0, 1, 12), 2.5, BadOrder, "k 2.5 is not an integer"),
        (DrillSpec(0.0, 1, 12), 1, IndexOutOfRange,
         "face 0.0 is not an integer"),
        (DrillSpec(0, 1.0, 12), 2, IndexOutOfRange,
         "face 1.0 is not an integer"),
    ], ids=["order-fraction", "order-float", "k-fraction", "face1-float",
            "face2-float"])
    def test_numbers_that_are_not_integers(self, spec, k, kind, error):
        with pytest.raises(kind, match=error):
            drill_repeat(gen_p2_24(), spec, k)
        if k == 1:
            with pytest.raises(kind, match=error):
                drill(gen_p2_24(), spec)

    def test_numpy_integers_drill_as_ints(self):
        p = gen_p2_24()
        out = drill_repeat(p, DrillSpec(*np.array([0, 1, 12])), np.int64(2))
        want = drill_repeat(p, DrillSpec(0, 1, 12), 2)
        assert np.array_equal(out.vertices, want.vertices)
        assert out.faces == want.faces

    def test_nonparallel_faces(self, cube):
        with pytest.raises(AxisObstructed):
            drill(cube, DrillSpec(0, 2, 4))

    def test_axis_point_outside(self, cube):
        with pytest.raises(AxisObstructed):
            drill(cube, DrillSpec(1, 0, 4, point=(3.0, 0.0, 1.0)))

    def test_footprint_too_large(self, cube):
        with pytest.raises(Exception) as exc:
            drill(cube, DrillSpec(1, 0, 4, radius=5.0))
        assert "FootprintTooLarge" in type(exc.value).__name__

    def test_defect_rule(self):
        p = gen_p2_24()
        n = choose_prism_order(p)
        out = drill(p, DrillSpec(0, 1, n))
        dp = defect_profile(out)
        assert dp.is_constant
        assert dp.mean == pytest.approx(-math.pi / 6, abs=1e-9)

    def test_chi_drop(self):
        p = gen_p2_24()
        out = drill(p, DrillSpec(0, 1, 12))
        assert euler_characteristic(out) == euler_characteristic(p) - 2

    def test_drill_preserves_old_defects(self):
        p = gen_cubohemioctahedron()
        out = drill(p, DrillSpec(4, 5, 6))
        before = defect_profile(p).per_vertex
        after = defect_profile(out).per_vertex
        assert np.abs(after[:p.n_vertices] - before).max() < 1e-9
        assert np.abs(after[p.n_vertices:] + 2 * math.pi / 6).max() < 1e-9

    def test_drill_repeat(self):
        p = gen_p2_24()
        out = drill_repeat(p, DrillSpec(0, 1, 12), 3)
        assert out.n_vertices == 24 + 2 * 12 * 3
        tc = classify(out)
        assert tc.orientable and tc.genus == 5
        assert drill_repeat(p, DrillSpec(0, 1, 12), 1).n_vertices == 48

    def test_drill_repeat_nonorientable_step(self):
        p = gen_q3_18()
        out = drill_repeat(p, DrillSpec(1, 0, 18), 1)
        tc = classify(out)
        assert not tc.orientable and tc.genus == 3 + 2

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mesh,spec,kind,error", [
        (gen_p2_24, DrillSpec(0, 0, 12), AxisObstructed, "must differ"),
        (gen_p2_24, DrillSpec(0, 2, 12), AxisObstructed, "not parallel"),
        (gen_p2_24, DrillSpec(0, 1, 12, point=(50.0, 50.0, 50.0)),
         AxisObstructed, "not interior to face1"),
        (lambda: gen_minimal(3), DrillSpec(0, 1, 6), AxisObstructed,
         "doubled segments"),
        (lambda: glued_data(gen_minimal, 3), DrillSpec(0, 1, 6),
         AxisObstructed, "doubled segments"),
        (gen_p2_24, DrillSpec(0, 1, 12, radius=0.0), BadParameters,
         "radius 0.0 must be positive"),
        (gen_p2_24, DrillSpec(0, 1, 12, radius=-1.0), BadParameters,
         "radius -1.0 must be positive"),
        (gen_p2_24, DrillSpec(0, 1, 12, point=(0.0, 0.0)), BadParameters,
         r"point \(0.0, 0.0\)"),
        (gen_p2_24, DrillSpec(0, 1, 12, phase="x"), BadParameters,
         "phase 'x'"),
        (gen_p2_24, DrillSpec(0, 1, 12, radius="0.1"), BadParameters,
         "radius '0.1'"),
    ], ids=["same-face", "not-parallel", "point-outside", "doubled",
            "doubled-raw", "zero-radius", "negative-radius",
            "two-coordinate-point", "text-phase", "text-radius"])
    def test_bad_spec_raises_before_the_offset_loop(self, monkeypatch, k,
                                                    mesh, spec, kind, error):
        """drill_repeat checks the spec once, on its input, with drill's
        own checks: any k raises drill's error before it tests a face
        for the planes it locates in or retiles a face (drill_repeat
        tests with _in_planes, pierce retiles with _retile).  Raw data
        with doubled segments is refused as the validated mesh is."""
        p = mesh()
        calls = []
        for name in ("_in_planes", "_retile"):
            monkeypatch.setattr(surgery_mod, name,
                                lambda *a, name=name: calls.append(name))
        with pytest.raises(kind, match=error):
            drill_repeat(p, spec, k)
        assert calls == []


@pytest.mark.parametrize("factor", [1.0, 1e6])
@pytest.mark.parametrize("delta", [1e-15, 1e-12])
def test_axis_acceptance_does_not_depend_on_scale(factor, delta):
    """An axis point delta * scale inside face 0 of p2-24, next to the
    midpoint of its first side, is too close to the boundary to drill,
    whatever the mesh's size: the bound scales with the mesh."""
    p = gen_p2_24()
    p = build_polyhedron(p.vertices * factor, p.faces, p.metadata)
    a, b = p.vertices[list(p.faces[0][:2])]
    mid = 0.5 * (a + b)
    inward = p.geometry.centroid[0] - mid
    point = mid + delta * p.geometry.scale * inward / np.linalg.norm(inward)
    with pytest.raises(AxisObstructed, match="not interior to face1"):
        drill(p, DrillSpec(0, 1, 12, point=tuple(point)))


@pytest.mark.parametrize("k", [1, 2])
def test_a_pierced_face_of_zero_area_raises_up_front(k):
    """Raw cube data whose face 0 lies on one line: its Newell vector is
    zero and its normal NaN, which the parallel check would pass.  drill
    and drill_repeat name the face before that check, with no warning."""
    verts, faces = cube_data()
    verts[faces[0]] = [(x, 0.0, -1.0) for x in (-1.5, -0.5, 0.5, 1.5)]
    data = MeshData(verts, faces, MeshMetadata())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AxisObstructed,
                           match="^pierced face 0 has zero area$"):
            drill_repeat(data, DrillSpec(0, 1, 4), k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("vertex,face,error,message", [
    ((np.inf, 0.0, 0.0), None, DegenerateFace, "non-finite coordinate"),
    ((1e300, 0.0, 0.0), None, DegenerateFace, "coordinate beyond 1e\\+64"),
    (None, (2, 3, 99), IndexOutOfRange, "face 5 "),
], ids=["inf", "huge", "face-off-the-mesh"])
def test_raw_parts_are_checked_before_they_are_fitted(k, vertex, face,
                                                      error, message):
    """Drilling raw cube data fits every face, so a vertex that is not
    finite or lies beyond the coordinate limit, or a face with a vertex
    id off the mesh, raises what building the data raises, up front and
    with no warning, though neither touches the pierced faces."""
    verts, faces = cube_data()
    if vertex is not None:
        verts[6] = vertex
    if face is not None:
        faces[5] = face
    data = MeshData(verts, faces, MeshMetadata())
    with pytest.raises(error, match=message):
        build_polyhedron(verts, faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            drill_repeat(data, DrillSpec(0, 1, 4), k)


def test_raw_parts_on_a_record_lend_its_corners(monkeypatch):
    """P^2_24's raw parts carry its Combinatorics record as their faces,
    checked for its 24 vertices once per process, so drilling them checks
    no face again; the record of another vertex count is checked as a
    face list, with the error the list gives."""
    calls = []
    checked = surgery_mod._checked_corners
    monkeypatch.setattr(surgery_mod, "_checked_corners",
                        lambda *a: calls.append(1) or checked(*a))
    data = generators_mod._p2_24()
    assert isinstance(data.faces, mesh_mod.Combinatorics)
    assert drill_repeat(data, DrillSpec(0, 1, 12), 2).n_faces > 18
    assert calls == []
    with pytest.raises(IndexOutOfRange, match="references vertex 23"):
        drill_repeat(data._replace(vertices=data.vertices[:23]),
                     DrillSpec(0, 1, 12), 2)
    assert calls == [1]


def glued_data(build, *args):
    """The glued data that build(*args) validates, with its explicit
    cells."""
    seen = []
    real = surgery_mod.build_glued
    surgery_mod.build_glued = lambda data: seen.append(data) or real(data)
    try:
        build(*args)
    finally:
        surgery_mod.build_glued = real
    assert seen[-1].cells is not None
    return seen[-1]


# ---------------------------------------------------------------------------
# surgery results against a full rebuild of their own data

# the meshes of the benchmark's construct-chain workload
CONSTRUCT_CHAIN = [("minimal", 10, False), ("minimal", 20, False),
                   ("minimal", 40, False), ("orientable", 4, False),
                   ("orientable", 8, False), ("n5g", 15, False),
                   ("nonorientable", 10, False), ("nonorientable", 10, True)]

SURGERY_BUILT = [(name, genus, params, False)
                 for name, genus, params in SMALL_GENERA
                 if generate_family(FamilyRequest(name, genus, params))
                 .metadata.surgery_count()] + \
    [(name, genus, {}, fewest) for name, genus, fewest in CONSTRUCT_CHAIN]


def assert_same_as_full_build(p):
    """A surgery result equals the full validation of its own data: edge
    cells, their order, the orientation and every frame, bit for bit."""
    full = build_polyhedron(p.vertices, p.faces, metadata=p.metadata,
                            edge_slots=p.edge_slots)
    assert p.edges == full.edges
    assert p.edge_slots == full.edge_slots
    assert p.orientation == full.orientation
    assert_same_planes(p, full)


def moved(p, seed):
    rot, tr = random_rigid_motion(np.random.default_rng(seed))
    return build_polyhedron((rot @ p.vertices.T).T + tr, p.faces,
                            metadata=p.metadata, edge_slots=p.edge_slots)


def test_surgery_built_list_covers_every_surgery():
    assert {name for name, *_ in SURGERY_BUILT} >= {
        "orientable", "q2-9", "q3-18", "nonorientable", "n5g", "minimal"}


@pytest.mark.parametrize("name,genus,params,fewest", SURGERY_BUILT)
def test_incremental_equals_full_validation(name, genus, params, fewest):
    assert_same_as_full_build(
        generate_family(FamilyRequest(name, genus, params, fewest)))


@pytest.mark.parametrize("seed", range(3))
def test_incremental_equals_full_validation_on_moved_inputs(seed):
    r = moved(gen_r_block(*R_PARAMS), seed)
    glued = connect_sum(r, moved(r, seed + 10),
                        FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
    assert_same_as_full_build(glued)
    assert_same_as_full_build(drill_repeat(moved(gen_p2_24(), seed),
                                           DrillSpec(0, 1, 12), 2))
    assert_same_as_full_build(drill_repeat(moved(gen_q3_18(), seed),
                                           DrillSpec(1, 0, 18), 2))
    # a T-block's rect C (d x 1) onto the next block's rect A (l = d)
    chain = connect_sum(moved(gen_t_block(2.0, 1.5), seed),
                        moved(gen_t_block(1.5, 1.0), seed + 20),
                        FaceCorrespondence(2, 0, mapping=(0, 1, 4, 3)))
    assert_same_as_full_build(chain)
    assert_same_as_full_build(drill(moved(gen_cubohemioctahedron(), seed),
                                    DrillSpec(4, 5, 6)))


@pytest.mark.parametrize("nudge,error", [
    ("along_axis", "dihedral angle pi"),
    ("onto_neighbour", "coincident endpoints"),
    ("across_centre", "from planarity"),
    ("past_neighbour", "not a simple polygon"),
])
def test_invalid_new_face_same_error_on_both_paths(monkeypatch, nudge,
                                                   error):
    """Moving one vertex of a drill's new prism ring: one build of the
    nudged pierce data, without the drill's seams, fails with the message
    of the check that fails.  With the seams, which exempt the flat edges
    between retiled pieces, drill's own build rejects the three nudges
    that break a new face alike and accepts the one along the axis."""
    p = moved(gen_p2_24(), 5)
    spec = DrillSpec(0, 1, 12)
    data = pierce(MeshData(p.vertices, p.faces, p.metadata), p.geometry,
                  spec, _axis(p.geometry, spec))
    verts = data.vertices.copy()
    a, b = p.n_vertices, p.n_vertices + 1      # two ring neighbours
    if nudge == "along_axis":
        verts[a] += 1e-3 * p.geometry.normal[0]
    elif nudge == "onto_neighbour":
        verts[a] = verts[b]
    elif nudge == "across_centre":
        verts[a] = 2 * verts[a + 6] - verts[a]
    else:                                      # a bow-tie prism wall
        verts[a] = verts[b] + 0.5 * (verts[b] - verts[a])
    with pytest.raises(CcpError, match=error) as bare:
        build_polyhedron(verts, data.faces)
    nudged = data._replace(vertices=verts)
    monkeypatch.setattr(surgery_mod, "pierce", lambda *args: nudged)
    if nudge == "along_axis":
        # the ring vertex stays on its triangles and in its wall's plane
        assert drill(p, spec).vertices.tobytes() == verts.tobytes()
        return
    with pytest.raises(CcpError, match=error) as drilled:
        drill(p, spec)
    assert drilled.type is bare.type


def counted_newell(monkeypatch) -> list[list[bytes]]:
    """A list that records, from now on, each Newell pass (mesh._newell):
    per face it fits, the bytes of the face's (k, 3) points."""
    passes = []
    newell = mesh_mod._newell

    def counted(vertices, corners):
        pts = vertices.take(corners.vertex, axis=0)
        passes.append([pts[a:a + k].tobytes() for a, k in
                       zip(corners.start.tolist(), corners.size.tolist())])
        return newell(vertices, corners)

    for module in (mesh_mod, surgery_mod):
        monkeypatch.setattr(module, "_newell", counted)
    return passes


def test_chained_minimal_fits_few_face_rows(monkeypatch):
    """gen_minimal(40) (282 faces) glues its twenty T-blocks as data and
    validates the result once: one build_polyhedron call, which fits all
    282 faces in one Newell pass, and no other pass."""
    builds = []
    build = surgery_mod.build_polyhedron

    def counted_build(*args, **kw):
        builds.append(1)
        return build(*args, **kw)

    passes = counted_newell(monkeypatch)
    for module in (mesh_mod, surgery_mod, generators_mod):
        monkeypatch.setattr(module, "build_polyhedron", counted_build)
    assert gen_minimal(40).n_faces == 282
    assert len(builds) == 1 and list(map(len, passes)) == [282]


def assert_fresh_planes(geo, vertices, faces):
    """geo's layout is that of `faces`, and its planes are a fresh fit of
    them, bit for bit."""
    layout = mesh_mod._corner_layout(faces)
    for name, want in zip(("face_size", "face_start", "corner_vertex",
                           "corner_face", "next_corner"), layout):
        assert np.array_equal(getattr(geo, name), want), name
    fresh = mesh_mod.MeshGeometry(vertices, layout)
    assert np.array_equal(geo.prev_corner, fresh.prev_corner)
    for name in mesh_mod._PLANES:
        assert getattr(geo, name).tobytes() == \
            getattr(fresh, name).tobytes(), name
        assert not getattr(geo, name).flags.writeable, name


def fitted_drilling(p, faces, monkeypatch=None):
    """A _Drilling of p, tracking the planes of `faces` (a parallel pair),
    after its one step through them with a 12-gonal prism and the fit of
    the faces it made, which the next location would make; with
    monkeypatch, also the Newell passes of the step."""
    spec = DrillSpec(*faces, 12)
    data, geo = surgery_mod._raw(p)
    drilling = surgery_mod._Drilling(data, geo)
    normal = geo.normal[faces[0]]
    drilling.track(normal, tuple(float(normal @ geo.centroid[f])
                                 for f in faces))
    passes = counted_newell(monkeypatch) if monkeypatch else None
    drilling.pierce(*faces, 12, 0.0, _axis(geo, spec), None)
    drilling._fit()
    return drilling, passes


def assert_fresh_frames(drilling, out):
    """Every live face's frame in the drilling, its own or carried from the
    mesh it drilled, has the bits of a fresh fit of the whole result."""
    fresh = mesh_mod.MeshGeometry(out.vertices,
                                  mesh_mod._corner_layout(out.faces))
    for f in range(len(drilling.faces)):
        if f in drilling.dead:
            continue
        at = drilling.place(f)
        for part, want in zip(drilling.frame(f), (
                fresh.centroid, fresh.normal, fresh.u, fresh.v)):
            assert part.tobytes() == want[at].tobytes(), f


def test_pierce_keeps_the_other_faces_first():
    """pierce keeps the faces it does not pierce first, in order, so the
    planes a drilling carries from the mesh, whose two pierced faces are
    dead, and those it fits for the faces it makes are bit for bit a
    fresh fit of the whole face list."""
    p = gen_p2_24()
    spec = DrillSpec(0, 1, 12)
    data, frames = surgery_mod._raw(p)
    assert frames is p.geometry
    out = pierce(data, frames, spec, _axis(frames, spec))
    assert out.faces[:p.n_faces - 2] == list(p.faces[2:])
    drilling, _ = fitted_drilling(p, (0, 1))
    got = drilling.parts()
    assert got.faces == out.faces
    assert got.vertices.tobytes() == out.vertices.tobytes()
    assert_fresh_frames(drilling, out)


@pytest.mark.parametrize("dropped", [[0, 1], [1, 0], [16, 17], [17, 16]])
def test_carry_keeps_the_other_faces(monkeypatch, dropped):
    """A drilling step on p2-24 (18 faces) through its top and bottom
    faces or its two x walls, in either order, carries the planes of the
    faces it keeps: its one Newell pass fits the faces it makes and no
    other, and every live face's frame is a fresh fit's bit for bit."""
    p = gen_p2_24()
    drilling, passes = fitted_drilling(p, dropped, monkeypatch)
    out = drilling.parts()
    assert list(map(len, passes)) == [len(out.faces) - (p.n_faces - 2)]
    assert_fresh_frames(drilling, out)


def test_drill_repeat_fits_each_piece_once(monkeypatch):
    """Each step of drill_repeat keeps the planes of the faces it keeps,
    so orientable g = 24 and g = 48 (k = 22 and 46 drills of p2-24) fit
    fewer Newell rows in their drill steps than twice the faces of the
    result, where re-fitting every face at each step grew as k squared."""
    passes = counted_newell(monkeypatch)
    for genus in (24, 48):
        passes.clear()
        p = generate_family(FamilyRequest("orientable", genus))
        # p2-24's build, the drill steps but the last, whose faces no
        # later step locates in, then the one build of the result
        first, *steps, last = map(len, passes)
        assert first == 18 and last == p.n_faces
        assert len(steps) == genus - 3
        assert sum(steps) < 2 * p.n_faces, (genus, sum(steps), p.n_faces)


def test_drilled_build_fits_no_face_twice(monkeypatch):
    """orientable g = 8 drills p2-24 six times: the drill steps fit no
    face's plane twice (the last step's faces, which no later step
    locates in, not at all), and the one build fits the 268-face result
    in one Newell pass."""
    passes = counted_newell(monkeypatch)
    p = generate_family(FamilyRequest("orientable", 8))
    assert p.n_faces == 268
    base, *steps, last = passes
    assert len(base) == 18 and len(steps) == 5 and len(last) == 268
    rows = [face for step in steps for face in step]
    assert max(Counter(rows).values()) == 1


def test_a_drill_step_pays_for_what_it_adds(monkeypatch):
    """orientable g = 30 drills p2-24 28 times in one drill_repeat.  Once
    p2-24's own 18 faces are tested, each step fits planes (one Newell
    pass) and tests plane membership (_in_planes) for the faces it makes
    and no other, 52 at the first step and 42 at each later one; the last
    step's faces, which no step locates in, are neither.  A boundary
    distance is measured only for a face whose polygon winds around its
    point: two per location (the axis check's two faces, then each
    step's entry and exit faces), where measuring every face in both
    planes took hundreds per step."""
    tested, measured = [], []
    in_planes = surgery_mod._in_planes

    def counted_in_planes(vertices, corners, *args):
        tested.append(len(corners.size))
        return in_planes(vertices, corners, *args)

    dist = geom_mod.dist_point_polygon_boundary

    def counted_dist(pt, poly):
        if pt.ndim == 2:        # a point per face; retiling's holes are 3-D
            measured.append(geom_mod.winds_around(pt, poly).tolist())
        return dist(pt, poly)

    monkeypatch.setattr(surgery_mod, "_in_planes", counted_in_planes)
    monkeypatch.setattr(geom_mod, "dist_point_polygon_boundary",
                        counted_dist)
    passes = counted_newell(monkeypatch)
    p = generate_family(FamilyRequest("orientable", 30))
    base, *steps, last = map(len, passes)
    assert base == 18 and steps == [52] + [42] * 26 and last == p.n_faces
    assert p.n_faces == 18 + sum(steps) + 42 - 2 * 28
    assert tested == [18] + steps
    assert measured == [[True, True]] * 29


def test_a_ring_that_raises_the_scale_retests_every_face(monkeypatch):
    """A step whose prism rings raise the tolerance scale widens the band
    of the plane test, which may take in faces it left out, so every
    live face is tested again: the faces stacked after the step are
    those a fresh record of the drilled parts stacks at the new scale.
    The planes sit 5e-7 off p2-24's top and bottom faces, outside the
    band at scale 1 and inside it at scale 10, which the rings are made
    to raise it to."""
    data, geo = surgery_mod._raw(gen_p2_24())
    normal = geo.normal[0]
    heights = tuple(float(normal @ geo.centroid[f]) + 5e-7 for f in (0, 1))

    def stacked(drilling):
        return sorted((drilling.place(f), i) for s in drilling.stacks.values()
                      for f, i, live in zip(s.face[:s.m].tolist(),
                                            s.plane[:s.m].tolist(),
                                            s.live[:s.m].tolist()) if live)

    drilling = surgery_mod._Drilling(data, geo)
    drilling.track(normal, heights)
    assert stacked(drilling) == []
    drilling.pierce(0, 1, 12, 0.0, _axis(geo, DrillSpec(0, 1, 12)), None)
    monkeypatch.setattr(geom_mod, "tolerance_scale", lambda *a, **kw: 10.0)
    drilling._fit()
    assert drilling.scale == 10.0
    fresh = surgery_mod._Drilling(*surgery_mod._raw(drilling.parts()))
    fresh.track(normal, heights)
    got = stacked(drilling)
    assert got == stacked(fresh) and {i for _, i in got} == {0, 1}


def test_a_glue_chain_works_out_each_piece_side_once(monkeypatch):
    """A glue call works out a piece's side of its seams once per distinct
    piece, face2 and mapping: gen_n5g_odd(11) glues one R-block onto its
    11 drum triangles alike, and gen_minimal(40)'s chain glues 19 T-blocks
    on three (face2, mapping) pairs before the chain is glued to its
    copy."""
    calls = []
    side = surgery_mod._piece_side

    def counted(b, face2, mapping, *args):
        calls.append((face2, mapping))
        return side(b, face2, mapping, *args)

    monkeypatch.setattr(surgery_mod, "_piece_side", counted)
    assert generators_mod.gen_n5g_odd(11).n_faces > 0
    assert calls == [(0, (0, 2, 1))]
    calls.clear()
    gen_minimal(40)
    assert calls[:3] == [(0, generators_mod._MAP_A_FIRST),
                         (1, generators_mod._MAP_B),
                         (0, generators_mod._MAP_A)]
    assert len(calls) == 4


@pytest.mark.parametrize("name,base,spec,k", [
    ("p2-24", gen_p2_24, DrillSpec(0, 1, 12), 1),
    ("q3-18", gen_q3_18, DrillSpec(1, 0, 18), 1),
    ("cho", gen_cubohemioctahedron, DrillSpec(4, 5, 6, phase=0.3), 1),
    ("p2-24-k3", gen_p2_24, DrillSpec(0, 1, 12), 3)])
def test_a_mesh_drills_as_its_raw_parts(name, base, spec, k):
    """Drilling a validated mesh and drilling its raw parts give the same
    mesh bit for bit: the validated mesh lends its own Newell planes, and
    the raw parts' geometry fits each face as the validated one did."""
    p = base()
    raw = MeshData(p.vertices.copy(), list(p.faces), p.metadata)
    got, want = drill_repeat(p, spec, k), drill_repeat(raw, spec, k)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces == want.faces and got.edge_slots == want.edge_slots
    assert got.metadata == want.metadata
    assert_same_planes(got, want)


def _z_faces(data):
    """The highest and lowest faces of raw parts whose Newell normal is
    +-z, by the mean height of their vertices."""
    verts = np.asarray(data.vertices, float)
    geo = mesh_mod.MeshGeometry(verts, mesh_mod._corner_layout(data.faces))
    level = np.abs(np.abs(geo.normal[:, 2]) - 1.0) < 1e-9
    cands = sorted((float(verts[list(data.faces[f])][:, 2].mean()), f)
                   for f in np.flatnonzero(level).tolist())
    return cands[-1][1], cands[0][1]


@pytest.mark.parametrize("name,genus,fewest,faces", [
    ("orientable", 3, False, (0, 1)), ("nonorientable", 5, False, (1, 0)),
    ("n5g", 13, False, (0, 1)), ("nonorientable", 6, False, (4, 5)),
    ("nonorientable", 10, True, (4, 5))],
    ids=["p2-24", "q3-18", "n5g-7", "cho", "rhombihexahedron"])
def test_drilled_families_name_their_top_and_bottom_faces(
        monkeypatch, name, genus, fewest, faces):
    """Each drilled family drills the two faces it names, which are its
    base's highest and lowest faces normal to the z-axis."""
    calls = []
    real = generators_mod._drilled
    monkeypatch.setattr(generators_mod, "_drilled",
                        lambda base, *a: calls.append((base, a[0]))
                        or real(base, *a))
    generate_family(FamilyRequest(name, genus, prefer_fewest=fewest))
    [(base, named)] = calls
    assert named == faces == _z_faces(base)


# ---------------------------------------------------------------------------
# point location


def locate(p, normal, heights, points):
    """What a _Drilling of p, tracking the planes normal . x = height,
    locates for the two points: per point its face (a place in p, which
    is its id while nothing is pierced) and clearance."""
    drilling = surgery_mod._Drilling(*surgery_mod._raw(p))
    drilling.track(normal, tuple(heights))
    return drilling.locate(np.asarray(points, float))


def test_locate_face_matches_a_face_by_face_scan():
    """One plane for both points, and two planes of one normal, as
    drill_repeat asks: each point gets the face of the scan that
    drill_repeat's one-call location replaced.  The planes are those of
    the pierced faces, which the three drills cut into many pieces."""
    base = gen_p2_24()
    p = drill_repeat(base, DrillSpec(0, 1, 12), 3)
    geo = p.geometry
    rng = np.random.default_rng(8)

    def scan(point, height, normal):
        for f in range(p.n_faces):
            if np.abs(p.face_points(f) @ normal - height).max() \
                    > 1e-7 * geo.scale:
                continue
            q = geom_mod.project_2d(point[None, :], geo.centroid[f],
                                    geo.u[f], geo.v[f])[0]
            clear = dist_point_polygon_boundary(q, face_polygon(geo, f))
            if geom_mod.winds_around(q, face_polygon(geo, f)) \
                    and clear > 1e-9 * geo.scale:
                return f, clear
        return None, 0.0

    normal0, points = base.geometry.normal[0], []
    for face in range(p.n_faces):
        normal, centroid = geo.normal[face], geo.centroid[face]
        if abs(abs(normal @ normal0) - 1.0) > 1e-9:
            continue
        height = float(normal @ centroid)
        for point in [centroid] + list(
                centroid + rng.normal(size=(4, 3)) * 0.3):
            assert locate(p, normal, [height] * 2, [point] * 2) == \
                [scan(point, height, normal)] * 2
            points.append((point, float(normal0 @ centroid)))
    # the entry and exit planes of both pierced faces, in both orders
    heights = {round(h) for _, h in points}
    assert heights == {-1, 1}
    located = set()
    for (a, ha), (b, hb) in zip(points, reversed(points)):
        want = [scan(a, ha, normal0), scan(b, hb, normal0)]
        assert locate(p, normal0, [ha, hb], [a, b]) == want
        located.update(f is None for f, _ in want)
    assert located == {True, False}


def test_inside_clearance_is_the_face_by_face_loop():
    """MeshGeometry.inside_clearance of a raw geometry, on faces of three
    lengths in one call, gives per point what one face's projection and
    the side-by-side loops give: the distance where the face winds around
    the point, else 0.0, which points outside and on the boundary get."""
    data = generators_mod._p2_24()
    _, geo = surgery_mod._raw(data)
    faces = np.array([0, 2, 3, 6, 1, 9, 0, 2, 14, 3, 6])
    assert sorted(set(geo.face_size[faces].tolist())) == [4, 6, 8]
    pts = []
    rng = np.random.default_rng(27)
    for i, f in enumerate(faces.tolist()):
        cyc = data.vertices[list(data.faces[f])]
        a, b = cyc[i % len(cyc)], cyc[(i + 1) % len(cyc)]
        pts += [cyc.mean(axis=0) + 0.05 * rng.normal() * (b - a),  # inside
                a + 3.0 * (a - cyc.mean(axis=0)),                  # outside
                a, 0.5 * (a + b)]                                  # boundary
    faces, pts = faces.repeat(4), np.array(pts)
    got = geo.inside_clearance(faces, pts)
    want = []
    for f, pt in zip(faces.tolist(), pts):
        q = geom_mod.project_2d(pt[None], geo.centroid[f], geo.u[f],
                                geo.v[f])[0]
        poly = face_polygon(geo, f)
        k = len(poly)
        dist = min(dist_point_segment(q, poly[i], poly[(i + 1) % k])
                   for i in range(k))
        want.append(dist if _winding_loop(q, poly) else 0.0)
    assert np.array_equal(got, want)
    assert (got[0::4] > 0).all() and not got[1::4].any()
    # a point on the boundary may round a hair inside
    assert (got[2::4] < 1e-15).all() and (got[3::4] < 1e-15).all()


def test_axis_and_locate_face_return_the_query_bits():
    """_axis's entry and exit clearances and each face a _Drilling locates
    come with the bits MeshGeometry.inside_clearance gives for that face
    and point."""
    p = drill_repeat(gen_p2_24(), DrillSpec(0, 1, 12), 2)
    geo = p.geometry
    normal = gen_p2_24().geometry.normal[0]
    tried = 0
    for f1 in range(p.n_faces):
        if abs(abs(geo.normal[f1] @ normal) - 1.0) > 1e-9 \
                or geo.centroid[f1] @ normal < 0.5:
            continue
        f2 = next(f for f in range(p.n_faces)
                  if np.allclose(geo.centroid[f][:2], geo.centroid[f1][:2])
                  and geo.centroid[f] @ normal < -0.5)
        spec = DrillSpec(f1, f2, 12)
        point, depth, d1, d2 = _axis(geo, spec)
        want = geo.inside_clearance(np.array([f1, f2]), np.array(
            [point, point - depth * geo.normal[f2]]))
        assert np.array_equal([d1, d2], want)
        exit_pt = point - depth * geo.normal[f2]
        heights = [float(normal @ point), float(normal @ exit_pt)]
        located = locate(p, normal, heights, [point, exit_pt])
        assert [f for f, _ in located] == [f1, f2]
        assert np.array_equal([c for _, c in located], want)
        tried += 1
    assert tried == 34      # the triangles that retile the top face


def _winding_loop(pt, poly):
    """The side-by-side winding count that winds_around replaced."""
    wn = 0
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        cross = (b - a)[0] * (pt - a)[1] - (b - a)[1] * (pt - a)[0]
        if a[1] <= pt[1]:
            wn += b[1] > pt[1] and cross > 0
        else:
            wn -= b[1] <= pt[1] and cross < 0
    return wn != 0


def test_point_location_is_the_loop_row_by_row():
    """winds_around, dist_point_polygon_boundary and inside_clearance, on
    one polygon or a stack, give what the side-by-side loops give for each
    polygon, to the bit, zero-length sides and points on the boundary
    included; inside_clearance is the distance where the loop winds, else
    0.0."""
    rng = np.random.default_rng(12)
    for k in (3, 4, 7, 12):
        for scale in (1e-5, 1.0, 1e5):
            polys = rng.normal(size=(40, k, 2)) * scale
            polys[::5, 1] = polys[::5, 0]               # zero-length sides
            polys[::5, -1] = polys[::5, 0]
            pts = rng.normal(size=(40, 2)) * scale
            pts[::7] = polys[::7, 2]                    # on a vertex
            pts[1::7] = 0.5 * (polys[1::7, 0] + polys[1::7, 1])  # on a side
            winds = geom_mod.winds_around(pts, polys)
            dists = dist_point_polygon_boundary(pts, polys)
            stacked = []
            for pt, poly, w, d in zip(pts, polys, winds, dists):
                want = min(dist_point_segment(pt, poly[i], poly[(i + 1) % k])
                           for i in range(k))
                assert np.array_equal(d, want)
                assert np.array_equal(dist_point_polygon_boundary(pt, poly),
                                      want)
                assert w == geom_mod.winds_around(pt, poly) == \
                    _winding_loop(pt, poly)
                inside = want if _winding_loop(pt, poly) else 0.0
                assert np.array_equal(geom_mod.inside_clearance(pt, poly),
                                      inside)
                stacked.append(inside)
            assert np.array_equal(geom_mod.inside_clearance(pts, polys),
                                  stacked)
            # many points against one polygon, as retile_pierced_face asks
            one = dist_point_polygon_boundary(pts, polys[0])
            assert np.array_equal(one, [dist_point_polygon_boundary(
                pt, polys[0]) for pt in pts])
            assert np.array_equal(geom_mod.winds_around(pts, polys[0]), [
                _winding_loop(pt, polys[0]) for pt in pts])
