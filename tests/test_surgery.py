"""Connected sums, prism-order selection, drilling and annulus retiling."""

import math

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
                             BadOrder, BadParameters, CcpError, FlatSeam,
                             HoleNotInside, NonNegativeChi, NotInteger,
                             NotIsometric)
from ccpforge.generators import gen_t_block, generate_family
from ccpforge.mesh import MeshData, MeshMetadata
from ccpforge.surgery import _locate_face, build_glued, glue, pierce

from conftest import assert_same_planes, cube_data, random_rigid_motion
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
    ], ids=["same-face", "not-parallel", "point-outside", "doubled",
            "doubled-raw", "zero-radius", "negative-radius"])
    def test_bad_spec_raises_before_the_offset_loop(self, monkeypatch, k,
                                                    mesh, spec, kind, error):
        """drill_repeat checks the spec once, on its input, with drill's
        own checks: any k raises drill's error before it locates an
        offset axis or retiles a face (drill_repeat locates with
        _locate_face, pierce retiles with _retile).  Raw data with doubled
        segments is refused as the validated mesh is."""
        p = mesh()
        calls = []
        for name in ("_locate_face", "_retile"):
            monkeypatch.setattr(surgery_mod, name,
                                lambda *a, name=name: calls.append(name))
        with pytest.raises(kind, match=error):
            drill_repeat(p, spec, k)
        assert calls == []


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
    data, geo = pierce(MeshData(p.vertices, p.faces, p.metadata),
                       p.geometry, spec)
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
    monkeypatch.setattr(surgery_mod, "pierce", lambda *args: (nudged, geo))
    if nudge == "along_axis":
        # the ring vertex stays on its triangles and in its wall's plane
        assert drill(p, spec).vertices.tobytes() == verts.tobytes()
        return
    with pytest.raises(CcpError, match=error) as drilled:
        drill(p, spec)
    assert drilled.type is bare.type


def test_chained_minimal_fits_few_face_rows(monkeypatch):
    """gen_minimal(40) (282 faces) glues its twenty T-blocks as data and
    validates the result once: one build_polyhedron call, which fits each
    of the 282 faces exactly once."""
    rows, builds = [], []
    fit = geom_mod.plane_fit
    build = surgery_mod.build_polyhedron

    def counted(pts):
        rows.append(1 if pts.ndim == 2 else len(pts))
        return fit(pts)

    def counted_build(*args, **kw):
        builds.append(1)
        return build(*args, **kw)

    monkeypatch.setattr(geom_mod, "plane_fit", counted)
    for module in (mesh_mod, surgery_mod, generators_mod):
        monkeypatch.setattr(module, "build_polyhedron", counted_build)
    assert gen_minimal(40).n_faces == 282
    assert sum(rows) == 282
    assert len(builds) == 1


def test_pierce_returns_the_next_geometry():
    """The geometry pierce returns with its parts keeps, bit for bit, the
    planes of the faces it kept and leaves the new pieces unfitted; its
    corner layout is that of the whole face list it returned."""
    p = gen_p2_24()
    spec = DrillSpec(0, 1, 12)
    out, geo = pierce(MeshData(p.vertices, p.faces, p.metadata), p.geometry,
                      spec)
    n = p.n_faces - 2
    assert geo.vertices is out.vertices
    assert geo.fitted[:n].all() and not geo.fitted[n:].any()
    layout = mesh_mod._corner_layout(out.faces)
    fresh = mesh_mod.MeshGeometry(out.vertices, layout).fit()
    for name in ("centroid", "normal", "u", "v", "residual", "area"):
        assert getattr(geo, name)[:n].tobytes() == \
            getattr(fresh, name)[:n].tobytes(), name
    m = geo.face_start[n]
    assert geo.uv[:m].tobytes() == fresh.uv[:m].tobytes()
    for name, want in zip(("face_size", "face_start", "corner_vertex",
                           "corner_face", "next_corner"), layout):
        assert np.array_equal(getattr(geo, name), want), name
    assert np.array_equal(geo.prev_corner, fresh.prev_corner)


@pytest.mark.parametrize("dropped", [[0, 17], [17, 0], [5, 6], [6, 5]])
def test_carry_keeps_the_other_faces(dropped):
    """carry on p2-24's geometry (18 faces), dropping the first and last
    faces or two adjacent ones, in either order: its layout is that of
    the kept faces and then the new ones, the kept faces' planes and uv
    are a fresh fit's bit for bit, and the new faces are unfitted."""
    p = gen_p2_24()
    verts = np.vstack([p.vertices, [(0.0, 0.0, 5.0)]])
    new = [p.faces[f][::-1] for f in dropped] + [(0, 1, len(p.vertices))]
    faces = [f for i, f in enumerate(p.faces) if i not in dropped] + new
    geo = p.geometry.carry(dropped, verts, mesh_mod._corner_layout(new))
    layout = mesh_mod._corner_layout(faces)
    for name, want in zip(("face_size", "face_start", "corner_vertex",
                           "corner_face", "next_corner"), layout):
        assert np.array_equal(getattr(geo, name), want), name
    n = p.n_faces - 2
    assert geo.fitted[:n].all() and not geo.fitted[n:].any()
    fresh = mesh_mod.MeshGeometry(verts, layout).fit()
    for name in ("centroid", "normal", "u", "v", "residual", "area"):
        assert getattr(geo, name)[:n].tobytes() == \
            getattr(fresh, name)[:n].tobytes(), name
    m = geo.face_start[n]
    assert geo.uv[:m].tobytes() == fresh.uv[:m].tobytes()


def test_drill_repeat_fits_each_piece_once(monkeypatch):
    """Each step of drill_repeat keeps the planes of the faces it keeps,
    so orientable g = 24 and g = 48 (k = 22 and 46 drills of p2-24) fit
    at most two plane rows per face of the result, final build included,
    where re-fitting every sub-face of both pierced planes at each step
    grew as k squared."""
    rows = []
    fit = geom_mod.plane_fit

    def counted(pts):
        rows.append(1 if pts.ndim == 2 else len(pts))
        return fit(pts)

    monkeypatch.setattr(geom_mod, "plane_fit", counted)
    for genus in (24, 48):
        rows.clear()
        p = generate_family(FamilyRequest("orientable", genus))
        assert sum(rows) <= 2 * p.n_faces, (genus, sum(rows), p.n_faces)


def _z_faces(data):
    """The highest and lowest faces of raw parts whose fitted normal is
    +-z, by the mean height of their vertices."""
    verts = np.asarray(data.vertices, float)
    geo = mesh_mod.MeshGeometry(verts,
                                mesh_mod._corner_layout(data.faces)).fit()
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


def test_locate_face_matches_a_face_by_face_scan():
    """One plane per call, and two planes of one normal in one call, as
    drill_repeat asks: each point gets the face of the scan _locate_face
    replaced.  The planes are those of the pierced faces, which the
    three drills cut into many pieces."""
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
            clear = dist_point_polygon_boundary(q, geo.polygons[f])
            inside = geom_mod.interior_clearance(q, geo.polygons[f])
            if inside is not None and clear > 1e-9 * geo.scale:
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
            assert _locate_face(p.geometry, point[None], [height],
                                normal) == [scan(point, height, normal)]
            points.append((point, float(normal0 @ centroid)))
    # the entry and exit planes of both pierced faces, in both orders
    heights = {round(h) for _, h in points}
    assert heights == {-1, 1}
    located = set()
    for (a, ha), (b, hb) in zip(points, reversed(points)):
        want = [scan(a, ha, normal0), scan(b, hb, normal0)]
        assert _locate_face(p.geometry, np.array([a, b]), [ha, hb],
                            normal0) == want
        located.update(f is None for f, _ in want)
    assert located == {True, False}


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
    """winds_around and dist_point_polygon_boundary, on one polygon or a
    stack, give what the side-by-side loops give for each polygon, to the
    bit, zero-length sides and points on the boundary included."""
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
            for pt, poly, w, d in zip(pts, polys, winds, dists):
                want = min(dist_point_segment(pt, poly[i], poly[(i + 1) % k])
                           for i in range(k))
                assert np.array_equal(d, want)
                assert np.array_equal(dist_point_polygon_boundary(pt, poly),
                                      want)
                assert w == geom_mod.winds_around(pt, poly) == \
                    _winding_loop(pt, poly)
                inside = geom_mod.interior_clearance(pt, poly) is not None
                assert inside == (want >= 1e-14 and _winding_loop(pt, poly))
            # many points against one polygon, as retile_pierced_face asks
            one = dist_point_polygon_boundary(pts, polys[0])
            assert np.array_equal(one, [dist_point_polygon_boundary(
                pt, polys[0]) for pt in pts])
            assert np.array_equal(geom_mod.winds_around(pts, polys[0]), [
                _winding_loop(pt, polys[0]) for pt in pts])
