"""The float-loop polygon routines and the componentwise cross product of
``ccpforge._geom`` against the code they replaced: the numpy-scalar
polygon routines of tests/scalar_polygon.py and np.cross, to the last
bit; and the tie rule of plane_basis."""

import numpy as np
import pytest

import ccpforge.surgery as surgery_mod
from ccpforge import (FamilyRequest, _geom, build_polyhedron, gen_p2_24,
                      generate_family)
from ccpforge.errors import DegenerateFace

import scalar_polygon
from conftest import face_polygon, random_rigid_motion
from test_self_intersection_oracle import (CERTIFY_FILES, SMALL_GENERA,
                                           family, two_tetrahedra)


def outcome(fn, *args):
    """fn's result, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except DegenerateFace as exc:
        return type(exc), str(exc)


def assert_same_polygon_results(poly, eps=1e-12):
    assert _geom.polygon_is_simple(poly, eps) is \
        scalar_polygon.polygon_is_simple(poly, eps)
    assert outcome(_geom.ear_clip, poly, eps) == \
        outcome(scalar_polygon.ear_clip, poly, eps)


def corpus_meshes():
    """The meshes of the self-intersection oracle corpus."""
    for name, genus, fewest in CERTIFY_FILES:
        yield family(name, genus, fewest)
    for name, genus, params in SMALL_GENERA:
        yield family(name, genus, **params)
    rng = np.random.default_rng(11)
    s3 = np.sqrt(3.0)
    for _ in range(6):
        c = float(rng.uniform(0.004, 1 / (4 * s3) - 0.004))
        b = float(rng.uniform(c + 0.004, 1 / s3 - 0.004))
        yield gen_p2_24(b, c)
    rng = np.random.default_rng(5)
    for name, genus, fewest in [("q3-18", None, False), ("minimal", 3, False),
                                ("nonorientable", 4, True),
                                ("orientable", 2, False), ("cho", None, False)]:
        p = family(name, genus, fewest)
        for _ in range(2):
            rot, tr = random_rigid_motion(rng)
            yield build_polyhedron((rot @ p.vertices.T).T + tr, p.faces,
                                   metadata=p.metadata,
                                   edge_slots=p.edge_slots)
    for shift in [(0.5, 0.5), (0.25, -0.5), (2.0, 0.0), (-2.0, 2.0),
                  (1.0, 1.0)]:
        yield two_tetrahedra(shift)


def test_polygon_routines_on_corpus_faces():
    count = 0
    for p in corpus_meshes():
        geo = p.geometry
        for f in range(p.n_faces):
            assert_same_polygon_results(face_polygon(geo, f))
            count += 1
    assert count > 1500


def test_triangulation_is_each_face_clipped():
    """MeshGeometry.triangulation, which takes a triangle as its own clip
    and clips the other faces, is every face's scalar ear clip, face by
    face and in order, on the corpus meshes."""
    for p in corpus_meshes():
        geo = p.geometry
        vertex, face = [], []
        for f in range(p.n_faces):
            cycle = geo.corner_vertex[geo.face_start[f]:][:geo.face_size[f]]
            for t in scalar_polygon.ear_clip(face_polygon(geo, f)):
                vertex.append(cycle[list(t)].tolist())
                face.append(f)
        assert geo.triangulation.vertex.tolist() == vertex
        assert geo.triangulation.face.tolist() == face


def random_polygons(rng, count):
    """Seeded polygons with 3..11 vertices: star-shaped simple ones, their
    reverses, ones with vertices jittered by 1e-13 off the middle of a
    side, self-crossing ones, at scales from 1e-3 to 1e6."""
    for n in range(count):
        k = int(rng.integers(3, 12))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
        rad = rng.uniform(0.2, 1.0, k)
        poly = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        kind = n % 4
        if kind == 1:
            poly = poly[::-1]
        elif kind == 2:
            # every other vertex near the middle of its neighbours' chord
            mid = 0.5 * (poly + np.roll(poly, -2, axis=0))
            poly[1::2] = np.roll(mid, 1, axis=0)[1::2] \
                + rng.normal(scale=1e-13, size=poly[1::2].shape)
        elif kind == 3:
            poly = poly[rng.permutation(k)]
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        yield np.ascontiguousarray(poly * scale + rng.normal(size=2) * scale)


def test_polygon_routines_on_random_polygons():
    rng = np.random.default_rng(2024)
    simple = crossing = failed = 0
    for poly in random_polygons(rng, 3000):
        assert_same_polygon_results(poly)
        if _geom.polygon_is_simple(poly):
            simple += 1
        else:
            crossing += 1
        failed += isinstance(outcome(_geom.ear_clip, poly), tuple)
    # the corpus reaches both verdicts and the ear-clip failure
    assert simple > 1000 and crossing > 300 and failed > 0


def grid_polygons(rng, count):
    """Seeded polygons with 4..9 vertices on a 5 x 5 integer grid: exact
    collinear corners, vertices on other sides and touching sides, where
    only the strictness of each comparison decides."""
    for _ in range(count):
        k = int(rng.integers(4, 10))
        cells = rng.choice(25, size=k, replace=False)
        poly = np.stack([cells % 5, cells // 5], axis=1).astype(float)
        ang = np.arctan2(poly[:, 1] - 2.0, poly[:, 0] - 2.0)
        yield poly[np.argsort(ang)] if rng.random() < 0.5 else poly


@pytest.mark.parametrize("eps", [0.0, 1e-12])
def test_polygon_routines_on_grid_polygons(eps):
    for poly in grid_polygons(np.random.default_rng(31), 1000):
        assert_same_polygon_results(poly, eps)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 0.5])
def test_polygon_routines_on_every_grid_quad(eps):
    """Quads take unrolled paths (two side pairs, four ears in order):
    every cycle of four points of a 3 x 3 grid, repeats included, so
    convex, reflex, crossing, collinear and zero-area quads, and quads
    with no ear."""
    grid = [(float(x), float(y)) for x in range(3) for y in range(3)]
    failed = 0
    for cells in np.ndindex(9, 9, 9, 9):
        poly = np.array([grid[c] for c in cells])
        assert_same_polygon_results(poly, eps)
        failed += isinstance(outcome(_geom.ear_clip, poly, eps), tuple)
    assert failed > 100


@pytest.mark.parametrize("k", [0, 1, 2])
def test_polygon_routines_on_too_few_vertices(k):
    assert_same_polygon_results(np.zeros((k, 2)))


@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
def test_polygon_routines_at_other_tolerances(eps):
    for poly in random_polygons(np.random.default_rng(7), 200):
        assert_same_polygon_results(poly, eps)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (257, 3), (6, 5, 3),
                                   (2, 3, 4, 3)])
def test_cross_equals_np_cross(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])

    def stack():
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)

    a, b = stack(), stack()
    got = _geom.cross(a, b)
    assert got.shape == shape
    assert np.array_equal(got, np.cross(a, b))
    assert np.array_equal(_geom.cross(a, a), np.cross(a, a))
    # one vector against a stack broadcasts as np.cross does
    assert np.array_equal(_geom.cross(a.reshape(-1, 3)[0], b),
                          np.cross(a.reshape(-1, 3)[0], b))


def z_facing_u(geo):
    """The u axes of geo's faces whose normal is +-e_z."""
    return geo.u[np.abs(np.abs(geo.normal[:, 2]) - 1.0) < 1e-9]


def test_z_facing_faces_get_u_along_x(monkeypatch):
    """Every z-facing face of n5g g = 15 (70 of them) gets u = e_x, to
    rounding, in its validated geometry and in the frames each drill step
    cuts in, those of the faces it pierces and of every face it may
    locate in: the components of its normal along x and y are rounding
    noise, which no longer picks u."""
    frames = []
    pierce = surgery_mod._Drilling.pierce

    def recorded(self, f1, f2, *args):
        frames.append(np.concatenate(
            [[self.frame(f)[2] for f in (f1, f2)]]
            + [stack.u[:stack.m][stack.live[:stack.m]]
               for stack in (self.stacks or {}).values()]))
        return pierce(self, f1, f2, *args)

    monkeypatch.setattr(surgery_mod._Drilling, "pierce", recorded)
    p = generate_family(FamilyRequest("n5g", 15))
    assert len(z_facing_u(p.geometry)) == 70 and frames
    for u in [z_facing_u(p.geometry), *frames]:
        assert np.abs(u - (1.0, 0.0, 0.0)).max() < 1e-15


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_plane_basis_ignores_noise_on_an_axis_normal(axis, sign):
    """Seeded noise of at most 1e-15 added to +-e_i leaves u the axis it
    is for the exact normal: the first axis other than e_i."""
    n = np.zeros(3)
    n[axis] = sign
    rng = np.random.default_rng(3 * axis + (sign > 0))
    noisy = n + rng.uniform(-1e-15, 1e-15, (1000, 3))
    u = _geom.plane_basis(noisy)[0]
    exact = _geom.plane_basis(n)[0]
    first = 1 if axis == 0 else 0
    assert np.array_equal(exact, np.eye(3)[first])
    assert (np.abs(u).argmax(axis=1) == first).all()
    assert np.abs(u - exact).max() < 1e-14
