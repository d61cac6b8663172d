"""Coordinate constructions for every polyhedron family in the catalog,
plus the monotone root solver for the 2g+4-vertex minimal-family blocks."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _geom, surgery
from .errors import (BadParameters, BracketFailure, DomainError,
                     GenusOutOfRange)
from .mesh import (MeshData, MeshMetadata, Polyhedron, build_polyhedron,
                   euler_characteristic, replace_meta)

TAU = 2.0 * math.pi


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _orbit(base, m: int) -> list[np.ndarray]:
    """The points of `base` turned about the z-axis by k*2*pi/m for
    k = 0..m-1, rotation-major: point j of turn k is item len(base)*k + j."""
    out = []
    for k in range(m):
        rot = _rot_z(TAU * k / m)
        out.extend(rot @ p for p in base)
    return out


def _orbit_id(base, m: int) -> Callable[[int, int], int]:
    """The numbering of _orbit(base, m): vid(j, k) is the id of point j,
    counted from 1, of turn k, taken mod m."""
    def vid(j: int, k: int) -> int:
        return len(base) * (k % m) + j - 1
    return vid


def _data(vertices, faces, *, family, genus, orientable, defect,
          labels=None) -> MeshData:
    """A construction's parts, not yet validated."""
    meta = MeshMetadata(family=family, genus=genus, orientable=orientable,
                        expected_defect=defect,
                        vertex_labels=dict(labels or {}))
    return MeshData(np.asarray(vertices, float), faces, meta)


def _build(data: MeshData) -> Polyhedron:
    """Validate a construction's parts; glued parts, which carry their
    edge cells, through build_glued."""
    if data.cells is not None:
        return surgery.build_glued(data)
    return build_polyhedron(data.vertices, data.faces, data.metadata)


def _relabel(data: MeshData, **kw) -> MeshData:
    """data with the metadata fields kw names replaced."""
    return data._replace(metadata=replace_meta(data.metadata, **kw))


# ---------------------------------------------------------------------------
# genus 0 and 1, orientable


def gen_tetrahedron() -> Polyhedron:
    """Regular tetrahedron: 4 vertices, defect pi everywhere."""
    v = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    labels = {f"v{i+1}": i for i in range(4)}
    return _build(_data(v, f, family="tetrahedron", genus=0,
                        orientable=True, defect=math.pi, labels=labels))


def gen_flat_torus9() -> Polyhedron:
    """Nine-vertex flat torus with three-fold symmetry about the z-axis.

    Rows at z = 0, 1/2, 1; each vertex is met by six triangles whose angles
    sum to 2*pi, so every defect vanishes.
    """
    base = [np.array([1.0, 0.0, 0.0]),
            np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.5]),
            np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 1.0])]
    verts = _orbit(base, 3)
    vid = _orbit_id(base, 3)
    labels = {f"v{j},{k}" if k else f"v{j}": vid(j, k)
              for k in range(3) for j in (1, 2, 3)}
    faces = []
    for k in range(3):
        k1 = k + 1
        # band rows 1-2
        faces.append((vid(1, k), vid(2, k), vid(1, k1)))
        faces.append((vid(2, k), vid(2, k1), vid(1, k1)))
        # band rows 2-3
        faces.append((vid(2, k), vid(3, k), vid(2, k1)))
        faces.append((vid(3, k), vid(3, k1), vid(2, k1)))
        # wrap band rows 3-1
        faces.append((vid(3, k), vid(3, k1), vid(1, k)))
        faces.append((vid(3, k1), vid(1, k1), vid(1, k)))
    return _build(_data(verts, faces, family="flat-torus-9", genus=1,
                        orientable=True, defect=0.0, labels=labels))


# ---------------------------------------------------------------------------
# P^2_24: orientable genus 2 from a doubly tunnelled cube


def gen_p2_24(b: float = 0.25, c: float = 1.0 / 32.0) -> Polyhedron:
    """Orientable genus-2 surface on 24 vertices, constant defect -pi/6.

    A cube with two vertical shafts; the three vertex orbits are the cube
    corners, points on the top/bottom faces, and interior points near the
    corners, each reflected through all three coordinate planes.  The
    admissible domain is b > c > 0, sqrt(3)*b < 1, 4*sqrt(3)*c < 1; the
    defect is -pi/6 for every admissible pair.
    """
    return _build(_p2_24(b, c))


def _p2_24(b: float = 0.25, c: float = 1.0 / 32.0) -> MeshData:
    """The parts of gen_p2_24(b, c), for drilling."""
    s3 = math.sqrt(3.0)
    if not (b > c > 0 and 1 > s3 * b and 1 > 4 * s3 * c):
        raise BadParameters(f"(b, c) = ({b}, {c}) outside admissible domain")

    signs = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1)
             for sz in (1, -1)]
    sign_id = {s: i for i, s in enumerate(signs)}
    base = np.array([[1.0, 1.0, 1.0],
                     [1 - s3 * b, 1 - b, 1.0],
                     [1 - s3 * c, 1 - c, 1 - 4 * s3 * c]])

    def v(j, *s):       # point j of the base reflected by the signs s
        return 8 * (j - 1) + sign_id[s]

    # each base point times each sign row; a product by +-1 is exact
    verts = (base[:, None] * np.array(signs, float)).reshape(-1, 3)
    tags = ["".join("+-"[x < 0] for x in s) for s in signs]
    labels = {f"v{j}{tag}": 8 * (j - 1) + i
              for j in (1, 2, 3) for i, tag in enumerate(tags)}

    faces = []
    for sz in (1, -1):
        # octagon cap with bites on the north and south edges
        faces.append((v(1, 1, 1, sz), v(2, 1, 1, sz), v(2, -1, 1, sz),
                      v(1, -1, 1, sz), v(1, -1, -1, sz), v(2, -1, -1, sz),
                      v(2, 1, -1, sz), v(1, 1, -1, sz)))
    for sx in (1, -1):
        for sy in (1, -1):
            # notched corner wall (hexagon) in the plane -sx*x + sqrt3*sy*y
            faces.append((v(1, sx, sy, 1), v(2, sx, sy, 1), v(2, sx, sy, -1),
                          v(1, sx, sy, -1), v(3, sx, sy, -1), v(3, sx, sy, 1)))
    for sy in (1, -1):
        # shaft wall at y = sy*(1-b) and inner wall at y = sy*(1-c)
        faces.append((v(2, 1, sy, 1), v(2, -1, sy, 1),
                      v(2, -1, sy, -1), v(2, 1, sy, -1)))
        faces.append((v(3, 1, sy, 1), v(3, -1, sy, 1),
                      v(3, -1, sy, -1), v(3, 1, sy, -1)))
        for sz in (1, -1):
            # sloped roof/floor of the inner channel
            faces.append((v(1, -1, sy, sz), v(3, -1, sy, sz),
                          v(3, 1, sy, sz), v(1, 1, sy, sz)))
    for sy in (1, -1):
        # full cube wall at y = sy
        faces.append((v(1, 1, sy, 1), v(1, 1, sy, -1),
                      v(1, -1, sy, -1), v(1, -1, sy, 1)))
    for sx in (1, -1):
        # full cube wall at x = sx
        faces.append((v(1, sx, 1, 1), v(1, sx, -1, 1),
                      v(1, sx, -1, -1), v(1, sx, 1, -1)))
    return _data(verts, faces, family="p2-24", genus=2, orientable=True,
                 defect=-math.pi / 6, labels=labels)


# ---------------------------------------------------------------------------
# R(r, h): the squashed tetrahemihexahedron block (projective plane)


def gen_r_block(r: float, h: float) -> Polyhedron:
    """Six-vertex projective-plane block: bottom triangle of circumradius 1
    at z=0, top triangle of circumradius r at z=h, rotated a half step.

    Faces: the bottom triangle, three lateral isosceles triangles, and three
    isosceles trapezoids passing through the interior.  r = 1, h = sqrt(2)
    reproduces the uniform tetrahemihexahedron.
    """
    return _build(_r_block(r, h))


def _r_block(r: float, h: float) -> MeshData:
    """The parts of gen_r_block(r, h), for gluing."""
    if not (0 < r <= 1) or h <= 0:
        raise BadParameters(f"need 0 < r <= 1 and h > 0, got r={r}, h={h}")
    verts = []
    labels = {}
    for i, ang in enumerate((0.0, TAU / 3, 2 * TAU / 3)):        # v1 v2 v3
        labels[f"v{i+1}"] = len(verts)
        verts.append(np.array([math.cos(ang), math.sin(ang), 0.0]))
    for i, ang in enumerate((math.pi, 5 * math.pi / 3, math.pi / 3)):  # v4 v5 v6
        labels[f"v{i+4}"] = len(verts)
        verts.append(np.array([r * math.cos(ang), r * math.sin(ang), h]))
    v1, v2, v3, v4, v5, v6 = range(6)
    faces = [
        (v1, v2, v3),              # bottom
        (v1, v2, v4, v5),          # trapezoids through the interior
        (v2, v3, v5, v6),
        (v3, v1, v6, v4),
        (v4, v5, v3),              # lateral triangles
        (v5, v6, v1),
        (v6, v4, v2),
    ]
    return _data(verts, faces, family="r-block", genus=1, orientable=False,
                 defect=None, labels=labels)


def gen_tetrahemihexahedron() -> Polyhedron:
    """Uniform tetrahemihexahedron: |V|=6, |E|=12, |F|=7, defect pi/3."""
    p = gen_r_block(1.0, math.sqrt(2.0))
    return p.with_metadata(family="thh", genus=1, orientable=False,
                           expected_defect=math.pi / 3)


# ---------------------------------------------------------------------------
# uniform hemi-polyhedra on Archimedean vertex sets


def _central_polygon(verts: np.ndarray, axis: np.ndarray, offset: float
                     ) -> tuple[int, ...]:
    """Indices of vertices within 1e-9 of the plane axis . x = offset,
    sorted CCW around the axis."""
    axis = axis / np.linalg.norm(axis)
    sel = np.flatnonzero(np.abs(verts @ axis - offset) < 1e-9)
    u, v = _geom.plane_basis(axis)
    p2 = _geom.project_2d(verts[sel], verts[sel].mean(axis=0), u, v)
    order = np.argsort(np.arctan2(p2[:, 1], p2[:, 0]))
    return tuple(sel[order].tolist())


def gen_cubohemioctahedron() -> Polyhedron:
    """Cuboctahedron vertices; 6 squares plus 4 hexagons through the centre.
    Non-orientable genus 4, defect -pi/3 at all 12 vertices."""
    return _build(_cubohemioctahedron())


def _cubohemioctahedron() -> MeshData:
    """The parts of gen_cubohemioctahedron(), for drilling."""
    verts = []
    for a in (1, -1):
        for b in (1, -1):
            verts.append((a, b, 0.0))
            verts.append((a, 0.0, b))
            verts.append((0.0, a, b))
    verts = np.array(verts, float)
    faces = []
    for axis_i in range(3):
        for s in (1, -1):
            axis = np.zeros(3)
            axis[axis_i] = s
            faces.append(_central_polygon(verts, axis, 1.0))
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                if sx * sy * sz == 1:
                    faces.append(_central_polygon(
                        verts, np.array([sx, sy, sz], float), 0.0))
    return _data(verts, faces, family="cho", genus=4, orientable=False,
                 defect=-math.pi / 3)


def gen_rhombihexahedron() -> Polyhedron:
    """Small rhombihexahedron on the rhombicuboctahedron's 24 vertices:
    12 edge squares + 6 off-centre octagons.  Non-orientable genus 8,
    defect -pi/2."""
    return _build(_rhombihexahedron())


def _rhombihexahedron() -> MeshData:
    """The parts of gen_rhombihexahedron(), for drilling."""
    q = 1.0 + math.sqrt(2.0)
    verts = []
    for long_axis in range(3):
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    p = [float(sx), float(sy), float(sz)]
                    p[long_axis] *= q
                    verts.append(tuple(p))
    verts = np.array(sorted(set(verts)), float)
    assert len(verts) == 24
    faces = []
    for axis_i in range(3):
        for s in (1, -1):
            axis = np.zeros(3)
            axis[axis_i] = s
            faces.append(_central_polygon(verts, axis, 1.0))  # octagons
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si in (1, -1):
            for sj in (1, -1):
                axis = np.zeros(3)
                axis[i], axis[j] = si, sj
                axis /= np.linalg.norm(axis)
                faces.append(_central_polygon(verts, axis, (2 + math.sqrt(2))
                                              / math.sqrt(2.0)))  # squares
    return _data(verts, faces, family="rhombihexahedron", genus=8,
                 orientable=False, defect=-math.pi / 2)


def gen_small_dodecahemidodecahedron() -> Polyhedron:
    """Small dodecahemidodecahedron on the icosidodecahedron's 30 vertices
    (icosahedron edge midpoints): 12 pentagons + 6 equatorial decagons.
    Non-orientable genus 14, defect -4*pi/5."""
    phi = (1 + math.sqrt(5.0)) / 2
    ico = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for cyc in range(3):
                vals = (0.0, s1 * 1.0, s2 * phi)
                ico.append(np.array([vals[cyc % 3], vals[(cyc + 1) % 3],
                                     vals[(cyc + 2) % 3]]))
    ico = np.array(ico)
    edge_len2 = 4.0  # adjacent icosahedron vertices are at distance 2
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if abs(float(np.sum((ico[i] - ico[j]) ** 2)) - edge_len2) < 1e-9]
    assert len(edges) == 30
    verts = np.array([(ico[i] + ico[j]) / 2 for i, j in edges])

    # pentagon of edge midpoints around each vertex, phi^2/|ico[vi]| out
    ring = phi * phi / math.sqrt(1 + phi * phi)
    faces = [_central_polygon(verts, ico[vi], ring) for vi in range(12)]
    seen_axes = []
    for vi in range(12):  # equatorial decagons (one per axis pair)
        if any(np.allclose(ico[vi], -a) for a in seen_axes):
            continue
        seen_axes.append(ico[vi])
        faces.append(_central_polygon(verts, ico[vi], 0.0))
    return _build(_data(verts, faces, family="sdhd", genus=14,
                        orientable=False, defect=-4 * math.pi / 5))


# ---------------------------------------------------------------------------
# S base and Q^3_18 (non-orientable genus 3)


def gen_s_base() -> Polyhedron:
    """Sphere-type drum with a regular hexagonal base, a regular triangular
    top, three equilateral gluing triangles and three isosceles trapezoids.
    The gluing triangles have side sqrt(3); the trapezoid base angle at the
    hexagon is 5*pi/9."""
    return _build(_s_base())


def _s_base() -> MeshData:
    """The parts of gen_s_base(), for gluing."""
    h2 = math.sqrt(-4 * math.sin(math.pi / 18) ** 2
                   + 2 * math.sin(math.pi / 18) + 2)
    s = math.sqrt(9 / 4 - h2 * h2)
    base = [np.array([1.5 - s, 0.0, h2]),
            np.array([1.5, -math.sqrt(3) / 2, 0.0]),
            np.array([1.5, math.sqrt(3) / 2, 0.0])]
    verts = _orbit(base, 3)
    vid = _orbit_id(base, 3)
    labels = {f"v{j},{k}" if k else f"v{j}": vid(j, k)
              for k in range(3) for j in (1, 2, 3)}
    faces = [tuple(vid(j, k) for k in range(3) for j in (2, 3)),  # hexagon
             tuple(vid(1, k) for k in range(3))]                  # top
    for k in range(3):
        faces.append((vid(1, k), vid(2, k), vid(3, k)))            # gluing
    for k in range(3):
        faces.append((vid(1, k), vid(3, k), vid(2, k + 1), vid(1, k + 1)))
    return _data(verts, faces, family="s-base", genus=0, orientable=True,
                 defect=None, labels=labels)


def gen_q2_9() -> Polyhedron:
    """Flat Klein bottle on 9 vertices: two copies of R(1/2, h) glued along
    their base triangles; every defect is zero."""
    block = _r_block(0.5, 0.5 * math.sqrt(3 * (1 + math.sqrt(3))))
    out = surgery.build_glued(surgery.glue(block, [(
        block, surgery.FaceCorrespondence(0, 0, mapping=(0, 2, 1)))]))
    return out.with_metadata(family="q2-9", genus=2, orientable=False,
                             expected_defect=0.0)


def gen_q3_18() -> Polyhedron:
    """Non-orientable genus 3 on 18 vertices: the S drum with an R(r, h)
    block glued onto each of its three lateral triangles; defect -pi/9."""
    return _build(_q3_18())


def _q3_18() -> MeshData:
    """The glued parts of gen_q3_18(), for drilling."""
    sp9 = math.sin(math.pi / 9)
    r = 2 * sp9 / (1 + 2 * sp9)
    h = math.sqrt(-4 * sp9 * sp9 - 2 * sp9 + 2) / (1 + 2 * sp9)
    block = _r_block(r, h).paired()
    out = surgery.glue(_s_base(), [(block, surgery.FaceCorrespondence(
        2, 0, mapping=(0, 2, 1)))] * 3)
    return _relabel(out, family="q3-18", genus=3, orientable=False,
                    expected_defect=-math.pi / 9)


# ---------------------------------------------------------------------------
# drilled families


def _drilled(base: MeshData, faces: tuple[int, int], n: int,
             k: int) -> Polyhedron:
    """The raw base built, or drilled k times with n-gonal prisms between
    two of its faces, its highest and lowest ones normal to the z-axis."""
    if k == 0:
        return _build(base)
    return surgery.drill_repeat(base, surgery.DrillSpec(*faces, n), k)


def gen_orientable(g: int) -> Polyhedron:
    """Embedded orientable family: tetrahedron, the 9-vertex flat torus,
    P^2_24, then repeated 12-gonal drilling of P^2_24 (24(g-1) vertices,
    defect -pi/6)."""
    if g < 0:
        raise GenusOutOfRange("genus must be >= 0")
    if g == 0:
        return gen_tetrahedron().with_metadata(family="orientable")
    if g == 1:
        return gen_flat_torus9().with_metadata(family="orientable")
    if g == 2:
        return gen_p2_24().with_metadata(family="orientable")
    out = _drilled(_p2_24(), (0, 1), 12, g - 2)
    return out.with_metadata(family="orientable", genus=g, orientable=True,
                             expected_defect=-math.pi / 6)


def gen_nonorientable(g: int, prefer_fewest: bool = False) -> Polyhedron:
    """Non-orientable family for every genus g >= 1.

    The default route chains the four base constructions with
    defect-preserving drilling; prefer_fewest dispatches to the known
    smallest vertex counts (5g / 7g-14 for odd genus, the hemi polyhedra
    and 4g-8 drilling for even genus).
    """
    if g < 1:
        raise GenusOutOfRange("genus must be >= 1")
    if g == 1:
        return gen_tetrahemihexahedron().with_metadata(family="nonorientable")
    if g == 2:
        return gen_q2_9().with_metadata(family="nonorientable")
    if prefer_fewest and g % 2 == 1 and g > N5G_MAX_GENUS:
        raise GenusOutOfRange(
            f"nonorientable with prefer_fewest covers odd genus up to "
            f"{N5G_MAX_GENUS} (its n5g range), not {g}")
    # the fewest-vertex route differs from the chained one only for odd g
    # and for even g >= 8
    if prefer_fewest and g % 2 == 1:
        out = gen_n5g_odd(g)
    elif prefer_fewest and g == 14:
        out = gen_small_dodecahemidodecahedron()
    elif prefer_fewest and g >= 8:
        out = _drilled(_rhombihexahedron(), (4, 5), 4, (g - 8) // 2)
    elif g % 2 == 1:
        out = _drilled(_q3_18(), (1, 0), 18, (g - 3) // 2)
    else:
        out = _drilled(_cubohemioctahedron(), (4, 5), 6, (g - 4) // 2)
    return out.with_metadata(
        family="nonorientable", genus=g, orientable=False,
        expected_defect=TAU * euler_characteristic(out) / out.n_vertices)


# ---------------------------------------------------------------------------
# appendix window families (embedded orientable)


def _window_prism_vertices(cot: float, a: float, z: float):
    """The six window-profile points shared by the 8g and 6g families:
    prism corners at (cot, -+1, -+z), inset frame points on the mid line,
    and the throat pair at height 0."""
    tan_a, sin_a = math.tan(a), math.sin(a)
    return [
        np.array([cot, -1.0, z]),                                    # v1
        np.array([cot, -1.0, -z]),                                   # v2
        np.array([cot - tan_a, 0.0, z]),                             # v3
        np.array([cot - tan_a, 0.0, -z]),                            # v4
        np.array([cot - 0.5 * sin_a * tan_a, -1 + 0.5 * sin_a, 0.0]),  # v5
        np.array([cot - 0.5 * sin_a * tan_a, 1 - 0.5 * sin_a, 0.0]),   # v6
    ]


def gen_v8g(g: int) -> Polyhedron:
    """Embedded orientable family on a 2g-gonal prism with g windows:
    |V|=8g, |E|=16g, |F|=6g+2, defect pi(1-g)/(2g)."""
    if g < 2:
        raise GenusOutOfRange("v8g needs genus >= 2")
    a = math.pi * (g - 1) / (4 * g)
    cot = 1.0 / math.tan(math.pi / (2 * g))
    base6 = _window_prism_vertices(cot, a, 1.0)
    base = base6[:4] + [base6[4], base6[5],
                        np.array([cot, 1.0, 1.0]), np.array([cot, 1.0, -1.0])]
    verts = _orbit(base, g)
    v = _orbit_id(base, g)
    faces = [tuple(x for k in range(g) for x in (v(1, k), v(3, k), v(7, k))),
             tuple(x for k in range(g) for x in (v(2, k), v(4, k), v(8, k)))]
    for k in range(g):
        faces.append((v(1, k), v(3, k), v(4, k), v(2, k), v(5, k)))
        faces.append((v(7, k), v(3, k), v(4, k), v(8, k), v(6, k)))
        faces.append((v(1, k), v(7, k), v(6, k), v(5, k)))
        faces.append((v(2, k), v(8, k), v(6, k), v(5, k)))
        faces.append((v(1, k), v(2, k), v(8, k), v(7, k)))
        faces.append((v(7, k), v(8, k), v(2, k + 1), v(1, k + 1)))
    return _build(_data(verts, faces, family="v8g", genus=g,
                        orientable=True, defect=-2 * a))


def gen_v6g(g: int) -> Polyhedron:
    """Embedded orientable family on a g-gonal prism, one window per
    lateral face: |V|=6g, |E|=13g, |F|=5g+2, defect 2*pi(1-g)/(3g)."""
    if g < 5:
        raise GenusOutOfRange("v6g needs genus >= 5")
    a = math.pi * (g - 1) / (3 * g)
    cot = 1.0 / math.tan(math.pi / g)
    base = _window_prism_vertices(cot, a, 1.0)
    verts = _orbit(base, g)
    v = _orbit_id(base, g)
    faces = [tuple(x for k in range(g) for x in (v(1, k), v(3, k))),
             tuple(x for k in range(g) for x in (v(2, k), v(4, k)))]
    for k in range(g):
        faces.append((v(1, k), v(3, k), v(4, k), v(2, k), v(5, k)))
        faces.append((v(1, k + 1), v(3, k), v(4, k), v(2, k + 1), v(6, k)))
        faces.append((v(1, k), v(1, k + 1), v(6, k), v(5, k)))
        faces.append((v(2, k), v(2, k + 1), v(6, k), v(5, k)))
        faces.append((v(1, k), v(2, k), v(2, k + 1), v(1, k + 1)))
    return _build(_data(verts, faces, family="v6g", genus=g,
                        orientable=True, defect=-2 * a))


def _v7gm7_printed_params(g: int):
    a = math.pi / (g - 1)
    w = 1.0 / math.tan(a + math.pi / 14)
    x0 = (math.sqrt(2) * math.sin(math.pi / 7)
          / (3 * math.sqrt(math.cos(2 * math.pi / 7) - math.cos(2 * a))))
    y0 = 1 - (math.cos(3 * math.pi / 14) * math.sin(a + math.pi / 14)
              / (3 * (math.sin(a + math.pi / 14) + math.sin(3 * math.pi / 14))))
    return w, x0, y0


def _v7gm7_mesh(g: int, w: float, x0: float, y0: float) -> Polyhedron:
    m = g - 1
    a = math.pi / m
    cot = 1.0 / math.tan(a)
    base = [
        np.array([cot, -1.0, 1 / 3]),               # v1
        np.array([cot, -1.0, -1 / 3]),              # v2
        np.array([cot - w, 0.0, 1 / 3]),            # v3
        np.array([cot - w, 0.0, -1 / 3]),           # v4
        np.array([cot - (1 - y0) * w, -y0, 0.0]),   # v5
        np.array([cot - (1 - y0) * w, y0, 0.0]),    # v6
        np.array([cot - w - x0, 0.0, 0.0]),         # v7
    ]
    verts = _orbit(base, m)
    v = _orbit_id(base, m)
    faces = []
    for k in range(m):
        faces.append((v(1, k), v(2, k), v(2, k + 1), v(1, k + 1)))   # pane
        faces.append((v(1, k), v(3, k), v(3, k - 1)))                # triT
        faces.append((v(2, k), v(4, k), v(4, k - 1)))                # triB
        faces.append((v(1, k), v(3, k), v(4, k), v(2, k), v(5, k)))
        faces.append((v(1, k + 1), v(3, k), v(4, k), v(2, k + 1), v(6, k)))
        faces.append((v(1, k), v(5, k), v(6, k), v(1, k + 1)))
        faces.append((v(2, k), v(5, k), v(6, k), v(2, k + 1)))
        faces.append((v(3, k), v(7, k), v(7, k + 1), v(3, k + 1)))   # ringT
        faces.append((v(4, k), v(7, k), v(7, k + 1), v(4, k + 1)))   # ringB
    return _build(_data(verts, faces, family="v7gm7", genus=g,
                        orientable=True, defect=-4 * math.pi / 7))


def gen_v7gm7(g: int) -> Polyhedron:
    """Embedded orientable family for g in {4, 5, 6} on a (g-1)-gonal prism
    with lateral windows plus one central ring tunnel: |V|=7g-7, |E|=18g-18,
    |F|=9g-9, defect -4*pi/7."""
    if g not in (4, 5, 6):
        raise GenusOutOfRange("v7gm7 supports genus 4, 5 and 6")
    return _v7gm7_mesh(g, *_v7gm7_printed_params(g))


# ---------------------------------------------------------------------------
# 5g-vertex odd non-orientable family (antiprism drum + projective handles)


def _n5g_params(g: int):
    a = (2 * g - 4) * math.pi / (5 * g)
    c54 = math.cos(5 * a / 4)
    rad = (-3 + 6 * math.cos(a) + 6 * math.cos(a / 2)
           - 6 * math.cos(3 * a / 2) + 6 * math.cos(5 * a / 2))
    if rad <= 0:
        raise GenusOutOfRange(
            f"drum height radical non-positive for genus {g}")
    h2 = math.sqrt(rad) / (2 * c54)
    r = 0.5 * (1 - math.sqrt((11 + 14 * math.cos(a / 2))
                             / (1 + 2 * math.cos(a / 2)))
               * math.tan(a / 4))
    return a, h2, r


# Beyond g = 19 the (g - 7)/2 drills of the genus-7 member get so thin that
# the defect deviation leaves the 1e-9 band (4.1e-9 at g = 21, 3.1e-8 at
# g = 23), and from g = 25 they no longer fit in its pierced face.
N5G_MAX_GENUS = 19


def gen_n5g_odd(g: int) -> Polyhedron:
    """Non-orientable odd-genus family with 5g vertices and defect
    (4-2g)*pi/(5g): a g-gonal antiprism drum whose downward lateral
    triangles (all equilateral, side sqrt(3)) each carry an R(r, 1)
    handle.  Genus 13 and beyond comes from 7-gonal drilling of the
    genus-7 member."""
    if g < 3 or g % 2 == 0 or g > N5G_MAX_GENUS:
        raise GenusOutOfRange(
            f"n5g covers odd genus 3..{N5G_MAX_GENUS}, not {g}")
    if g <= 11:
        return _build(_n5g_odd(g))
    out = _drilled(_n5g_odd(7), (0, 1), 7, (g - 7) // 2)
    return out.with_metadata(
        family="n5g", genus=g, orientable=False,
        expected_defect=TAU * euler_characteristic(out) / out.n_vertices)


def _n5g_odd(g: int) -> MeshData:
    """The glued parts of gen_n5g_odd(g) for g up to 11, for drilling."""
    a, h2, r = _n5g_params(g)
    t = math.tan(5 * a / 4)
    s = math.sqrt(9 / 4 - h2 * h2)
    rho_top = math.sqrt(3) / 2 * t - s
    base = [np.array([rho_top, 0.0, h2]),                            # v1
            np.array([math.sqrt(3) / 2 * t, -math.sqrt(3) / 2, 0.0])]  # v2
    verts = _orbit(base, g)
    v = _orbit_id(base, g)
    faces = [tuple(v(1, k) for k in range(g)),        # top g-gon
             tuple(v(2, k) for k in range(g))]        # base g-gon
    for k in range(g):
        faces.append((v(1, k), v(2, k), v(2, k + 1)))     # gluing triangles
    for k in range(g):
        faces.append((v(1, k), v(2, k + 1), v(1, k + 1)))
    drum = MeshData(np.array(verts), faces, MeshMetadata(family="n5g-drum"))
    block = _r_block(r, 1.0).paired()
    out = surgery.glue(drum, [(block, surgery.FaceCorrespondence(
        2, 0, mapping=(0, 2, 1)))] * g)
    return _relabel(out, family="n5g", genus=g, orientable=False,
                    expected_defect=-a)


# ---------------------------------------------------------------------------
# minimal 2g+4-vertex family: T(l, d) blocks and the angle-sum solver


@dataclass(frozen=True)
class BlockParams:
    """Solved (l_k, d_k) chain for the minimal family."""
    pairs: tuple[tuple[float, float], ...]        # k = 1 .. floor(g/2)
    terminal: tuple[float, float] | None          # (l_g, d_g) for odd g


def a_coeff(k: int, g: int) -> float:
    """Angle-deficit coefficient 4(3k + 1 - (-2)^-k) * pi / (3(g+2)),
    strictly increasing in k."""
    if k < 0 or g < 1:
        raise DomainError("need k >= 0 and g >= 1")
    return 4 * (3 * k + 1 - (-2.0) ** (-k)) * math.pi / (3 * (g + 2))


def f_angle_sum(l: float, d: float) -> float:
    """Sum of the three triangle angles at a T(l, d) apex vertex:
    2*arccos((2l^2-d^2)/(2l sqrt(l^2+1))) + arccos((2(l^2+1)-d^2)/(2(l^2+1))).

    Strictly increasing in d on [0, 2l], with f(0) = pi - 2*arctan(l),
    f(l) = pi and f(2l) = pi + 4*arctan(l).
    """
    if l <= 0:
        raise DomainError("l must be positive")
    if not 0.0 <= d <= 2.0 * l:
        raise DomainError(f"d = {d} outside [0, {2 * l}]")
    # clamped on Python floats: the solver calls this thousands of times
    u = min(max((2 * l * l - d * d) / (2 * l * math.sqrt(l * l + 1)), -1.0),
            1.0)
    w = min(max((2 * (l * l + 1) - d * d) / (2 * (l * l + 1)), -1.0), 1.0)
    return 2 * math.acos(u) + math.acos(w)


# the bound on |f - target| at which the bisection may stop
_ROOT_TOL = 1e-12


def _solve_increasing(fn, lo: float, hi: float, target: float) -> float:
    flo, fhi = fn(lo) - target, fn(hi) - target
    if flo > 0 or fhi < 0:
        raise BracketFailure(
            f"no sign change on [{lo}, {hi}] for target {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid) - target
        if abs(fm) < _ROOT_TOL and (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_block_params(g: int, l1: float = 2.0) -> BlockParams:
    """Solve the block parameter chain f_{l_k}(d_k) = 3*pi - a_{k,g} for
    k = 1..floor(g/2) with l_{k+1} = d_k, plus the terminal relation
    f_{l_g}(d_g) = 3*pi - a_{(g-1)/2,g} - 6*pi/(g+2) when g is odd.

    l1 is doubled until both intermediate-value brackets hold.
    """
    if g < 1:
        raise GenusOutOfRange("genus must be >= 1")
    n_main = g // 2
    terminal_target = (3 * math.pi - a_coeff((g - 1) // 2, g)
                       - 6 * math.pi / (g + 2)) if g % 2 == 1 else None
    for _ in range(80):
        ok = True
        if n_main >= 1:
            ok = f_angle_sum(l1, 2 * l1) > 3 * math.pi - a_coeff(1, g)
        if ok and terminal_target is not None:
            ok = f_angle_sum(l1, 0.0) < terminal_target
        if ok:
            break
        l1 *= 2.0
    else:
        raise BracketFailure("could not establish the l1 bracket")

    pairs = []
    l = l1
    for k in range(1, n_main + 1):
        target = 3 * math.pi - a_coeff(k, g)
        d = _solve_increasing(lambda x, ll=l: f_angle_sum(ll, x),
                              l, 2 * l, target)
        pairs.append((l, d))
        l = d
    terminal = None
    if g % 2 == 1:
        lg = l
        d = _solve_increasing(lambda x, ll=lg: f_angle_sum(ll, x),
                              0.0, 2 * lg, terminal_target)
        terminal = (lg, d)
    return BlockParams(tuple(pairs), terminal)


def gen_t_block(l: float, d: float) -> Polyhedron:
    """Six-vertex genus-1 block: a height-1 prism over an isosceles
    triangle (sides l, l, d) whose caps are replaced by six slanted
    triangles through the interior.  The three side rectangles (two of
    width l, one of width d) are the gluing faces.

    Face order: rect over (v1,v2) [l x 1], rect over (v1,v3) [l x 1],
    rect over (v2,v3) [d x 1], then the six triangles.
    """
    return _build(_t_block(l, d))


def _t_block(l: float, d: float) -> MeshData:
    """The parts of gen_t_block(l, d), for gluing."""
    if l <= 0 or not 0 < d < 2 * l:
        raise BadParameters(f"need l > 0 and 0 < d < 2l, got l={l}, d={d}")
    ha = math.sqrt(l * l - d * d / 4)
    bot = [np.array([0.0, ha, -0.5]),            # v1 (apex)
           np.array([-d / 2, 0.0, -0.5]),        # v2
           np.array([d / 2, 0.0, -0.5])]         # v3
    top = [p + np.array([0.0, 0.0, 1.0]) for p in bot]   # v4, v5, v6
    verts = bot + top
    labels = {f"v{i+1}": i for i in range(6)}
    v1, v2, v3, v4, v5, v6 = range(6)
    faces = [
        (v4, v5, v2, v1),      # rect A (l x 1), receives the chain
        (v4, v6, v3, v1),      # rect B (l x 1), second receiver (odd g)
        (v2, v3, v6, v5),      # rect C (d x 1), gives to the next block
        (v3, v4, v5),
        (v2, v4, v3),
        (v6, v4, v2),
        (v6, v1, v2),
        (v5, v1, v6),
        (v3, v1, v5),
    ]
    return _data(verts, faces, family="t-block", genus=1, orientable=True,
                 defect=None, labels=labels)


# Seam maps for the zigzag chain, given as receiver-local vertex ids
# aligned with the giver's rect-C cycle (v2, v3, v6, v5).  Consecutive
# blocks alternate between receiving on rect A and rect B so that the
# vertex carried forward flips sides at every seam and no vertex collects
# more than three blocks.
_MAP_A_FIRST = (0, 1, 4, 3)     # onto rect A after an old-free giver
_MAP_A = (1, 0, 3, 4)           # onto rect A after a rect-B receiver
_MAP_B = (0, 2, 5, 3)           # onto rect B after a rect-A receiver


def _chain_half(params: list[tuple[float, float]]):
    """Glue T(l_1,d_1) # ... # T(l_m,d_m) along the zigzag rectangle chain,
    in one glue call.  Returns (parts, giving face id, giving cycle vertex
    ids)."""
    first = _t_block(*params[0]).paired()
    cells = first.cells          # every T-block pairs its sides alike
    give_face = 2
    give_cycle = (1, 2, 5, 4)    # (v2, v3, v6, v5)
    steps = []
    for i, (l, d) in enumerate(params[1:], start=2):
        block = _t_block(l, d)._replace(cells=cells)
        # the chain so far: the first block's 9 faces and 6 vertices, and
        # 9 - 2 faces and 6 - 4 vertices more per block glued on
        n_faces, n_verts = 9 + 7 * (i - 2), 6 + 2 * (i - 2)
        h = give_cycle
        if i % 2 == 0:           # receive on rect A
            mapping = _MAP_A_FIRST if i == 2 else _MAP_A
            face2 = 0
            give_cycle = ((h[1], n_verts, n_verts + 1, h[2])
                          if i == 2 else
                          (h[0], n_verts, n_verts + 1, h[3]))
        else:                    # receive on rect B
            mapping = _MAP_B
            face2 = 1
            give_cycle = (n_verts, h[1], h[2], n_verts + 1)
        steps.append((block, surgery.FaceCorrespondence(
            give_face, face2, mapping=mapping)))
        give_face = n_faces
    return surgery.glue(first, steps), give_face, give_cycle


# From g = 46 the T(l, d) widths outgrow the unit block height so far that
# the first face's area falls below the length tolerance (DegenerateFace).
MINIMAL_MAX_GENUS = 45


def gen_minimal(g: int, l1: float = 2.0) -> Polyhedron:
    """Orientable genus-g surface on 2g+4 vertices with constant defect
    -(2g-2)*pi/(g+2): a mirror-symmetric chain of T(l,d) blocks glued along
    side rectangles, with a terminal centre block for odd genus.  The
    blocks are glued as data and the finished chain validated once."""
    if not 1 <= g <= MINIMAL_MAX_GENUS:
        raise GenusOutOfRange(
            f"minimal covers genus 1..{MINIMAL_MAX_GENUS}, not {g}")
    params = solve_block_params(g, l1)
    defect = -(2 * g - 2) * math.pi / (g + 2)
    if g == 1:
        lt, dt = params.terminal
        out = gen_t_block(lt, dt)
    elif g % 2 == 0:
        # both halves are one chain; it is glued to a moved copy of itself
        mesh, gf, gc = _chain_half(list(params.pairs))
        # middle seam: the vertex continuing on one side meets the vertex
        # that stops on the other, so exactly one earlier block joins in
        mapping = (gc[1], gc[0], gc[3], gc[2])
        out = surgery.build_glued(surgery.glue(mesh, [(
            mesh, surgery.FaceCorrespondence(gf, gf, mapping=mapping))]))
    else:
        m = len(params.pairs)
        half, gf, _ = _chain_half(list(params.pairs))
        lt, dt = params.terminal
        centre = _t_block(lt, dt)
        # the centre receives each half on one of its two long rectangles,
        # taking the halves' still-free top/bottom vertices at v4 and v1
        mapping = _MAP_A if m % 2 == 0 and m >= 2 else _MAP_A_FIRST
        mesh = surgery.glue(half, [(centre, surgery.FaceCorrespondence(
            gf, 0, mapping=mapping))])
        rb_face = len(half.faces) - 1    # centre block's rect B in the result
        h2 = half.faces[gf]
        if m % 2 == 0 and m >= 2:
            mapping2 = (h2[2], h2[3], h2[0], h2[1])
        else:
            mapping2 = (h2[3], h2[2], h2[1], h2[0])
        out = surgery.build_glued(surgery.glue(mesh, [(
            half, surgery.FaceCorrespondence(rb_face, gf,
                                             mapping=mapping2))]))
    return out.with_metadata(family="minimal", genus=g, orientable=True,
                             expected_defect=defect)


# ---------------------------------------------------------------------------
# family catalog


@dataclass(frozen=True)
class FamilyRequest:
    """Generator selection: family id, genus, free parameters."""
    family: str
    genus: int | None = None
    params: dict = field(default_factory=dict)
    prefer_fewest: bool = False


@dataclass(frozen=True)
class FamilyInfo:
    """One catalog row: how `ccp catalog` lists a family and how
    generate_family builds it."""
    family: str
    description: str
    genus_range: str
    vertex_count: str
    orientable: str
    build: Callable[..., Polyhedron]   # takes the genus unless it is fixed
    genus: int | None = None           # the family's only genus, if fixed
    params: tuple[str, ...] = ()       # the --param names it takes
    required: bool = False             # every one of them must be given
    fewest: bool = False               # has a prefer_fewest route


CATALOG: tuple[FamilyInfo, ...] = (
    FamilyInfo("tetrahedron", "regular tetrahedron", "0", "4", "yes",
               gen_tetrahedron, genus=0),
    FamilyInfo("flat-torus-9", "nine-vertex flat torus", "1", "9", "yes",
               gen_flat_torus9, genus=1),
    FamilyInfo("p2-24", "doubly tunnelled cube (params b, c)", "2", "24",
               "yes", gen_p2_24, genus=2, params=("b", "c")),
    FamilyInfo("orientable", "tetrahedron / flat torus / drilled p2-24",
               ">=0", "24(g-1) for g>=2", "yes", gen_orientable),
    FamilyInfo("thh", "tetrahemihexahedron", "1", "6", "no",
               gen_tetrahemihexahedron, genus=1),
    FamilyInfo("r-block", "squashed tetrahemihexahedron (params r, h)",
               "1", "6", "no", gen_r_block, genus=1, params=("r", "h"),
               required=True),
    FamilyInfo("q2-9", "flat Klein bottle", "2", "9", "no", gen_q2_9,
               genus=2),
    FamilyInfo("q3-18", "drum with three projective handles", "3", "18",
               "no", gen_q3_18, genus=3),
    FamilyInfo("cho", "cubohemioctahedron", "4", "12", "no",
               gen_cubohemioctahedron, genus=4),
    FamilyInfo("nonorientable", "chained or fewest-vertex dispatch",
               ">=1", f"5g / 7g-14 odd (<={N5G_MAX_GENUS}), 4g-8 even "
               "(fewest)", "no", gen_nonorientable, fewest=True),
    FamilyInfo("v8g", "windowed 2g-gonal prism", ">=2", "8g", "yes",
               gen_v8g),
    FamilyInfo("v6g", "windowed g-gonal prism", ">=5", "6g", "yes",
               gen_v6g),
    FamilyInfo("v7gm7", "windowed prism with a central ring tunnel",
               "4..6", "7g-7", "yes", gen_v7gm7),
    FamilyInfo("n5g", "antiprism drum with projective handles",
               f"odd 3..{N5G_MAX_GENUS}", "5g (<=11), 7g-14 beyond", "no",
               gen_n5g_odd),
    FamilyInfo("minimal", "glued T(l,d) chain, fewest known vertices",
               f"1..{MINIMAL_MAX_GENUS}", "2g+4", "yes", gen_minimal,
               params=("l1",)),
)

_BY_FAMILY = {info.family: info for info in CATALOG}


def generate_family(request: FamilyRequest) -> Polyhedron:
    """Build the mesh a FamilyRequest describes.  A request its CATALOG row
    does not allow raises before any work: an unknown family, parameter or
    prefer_fewest BadParameters, a missing or other genus GenusOutOfRange."""
    fam, g, par = request.family, request.genus, dict(request.params)
    info = _BY_FAMILY.get(fam)
    if info is None:
        raise BadParameters(f"unknown family {fam!r}")
    unknown = set(par) - set(info.params)
    if unknown:
        raise BadParameters(
            f"family {fam!r} takes no parameter {', '.join(sorted(unknown))}")
    if info.required and set(info.params) - set(par):
        raise BadParameters(f"family {fam!r} needs --param " + " and ".join(
            f"{name}=.." for name in info.params))
    if request.prefer_fewest:
        if not info.fewest:
            raise BadParameters(f"family {fam!r} has no fewest-vertex route")
        par["prefer_fewest"] = True
    if info.genus is not None:
        if g is not None and g != info.genus:
            raise GenusOutOfRange(
                f"family {fam!r} has genus {info.genus}, not {g}")
        return info.build(**par)
    if g is None:
        raise GenusOutOfRange(f"family {fam!r} needs --genus")
    return info.build(int(g), **par)
