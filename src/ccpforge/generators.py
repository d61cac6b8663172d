"""Coordinate constructions for every polyhedron family in the catalog,
plus the monotone root solver for the 2g+4-vertex minimal-family blocks."""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from . import surgery
from .errors import (BadParameters, BracketFailure, DomainError,
                     GenusOutOfRange)
from .mesh import (Combinatorics, MeshData, MeshMetadata, Polyhedron,
                   _finite, _integer, _real, _record, build_polyhedron)

TAU = 2.0 * math.pi


def _genus(g) -> int:
    """g as an int by mesh._integer, else GenusOutOfRange."""
    return _integer(g, "genus", GenusOutOfRange)


def _genus_in(family: str, g) -> int:
    """g as an int (by _genus) in the genera of the family's CATALOG row,
    else GenusOutOfRange naming them: the one check of a family's range."""
    g, info = _genus(g), _BY_FAMILY[family]
    if g not in info.genera:
        raise GenusOutOfRange(
            f"{family} covers genus {info.genus_range}, not {g}")
    return g


def _flag(x, what: str) -> bool:
    """x as a bool when it is one (numpy's pass), else BadParameters."""
    if not isinstance(x, (bool, np.bool_)):
        raise BadParameters(f"{what} {x!r} is not true or false")
    return bool(x)


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
                        vertex_labels=labels or {})
    return MeshData(np.asarray(vertices, float), faces, meta)


def _constant(base: MeshData, steps: list, **meta) -> Polyhedron:
    """The recipe's mesh (surgery.construct) with the metadata fields
    `meta` names and the expected defect 2*pi*chi/V, its V and chi read
    off the recipe (surgery.counts)."""
    v, chi = surgery.counts(base, steps)
    return surgery.construct(base, steps, **meta,
                             expected_defect=TAU * chi / v)


def _drills(f1: int, f2: int, n: int, k: int) -> list[surgery.Drill]:
    """The steps of k drills of order n between faces f1 and f2, a base's
    highest and lowest ones normal to the z-axis: none for k = 0."""
    return [surgery.Drill(surgery.DrillSpec(f1, f2, n), k)] if k else []


# ---------------------------------------------------------------------------
# genus 0 and 1, orientable


def gen_tetrahedron() -> Polyhedron:
    """Regular tetrahedron: 4 vertices, defect pi everywhere."""
    v = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    labels = {f"v{i+1}": i for i in range(4)}
    return build_polyhedron(*_data(v, f, labels=labels, family="tetrahedron",
                                   genus=0, orientable=True, defect=math.pi))


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
    return build_polyhedron(*_data(verts, faces, family="flat-torus-9",
                                   genus=1, orientable=True, defect=0.0,
                                   labels=labels))


# ---------------------------------------------------------------------------
# P^2_24: orientable genus 2 from a doubly tunnelled cube


def gen_p2_24(b: float = 0.25, c: float = 1.0 / 32.0) -> Polyhedron:
    """Orientable genus-2 surface on 24 vertices, constant defect -pi/6.

    A cube with two vertical shafts; the three vertex orbits are the cube
    corners, points on the top/bottom faces, and interior points near the
    corners, each reflected through all three coordinate planes.  The
    admissible domain is b > c > 0, sqrt(3)*b < 1, 4*sqrt(3)*c < 1, and
    the defect is -pi/6 on all of it.  Near its edges the notched corner
    walls get corners too thin for the tolerances of validation and
    verification, so a pair also needs b >= 1e-5, c >= 1e-6 and
    (b - c)*(1 - 4*sqrt(3)*c) >= 1e-10, else BadParameters.
    """
    return build_polyhedron(*_p2_24(b, c))


def _p2_combinatorics():
    """P^2_24's (b, c)-free parts: its 18 face cycles, its 24 vertex
    labels and its 8 sign rows.  Vertex 8*(j-1) + i is base point j
    reflected by sign row i."""
    signs = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1)
             for sz in (1, -1)]
    sign_id = {s: i for i, s in enumerate(signs)}

    def v(j, *s):       # point j of the base reflected by the signs s
        return 8 * (j - 1) + sign_id[s]

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
    sign_rows = np.array(signs, float)
    sign_rows.flags.writeable = False
    return tuple(faces), labels, sign_rows


# built once per process: every consumer of a MeshData's faces reads them
# or copies them
_P2_FACES, _P2_LABELS, _P2_SIGNS = _p2_combinatorics()
# the faces checked and paired, with what derives from them alone, and the
# metadata, once per process: every P^2_24 mesh is built on these records
_P2_RECORD = Combinatorics.of(_P2_FACES, 24)
_P2_META = MeshMetadata(family="p2-24", genus=2, orientable=True,
                        expected_defect=-math.pi / 6,
                        vertex_labels=_P2_LABELS)


def _p2_24(b: float = 0.25, c: float = 1.0 / 32.0) -> MeshData:
    """The parts of gen_p2_24(b, c), for drilling."""
    b, c = _real(b, "p2-24 b", BadParameters), \
        _real(c, "p2-24 c", BadParameters)
    s3 = math.sqrt(3.0)
    if not (b > c > 0 and 1 > s3 * b and 1 > 4 * s3 * c):
        raise BadParameters(f"(b, c) = ({b}, {c}) outside admissible domain")
    # each floor about 100 times the edge where the mesh stops verifying
    # as embedded with defect -pi/6: below b*c ~ 5e-14 and
    # (b - c)*(1 - 4*sqrt(3)*c) ~ 6e-13 a notched wall's thinnest corner
    # falls below the ear clip's area tolerance, and below c ~ 6e-9 the
    # defects spread beyond DEFECT_TOL
    if b < 1e-5 or c < 1e-6 or (b - c) * (1 - 4 * s3 * c) < 1e-10:
        raise BadParameters(
            f"(b, c) = ({b}, {c}) lies too near the edge of the admissible "
            f"domain: need b >= 1e-5, c >= 1e-6 and "
            f"(b - c)*(1 - 4*sqrt(3)*c) >= 1e-10")
    base = np.array([[1.0, 1.0, 1.0],
                     [1 - s3 * b, 1 - b, 1.0],
                     [1 - s3 * c, 1 - c, 1 - 4 * s3 * c]])
    # each base point times each sign row; a product by +-1 is exact
    verts = (base[:, None] * _P2_SIGNS).reshape(-1, 3)
    return MeshData(verts, _P2_RECORD, _P2_META)


# ---------------------------------------------------------------------------
# R(r, h): the squashed tetrahemihexahedron block (projective plane)


def gen_r_block(r: float, h: float) -> Polyhedron:
    """Six-vertex projective-plane block: bottom triangle of circumradius 1
    at z=0, top triangle of circumradius r at z=h, rotated a half step.

    Faces: the bottom triangle, three lateral isosceles triangles, and three
    isosceles trapezoids passing through the interior.  r = 1, h = sqrt(2)
    reproduces the uniform tetrahemihexahedron.
    """
    return build_polyhedron(*_r_block(r, h))


# R(r, h)'s faces: the bottom, the trapezoids through the interior, then
# the lateral triangles; every R-block is built on this one record, checked
# and paired once per process, and on one metadata record
_R_RECORD = Combinatorics.of([(0, 1, 2), (0, 1, 3, 4), (1, 2, 4, 5),
                              (2, 0, 5, 3), (3, 4, 2), (4, 5, 0), (5, 3, 1)],
                             6)
_R_META = MeshMetadata(family="r-block", genus=1, orientable=False,
                       vertex_labels={f"v{i+1}": i for i in range(6)})


def _r_block(r: float, h: float) -> MeshData:
    """The parts of gen_r_block(r, h), for gluing."""
    r, h = _real(r, "r-block r", BadParameters), \
        _real(h, "r-block h", BadParameters)
    if not (0 < r <= 1) or h <= 0:
        raise BadParameters(f"need 0 < r <= 1 and h > 0, got r={r}, h={h}")
    verts = [[math.cos(ang), math.sin(ang), 0.0]                  # v1 v2 v3
             for ang in (0.0, TAU / 3, 2 * TAU / 3)]
    verts += [[r * math.cos(ang), r * math.sin(ang), h]           # v4 v5 v6
              for ang in (math.pi, 5 * math.pi / 3, math.pi / 3)]
    return MeshData(np.array(verts), _R_RECORD, _R_META)


def gen_tetrahemihexahedron() -> Polyhedron:
    """Uniform tetrahemihexahedron: |V|=6, |E|=12, |F|=7, defect pi/3."""
    return surgery.construct(_r_block(1.0, math.sqrt(2.0)), [],
                             family="thh", genus=1, orientable=False,
                             expected_defect=math.pi / 3)


# ---------------------------------------------------------------------------
# uniform hemi-polyhedra on Archimedean vertex sets


# The faces of the three hemi-polyhedra on their vertices as numbered
# below.  Each face is the vertices in one plane, counterclockwise about
# a normal of the plane, from the one of least angle in (-pi, pi] in the
# plane's _geom.plane_basis frame (tests/scalar_generate.py derives them
# so).  The cubohemioctahedron's squares lie on the planes x, y, z = +-1,
# normal +-e_i, and its hexagons through the centre, normal
# (sx, sy, sz) with sx*sy*sz = 1.
_CHO_FACES = (
    (4, 0, 1, 3), (7, 6, 10, 9), (2, 0, 5, 6), (11, 3, 8, 9), (8, 1, 2, 7),
    (5, 4, 11, 10), (7, 8, 3, 4, 5, 6), (10, 5, 0, 1, 8, 9),
    (7, 2, 0, 4, 11, 9), (10, 11, 3, 1, 2, 6))
# The small rhombihexahedron's octagons lie on the planes x, y, z = +-1,
# normal +-e_i, and its squares on the planes (a e_i + b e_j) . x =
# 2 + sqrt(2), normal a e_i + b e_j, for (i, j) = (x, y), (x, z), (y, z)
# and a, b = +-1.
_RHOMBIHEXAHEDRON_FACES = (
    (12, 14, 16, 18, 19, 17, 15, 13), (5, 7, 9, 11, 10, 8, 6, 4),
    (3, 9, 17, 23, 22, 16, 8, 2), (0, 6, 14, 20, 21, 15, 7, 1),
    (1, 5, 13, 21, 23, 19, 11, 3), (2, 10, 18, 22, 20, 12, 4, 0),
    (18, 19, 23, 22), (20, 21, 13, 12), (2, 3, 11, 10), (4, 5, 1, 0),
    (21, 23, 17, 15), (14, 16, 22, 20), (7, 9, 3, 1), (0, 2, 8, 6),
    (9, 17, 19, 11), (10, 18, 16, 8), (5, 13, 15, 7), (6, 14, 12, 4))
# The small dodecahemidodecahedron's pentagons are the edge midpoints
# around each icosahedron vertex, normal to it, in the order of those
# vertices, and its decagons the equators normal to the six of them that
# are not opposite an earlier one.
_SDHD_FACES = (
    (2, 3, 1, 0, 4), (6, 7, 0, 5, 8), (9, 11, 5, 1, 10), (12, 6, 13, 14, 15),
    (17, 9, 16, 19, 18), (20, 2, 21, 23, 22), (24, 16, 10, 3, 20),
    (25, 21, 4, 7, 12), (26, 13, 8, 11, 17), (28, 14, 26, 18, 27),
    (27, 19, 24, 22, 29), (29, 23, 25, 15, 28),
    (22, 24, 16, 9, 11, 8, 6, 12, 25, 23),
    (15, 25, 21, 2, 3, 10, 9, 17, 26, 14),
    (18, 26, 13, 6, 7, 4, 2, 20, 24, 19),
    (21, 4, 0, 5, 11, 17, 18, 27, 29, 23),
    (13, 8, 5, 1, 3, 20, 22, 29, 28, 14),
    (16, 10, 1, 0, 7, 12, 15, 28, 27, 19))


def gen_cubohemioctahedron() -> Polyhedron:
    """Cuboctahedron vertices; 6 squares plus 4 hexagons through the centre.
    Non-orientable genus 4, defect -pi/3 at all 12 vertices."""
    return build_polyhedron(*_cubohemioctahedron())


def _cubohemioctahedron() -> MeshData:
    """The parts of gen_cubohemioctahedron(), for drilling."""
    verts = []
    for a in (1, -1):
        for b in (1, -1):
            verts.append((a, b, 0.0))
            verts.append((a, 0.0, b))
            verts.append((0.0, a, b))
    return _data(verts, _CHO_FACES, family="cho", genus=4, orientable=False,
                 defect=-math.pi / 3)


def gen_rhombihexahedron() -> Polyhedron:
    """Small rhombihexahedron on the rhombicuboctahedron's 24 vertices:
    12 edge squares + 6 off-centre octagons.  Non-orientable genus 8,
    defect -pi/2."""
    return build_polyhedron(*_rhombihexahedron())


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
    return _data(verts, _RHOMBIHEXAHEDRON_FACES, family="rhombihexahedron",
                 genus=8, orientable=False, defect=-math.pi / 2)


def gen_small_dodecahemidodecahedron() -> Polyhedron:
    """Small dodecahemidodecahedron on the icosidodecahedron's 30 vertices
    (icosahedron edge midpoints): 12 pentagons + 6 equatorial decagons.
    Non-orientable genus 14, defect -4*pi/5."""
    return build_polyhedron(*_small_dodecahemidodecahedron())


def _small_dodecahemidodecahedron() -> MeshData:
    """The parts of gen_small_dodecahemidodecahedron()."""
    phi = (1 + math.sqrt(5.0)) / 2
    ico = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for cyc in range(3):
                vals = (0.0, s1 * 1.0, s2 * phi)
                ico.append(np.array([vals[cyc % 3], vals[(cyc + 1) % 3],
                                     vals[(cyc + 2) % 3]]))
    # the icosahedron's edges: its vertex pairs at distance 2
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if abs(sum((a - b) ** 2 for a, b in zip(ico[i], ico[j])) - 4.0)
             < 1e-9]
    verts = np.array([(ico[i] + ico[j]) / 2 for i, j in edges])
    return _data(verts, _SDHD_FACES, family="sdhd", genus=14,
                 orientable=False, defect=-4 * math.pi / 5)


# ---------------------------------------------------------------------------
# S base and Q^3_18 (non-orientable genus 3)


def gen_s_base() -> Polyhedron:
    """Sphere-type drum with a regular hexagonal base, a regular triangular
    top, three equilateral gluing triangles and three isosceles trapezoids.
    The gluing triangles have side sqrt(3); the trapezoid base angle at the
    hexagon is 5*pi/9."""
    return build_polyhedron(*_s_base())


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
    return surgery.construct(block, [(
        block, surgery.FaceCorrespondence(0, 0, mapping=(0, 2, 1)))],
        family="q2-9", genus=2, orientable=False, expected_defect=0.0)


def gen_q3_18() -> Polyhedron:
    """Non-orientable genus 3 on 18 vertices: the S drum with an R(r, h)
    block glued onto each of its three lateral triangles; defect -pi/9."""
    return surgery.construct(*_q3_18(), family="q3-18", genus=3,
                             orientable=False, expected_defect=-math.pi / 9)


def _q3_18(k: int = 0) -> tuple[MeshData, list]:
    """The recipe of gen_q3_18() drilled k times with 18-gonal prisms: the
    S drum, its three glue steps and the drills (_drills)."""
    sp9 = math.sin(math.pi / 9)
    r = 2 * sp9 / (1 + 2 * sp9)
    h = math.sqrt(-4 * sp9 * sp9 - 2 * sp9 + 2) / (1 + 2 * sp9)
    block = _r_block(r, h)
    return _s_base(), [(block, surgery.FaceCorrespondence(
        2, 0, mapping=(0, 2, 1)))] * 3 + _drills(1, 0, 18, k)


# ---------------------------------------------------------------------------
# drilled families


def gen_orientable(g: int) -> Polyhedron:
    """Embedded orientable family: tetrahedron, the 9-vertex flat torus,
    P^2_24, then repeated 12-gonal drilling of P^2_24 (24(g-1) vertices,
    defect -pi/6)."""
    g = _genus_in("orientable", g)
    if g == 0:
        return gen_tetrahedron().with_metadata(family="orientable")
    if g == 1:
        return gen_flat_torus9().with_metadata(family="orientable")
    if g == 2:
        return gen_p2_24().with_metadata(family="orientable")
    return surgery.construct(_p2_24(), _drills(0, 1, 12, g - 2),
                             family="orientable", genus=g, orientable=True,
                             expected_defect=-math.pi / 6)


def gen_nonorientable(g: int, prefer_fewest: bool = False) -> Polyhedron:
    """Non-orientable family over its CATALOG genus range.

    The default route chains the four base constructions with
    defect-preserving drilling; prefer_fewest dispatches to the known
    smallest vertex counts (5g / 7g-14 for odd genus, the hemi polyhedra
    and 4g-8 drilling for even genus).
    """
    g = _genus_in("nonorientable", g)
    prefer_fewest = _flag(prefer_fewest, "prefer_fewest")
    if g == 1:
        return gen_tetrahemihexahedron().with_metadata(family="nonorientable")
    if g == 2:
        return gen_q2_9().with_metadata(family="nonorientable")
    # the fewest-vertex route differs from the chained one only for odd g
    # and for even g >= 8
    if prefer_fewest and g % 2 == 1:
        if g not in (n5g := _BY_FAMILY["n5g"].genera):
            raise GenusOutOfRange(
                f"nonorientable with prefer_fewest covers odd genus up to "
                f"{n5g[-1]} (its n5g range), not {g}")
        base, steps = _n5g_odd(g)
    elif prefer_fewest and g == 14:
        base, steps = _small_dodecahemidodecahedron(), []
    elif prefer_fewest and g >= 8:
        base, steps = _rhombihexahedron(), _drills(4, 5, 4, (g - 8) // 2)
    elif g % 2 == 1:
        base, steps = _q3_18((g - 3) // 2)
    else:
        base, steps = _cubohemioctahedron(), _drills(4, 5, 6, (g - 4) // 2)
    return _constant(base, steps, family="nonorientable", genus=g,
                     orientable=False)


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
    g = _genus_in("v8g", g)
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
    return build_polyhedron(*_data(verts, faces, family="v8g", genus=g,
                                   orientable=True, defect=-2 * a))


def gen_v6g(g: int) -> Polyhedron:
    """Embedded orientable family on a g-gonal prism, one window per
    lateral face: |V|=6g, |E|=13g, |F|=5g+2, defect 2*pi(1-g)/(3g)."""
    g = _genus_in("v6g", g)
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
    return build_polyhedron(*_data(verts, faces, family="v6g", genus=g,
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
    return build_polyhedron(*_data(verts, faces, family="v7gm7", genus=g,
                                   orientable=True, defect=-4 * math.pi / 7))


def gen_v7gm7(g: int) -> Polyhedron:
    """Embedded orientable family on a (g-1)-gonal prism with lateral
    windows plus one central ring tunnel: |V|=7g-7, |E|=18g-18, |F|=9g-9,
    defect -4*pi/7."""
    g = _genus_in("v7gm7", g)
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
    genus-7 member.  The defect is its recipe's 2*pi*chi/V, which up to
    genus 11 is (4-2g)*pi/(5g) to the bit: both products with pi are
    2*pi*(g-2) up to sign, and a product by 2 is exact."""
    g = _genus_in("n5g", g)
    return _constant(*_n5g_odd(g), family="n5g", genus=g, orientable=False)


def _n5g_odd(g: int) -> tuple[MeshData, list]:
    """The recipe of gen_n5g_odd(g): the drum and its g glue steps up to
    genus 11, and beyond it the genus-7 member's, drilled (g - 7)/2
    times."""
    if g > 11:
        base, steps = _n5g_odd(7)
        return base, steps + _drills(0, 1, 7, (g - 7) // 2)
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
    block = _r_block(r, 1.0)
    return drum, [(block, surgery.FaceCorrespondence(
        2, 0, mapping=(0, 2, 1)))] * g


# ---------------------------------------------------------------------------
# minimal 2g+4-vertex family: T(l, d) blocks and the angle-sum solver


@dataclass(frozen=True)
class BlockParams:
    """Solved (l_k, d_k) chain for the minimal family."""
    pairs: tuple[tuple[float, float], ...]        # k = 1 .. floor(g/2)
    terminal: tuple[float, float] | None          # (l_g, d_g) for odd g


def a_coeff(k: int, g: int) -> float:
    """Angle-deficit coefficient 4(3k + 1 - (-2)^-k) * pi / (3(g+2)),
    strictly increasing in k.  A k that is not an integer (a bool
    included) raises BadParameters, a g that is not one GenusOutOfRange."""
    k, g = _integer(k, "k", BadParameters), _genus(g)
    if not (0 <= k < 2 ** 63 and 1 <= g < 2 ** 63):
        raise DomainError("need 0 <= k < 2**63 and 1 <= g < 2**63")
    return 4 * (3 * k + 1 - (-2.0) ** (-k)) * math.pi / (3 * (g + 2))


def f_angle_sum(l: float, d: float) -> float:
    """Sum of the three triangle angles at a T(l, d) apex vertex:
    2*arccos((2l^2-d^2)/(2l sqrt(l^2+1))) + arccos((2(l^2+1)-d^2)/(2(l^2+1))).

    Strictly increasing in d on [0, 2l], with f(0) = pi - 2*arctan(l),
    f(l) = pi and f(2l) = pi + 4*arctan(l).  An l or d that is not a
    real number (a bool included) raises BadParameters.
    """
    for name, x in (("l", l), ("d", d)):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise BadParameters(f"{name} {x!r} is not a real number")
    return _angle_sum_of(l)(d)


def _angle_sum_of(l: float) -> Callable[[float], float]:
    """f_angle_sum(l, .) with l checked and its terms in l, 2l^2,
    2l sqrt(l^2+1) and 2(l^2+1), computed once.  An l that is not finite
    (a NaN included) leaves every term undefined."""
    if not _finite(l):
        raise DomainError(f"l = {l} is not finite")
    if l <= 0:
        raise DomainError("l must be positive")
    a, b, c = 2 * l * l, 2 * l * math.sqrt(l * l + 1), 2 * (l * l + 1)
    hi, acos = 2.0 * float(l), math.acos

    def f(d: float) -> float:
        if not 0.0 <= d <= hi:
            raise DomainError(f"d = {d} outside [0, {2 * l}]")
        d2 = d * d
        u = (a - d2) / b
        w = (c - d2) / c
        # clamped to [-1, 1] as min(max(x, -1.0), 1.0) clamps, NaN kept
        u = -1.0 if u < -1.0 else 1.0 if u > 1.0 else u
        w = -1.0 if w < -1.0 else 1.0 if w > 1.0 else w
        return 2 * acos(u) + acos(w)
    return f


# the bound on |f - target| at which the bisection may stop
_ROOT_TOL = 1e-12


def _solve_increasing(l: float, lo: float, hi: float, target: float
                      ) -> float:
    """The d in [lo, hi] at which f_angle_sum(l, d) meets target, by
    bisection of _angle_sum_of(l), which checks the two ends as
    f_angle_sum checks d; each midpoint lies between checked ends."""
    f = _angle_sum_of(l)
    flo, fhi = f(lo) - target, f(hi) - target
    if flo > 0 or fhi < 0:
        raise BracketFailure(
            f"no sign change on [{lo}, {hi}] for target {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - target
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

    l1, a finite positive number (BadParameters otherwise), is doubled
    until both intermediate-value brackets hold.
    """
    g = _genus(g)
    if g < 1:
        raise GenusOutOfRange("genus must be >= 1")
    l1 = _real(l1, "l1", BadParameters)
    if l1 <= 0:
        raise BadParameters(f"l1 {l1!r} must be positive")
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
        d = _solve_increasing(l, l, 2 * l, target)
        pairs.append((l, d))
        l = d
    terminal = None
    if g % 2 == 1:
        d = _solve_increasing(l, 0.0, 2 * l, terminal_target)
        terminal = (l, d)
    return BlockParams(tuple(pairs), terminal)


def gen_t_block(l: float, d: float) -> Polyhedron:
    """Six-vertex genus-1 block: a height-1 prism over an isosceles
    triangle (sides l, l, d) whose caps are replaced by six slanted
    triangles through the interior.  The three side rectangles (two of
    width l, one of width d) are the gluing faces.

    Face order: rect over (v1,v2) [l x 1], rect over (v1,v3) [l x 1],
    rect over (v2,v3) [d x 1], then the six triangles.
    """
    return build_polyhedron(*_t_block(l, d))


# T(l, d)'s faces: rect over (v1,v2) [l x 1], the chain's receiver; rect
# over (v1,v3) [l x 1], the second receiver (odd g); rect over (v2,v3)
# [d x 1], which gives to the next block; then the six triangles.  Every
# T-block is built on this one record, checked and paired once per
# process; measured gain: construct-chain +2.5% without the shared cells.
# Every one carries one metadata record too, with the R-block's labels.
_T_RECORD = Combinatorics.of(
    ((3, 4, 1, 0), (3, 5, 2, 0), (1, 2, 5, 4), (2, 3, 4), (1, 3, 2),
     (5, 3, 1), (5, 0, 1), (4, 0, 5), (2, 0, 4)), 6)
_T_META = replace(_R_META, family="t-block", orientable=True)


def _t_block(l: float, d: float) -> MeshData:
    """The parts of gen_t_block(l, d), for gluing."""
    return MeshData(_t_block_vertices([(l, d)])[0], _T_RECORD, _T_META)


def _t_block_vertices(params) -> np.ndarray:
    """The (m, 6, 3) vertices of the T(l, d) blocks of the m (l, d) pairs,
    each checked as gen_t_block checks it, in one pass: v1 (the apex),
    v2 and v3 at z = -0.5 and v4, v5, v6 above them at z = 0.5, with the
    float operations of one block's points on Python floats."""
    for l, d in params:
        l, d = _real(l, "T-block l", BadParameters), \
            _real(d, "T-block d", BadParameters)
        if l <= 0 or not 0 < d < 2 * l:
            raise BadParameters(
                f"need l > 0 and 0 < d < 2l, got l={l}, d={d}")
    l, d = np.array(params, float).reshape(-1, 2).T
    half = d / 2
    out = np.zeros((len(l), 6, 3))
    out[:, 0, 1] = out[:, 3, 1] = np.sqrt(l * l - d * d / 4)
    out[:, 1, 0] = out[:, 4, 0] = -half
    out[:, 2, 0] = out[:, 5, 0] = half
    out[:, :3, 2] = -0.5
    out[:, 3:, 2] = 0.5
    return out


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
    ids).  The blocks share the T-block's Combinatorics and metadata
    records, so glue checks only their vertices and labels and works out
    each (receiving face, mapping) of their seams once, and no metadata is
    made but the glued parts' own."""
    first = _t_block(*params[0])
    verts = _t_block_vertices(params[1:])
    give_face = 2
    give_cycle = (1, 2, 5, 4)    # (v2, v3, v6, v5)
    steps = []
    for i, block in enumerate(verts, start=2):
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
        steps.append((MeshData(block, _T_RECORD, _T_META),
                      surgery.FaceCorrespondence(give_face, face2,
                                                 mapping=mapping)))
        give_face = n_faces
    return surgery.glue(first, steps), give_face, give_cycle


def gen_minimal(g: int, l1: float = 2.0) -> Polyhedron:
    """Orientable genus-g surface on 2g+4 vertices with constant defect
    -(2g-2)*pi/(g+2): a mirror-symmetric chain of T(l,d) blocks glued along
    side rectangles, with a terminal centre block for odd genus.  The
    blocks are glued as data and the finished chain validated once."""
    g = _genus_in("minimal", g)
    params = solve_block_params(g, l1)
    defect = -(2 * g - 2) * math.pi / (g + 2)
    if g == 1:
        base, steps = _t_block(*params.terminal), []
    elif g % 2 == 0:
        # both halves are one chain; it is glued to a moved copy of itself
        mesh, gf, gc = _chain_half(list(params.pairs))
        # middle seam: the vertex continuing on one side meets the vertex
        # that stops on the other, so exactly one earlier block joins in
        mapping = (gc[1], gc[0], gc[3], gc[2])
        base, steps = mesh, [(
            mesh, surgery.FaceCorrespondence(gf, gf, mapping=mapping))]
    else:
        m = len(params.pairs)
        half, gf, _ = _chain_half(list(params.pairs))
        # the centre receives each half on one of its two long rectangles,
        # taking the halves' still-free top/bottom vertices at v4 and v1
        mapping = _MAP_A if m % 2 == 0 and m >= 2 else _MAP_A_FIRST
        rb_face = len(half.faces) - 1    # centre block's rect B once glued
        h2 = half.faces[gf]
        if m % 2 == 0 and m >= 2:
            mapping2 = (h2[2], h2[3], h2[0], h2[1])
        else:
            mapping2 = (h2[3], h2[2], h2[1], h2[0])
        base, steps = half, [
            (_t_block(*params.terminal),
             surgery.FaceCorrespondence(gf, 0, mapping=mapping)),
            (half, surgery.FaceCorrespondence(rb_face, gf, mapping=mapping2))]
    return surgery.construct(base, steps, family="minimal", genus=g,
                             orientable=True, expected_defect=defect)


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
    generate_family builds it.  Only `genera` states a family's genera."""
    family: str
    description: str
    genera: range                      # the genera it builds
    vertex_count: str
    orientable: str
    build: Callable[..., Polyhedron]   # takes the genus unless it is fixed
    params: tuple[str, ...] = ()       # the --param names it takes
    required: bool = False             # every one of them must be given
    fewest: bool = False               # has a prefer_fewest route

    @property
    def genus_range(self) -> str:      # as text: "2", "1..45", "odd 3..19"
        g, odd = self.genera, "odd " if self.genera.step == 2 else ""
        return str(g[0]) if len(g) == 1 else f"{odd}{g[0]}..{g[-1]}"

    @property
    def genus(self) -> int | None:     # the family's only genus, if fixed
        return self.genera[0] if len(self.genera) == 1 else None


# Each range ends at the last genus a run generated (tests/cap_runs.py;
# see CHANGES.md).  Odd nonorientable raises DegenerateFace from
# g = 2,627; orientable, v8g and v6g stop where the next doubling took
# over 5 minutes; from minimal g = 46 the first face's area falls below
# the length tolerance, as the T(l, d) widths outgrow the unit block
# height.
CATALOG: tuple[FamilyInfo, ...] = (
    FamilyInfo("tetrahedron", "regular tetrahedron", range(0, 1), "4", "yes",
               gen_tetrahedron),
    FamilyInfo("flat-torus-9", "nine-vertex flat torus", range(1, 2), "9",
               "yes", gen_flat_torus9),
    FamilyInfo("p2-24", "doubly tunnelled cube (params b, c)", range(2, 3),
               "24", "yes", gen_p2_24, params=("b", "c")),
    FamilyInfo("orientable", "tetrahedron / flat torus / drilled p2-24",
               range(0, 4001), "24(g-1) for g>=2", "yes", gen_orientable),
    FamilyInfo("thh", "tetrahemihexahedron", range(1, 2), "6", "no",
               gen_tetrahemihexahedron),
    FamilyInfo("r-block", "squashed tetrahemihexahedron (params r, h)",
               range(1, 2), "6", "no", gen_r_block, params=("r", "h"),
               required=True),
    FamilyInfo("q2-9", "flat Klein bottle", range(2, 3), "9", "no",
               gen_q2_9),
    FamilyInfo("q3-18", "drum with three projective handles", range(3, 4),
               "18", "no", gen_q3_18),
    FamilyInfo("cho", "cubohemioctahedron", range(4, 5), "12", "no",
               gen_cubohemioctahedron),
    FamilyInfo("nonorientable", "chained or fewest-vertex dispatch",
               range(1, 2501), f"5g / 7g-14 odd (<={N5G_MAX_GENUS}), 4g-8 "
               "even (fewest)", "no", gen_nonorientable, fewest=True),
    FamilyInfo("v8g", "windowed 2g-gonal prism", range(2, 12001), "8g",
               "yes", gen_v8g),
    FamilyInfo("v6g", "windowed g-gonal prism", range(5, 16001), "6g",
               "yes", gen_v6g),
    FamilyInfo("v7gm7", "windowed prism with a central ring tunnel",
               range(4, 7), "7g-7", "yes", gen_v7gm7),
    FamilyInfo("n5g", "antiprism drum with projective handles",
               range(3, N5G_MAX_GENUS + 1, 2), "5g (<=11), 7g-14 beyond",
               "no", gen_n5g_odd),
    FamilyInfo("minimal", "glued T(l,d) chain, fewest known vertices",
               range(1, 46), "2g+4", "yes", gen_minimal, params=("l1",)),
)

_BY_FAMILY = {info.family: info for info in CATALOG}


def generate_family(request: FamilyRequest) -> Polyhedron:
    """Build the mesh a FamilyRequest describes.  A request its CATALOG row
    does not allow raises before any work: an unknown family, parameter or
    prefer_fewest BadParameters, as do a request that is no FamilyRequest,
    params that are no mapping and a prefer_fewest that is no bool, and a
    missing genus, one outside the row's range (_genus_in) or one that is
    not an integer (a bool included), GenusOutOfRange."""
    _record(request, FamilyRequest, "the request")
    fam, g, par = request.family, request.genus, request.params
    if not isinstance(par, Mapping):
        raise BadParameters(f"params {par!r} is not a mapping of names "
                            "to values")
    par = dict(par)
    info = _BY_FAMILY.get(fam) if isinstance(fam, str) else None
    if info is None:
        raise BadParameters(f"unknown family {fam!r}")
    unknown = set(par) - set(info.params)
    if unknown:
        raise BadParameters(f"family {fam!r} takes no parameter "
                            f"{', '.join(sorted(map(str, unknown)))}")
    if info.required and set(info.params) - set(par):
        raise BadParameters(f"family {fam!r} needs --param " + " and ".join(
            f"{name}=.." for name in info.params))
    if _flag(request.prefer_fewest, "prefer_fewest"):
        if not info.fewest:
            raise BadParameters(f"family {fam!r} has no fewest-vertex route")
        par["prefer_fewest"] = True
    if g is None and info.genus is None:
        raise GenusOutOfRange(f"family {fam!r} needs --genus")
    g = _genus_in(fam, info.genus if g is None else g)
    return info.build(**par) if info.genus is not None \
        else info.build(g, **par)
