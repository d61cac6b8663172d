"""Polygon-mesh data model: vertices, face cycles, edge cells, structural
validation and topological classification.

A mesh here is a closed polyhedral surface: every edge cell borders exactly
two face corners, every face is a planar simple polygon, and global
self-intersection is allowed (faces may pass through one another).

Edge cells are usually derived from the face cycles (each unordered vertex
pair appearing in exactly two cycles).  Surgical constructions may identify
two geometrically coincident segments with the same endpoints while keeping
them distinct 1-cells; such meshes carry an explicit pairing of face-side
slots instead (``edge_slots``).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import (DegenerateFace, DisconnectedSurface, FlatEdge,
                     InconsistentTopology, IndexOutOfRange, NonManifoldEdge)

# a half-edge is (face index, slot): slot i of face f traverses the segment
# from faces[f][i] to faces[f][(i+1) % len]
HalfEdge = tuple[int, int]
EdgeSlots = tuple[tuple[HalfEdge, HalfEdge], ...]


# The tolerance of each geometric check of validation and verification;
# planarity and length are relative to MeshGeometry.scale.
PLANARITY_TOL = 1e-9    # max vertex distance to the best-fit face plane
ANGLE_TOL = 1e-9        # radians; dihedral-pi rejection band
LENGTH_TOL = 1e-12      # edge-length comparisons (isometry checks)
DEFECT_TOL = 1e-9       # defect-constancy band, radians


@dataclass(frozen=True)
class TopologyClass:
    orientable: bool
    genus: int
    euler_characteristic: int


@dataclass
class MeshMetadata:
    family: str | None = None
    genus: int | None = None
    orientable: bool | None = None
    expected_defect: float | None = None
    provenance: list[str] = field(default_factory=list)
    vertex_labels: dict[str, int] = field(default_factory=dict)
    # Subdivision seams: edges between coplanar sub-faces produced by
    # retiling a pierced face.  Such edges necessarily have dihedral angle
    # pi and are exempt from the flat-edge rejection.
    seam_edges: set[tuple[int, int]] = field(default_factory=set)

    # nothing in the library reads it; perfbench/workloads.py calls it
    def surgery_count(self) -> int:
        return sum(1 for p in self.provenance
                   if p.startswith(("drill", "connect_sum")))


def replace_meta(meta: MeshMetadata, **kw) -> MeshMetadata:
    """meta with the fields kw names replaced; the copy shares no list,
    dict or set with meta."""
    copies = {name: copy(getattr(meta, name)) for name, copy in (
        ("provenance", list), ("vertex_labels", dict), ("seam_edges", set))
        if name not in kw}
    return replace(meta, **copies, **kw)


@dataclass(frozen=True)
class Polyhedron:
    """Immutable validated mesh.

    vertices   : (n, 3) float64 array
    faces      : tuple of vertex-index tuples (cyclic order as given)
    edges      : tuple of (u, v) pairs with u < v; pairs may repeat when two
                 distinct 1-cells share their endpoints
    edge_slots : per edge, the two (face, slot) half-edges it carries
    """
    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    edge_slots: EdgeSlots
    metadata: MeshMetadata = field(default_factory=MeshMetadata)

    def __post_init__(self):
        self.vertices.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def has_multi_edges(self) -> bool:
        """Whether two edge cells share a vertex pair."""
        return self.geometry.doubled

    def edge_index(self, u: int, v: int) -> int:
        """Index of the (first) edge cell joining u and v."""
        return self._edge_lookup[(u, v) if u < v else (v, u)]

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        lookup = {}
        for i in range(len(self.edges) - 1, -1, -1):
            lookup[self.edges[i]] = i
        return lookup

    def vertex_faces(self, v: int) -> list[int]:
        geo = self.geometry
        return geo.corner_face[geo.corner_vertex == v].tolist()

    def face_points(self, f: int) -> np.ndarray:
        return self.vertices[list(self.faces[f])]

    @cached_property
    def geometry(self) -> "MeshGeometry":
        """The mesh's face, corner, vertex and edge geometry, computed on
        first use and kept for the life of the mesh."""
        return MeshGeometry(self.vertices, _corner_layout(self.faces),
                            _readonly(np.array(self.edge_slots, dtype=np.intp)
                                      .reshape(-1, 4))).fit()

    @cached_property
    def orientation(self) -> tuple[bool, bool]:
        """Whether the surface is connected and whether it is orientable,
        from one search of its orientation double cover (see
        _orientation_cover); computed on first use and kept for the life
        of the mesh."""
        return _orientation_cover(self)

    def with_metadata(self, **kw) -> "Polyhedron":
        out = replace(self, metadata=replace_meta(self.metadata, **kw))
        for name in ("geometry", "orientation"):  # both ignore metadata
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def label(self, name: str) -> int:
        """Vertex id for a construction label such as 'v2+++' or 'v3,1'."""
        return self.metadata.vertex_labels[name]


class MeshData(NamedTuple):
    """A mesh's parts before validation: what surgery.glue assembles and
    build_polyhedron checks.  `cells` pairs the face sides as (E, 4) rows
    (f1, s1, f2, s2), as MeshGeometry.cells; None pairs them by vertex
    pair."""
    vertices: np.ndarray
    faces: Sequence[tuple[int, ...]]
    metadata: MeshMetadata
    cells: np.ndarray | None = None

    def paired(self) -> "MeshData":
        """This record with its cells, derived by vertex pair if it has
        none (NonManifoldEdge unless each pair occurs exactly twice)."""
        if self.cells is not None:
            return self
        return self._replace(
            cells=_derived_cells(_corner_layout(self.faces))[0])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Corners(NamedTuple):
    """The corner layout of a face list (see MeshGeometry)."""
    size: np.ndarray
    start: np.ndarray
    vertex: np.ndarray
    face: np.ndarray
    next: np.ndarray


class Triangulation(NamedTuple):
    """The ear clip of a mesh's faces (see MeshGeometry.triangulation)."""
    vertex: np.ndarray      # (T, 3) vertex ids, one row per triangle
    face: np.ndarray        # (T,) the face each triangle tiles


def _corner_layout(faces) -> _Corners:
    sizes = np.fromiter(map(len, faces), np.intp, len(faces))
    return _corners(sizes, np.fromiter((v for cyc in faces for v in cyc),
                                       np.intp, int(sizes.sum())))


def _corners(sizes: np.ndarray, vertex: np.ndarray) -> _Corners:
    """The corner layout of faces of the given sizes whose cycles, one
    after another, are `vertex`."""
    ends = np.cumsum(sizes)
    start = ends - sizes
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = start
    return _Corners(sizes, start, vertex,
                    np.repeat(np.arange(len(sizes)), sizes), nxt)


class MeshGeometry:
    """Every geometric quantity of one mesh, each computed once.

    Faces are flattened into corners: face f owns the face_size[f] corners
    from face_start[f] onwards, in cycle order; corner c sits at vertex
    corner_vertex[c] and next_corner / prev_corner step along its face's
    cycle.  Array-valued parts are read-only.

    `corners` is the faces' _corner_layout and `cells` the (E, 4) edge
    cells (f1, s1, f2, s2), as in edge_slots; the geometry of raw data
    that surgery reads before validating has no cells.

    Each face has one plane, its best fit (see fit): per face its
    centroid, unit normal, residual (largest vertex distance to the
    plane), in-plane basis u, v (u x v = normal) and area, and per corner
    uv, its coordinates in its face's (u, v) frame; face f's polygon is
    the slice of uv its corners hold.  A Polyhedron's geometry has every
    face fitted, read-only; the geometry of raw data fits only the faces
    surgery asks for, which `fitted` marks.
    """

    def __init__(self, vertices: np.ndarray, corners: _Corners,
                 cells: np.ndarray | None = None):
        self.vertices = vertices
        self.face_size = corners.size
        self.face_start = corners.start
        self.corner_face = corners.face
        self.corner_vertex = corners.vertex
        self.next_corner = corners.next
        self.prev_corner = np.arange(-1, len(corners.vertex) - 1)
        self.prev_corner[corners.start] = corners.start + corners.size - 1
        self.cells = cells
        self.fitted = np.zeros(len(corners.size), dtype=bool)
        self.centroid, self.normal, self.u, self.v = \
            np.empty((4, len(self.fitted), 3))
        self.residual, self.area = np.empty((2, len(self.fitted)))
        self.uv = np.empty((len(corners.vertex), 2))

    def fit(self, faces: np.ndarray | None = None) -> "MeshGeometry":
        """Fit the planes of the given faces, every face when None, that
        are not fitted yet, and return self.  A plane is the SVD fit of
        _geom.plane_fit, signed by its face's Newell sum, with the
        _geom.plane_basis frame.  The fit, the projection into the frame
        and the area run once per face length, each on one stack in which
        a face gets the bits it gets fitted alone; the frames run once
        over every face fitted, a row at a time as alone, and each array
        is written once."""
        todo = np.flatnonzero(~self.fitted) if faces is None else \
            faces[~self.fitted[faces]]
        sizes = self.face_size[todo]
        groups = []             # per face length: rows, corners, points
        for k in np.flatnonzero(np.bincount(sizes)):
            rows = todo[sizes == k]
            corner = self.face_start[rows][:, None] + np.arange(k)
            groups.append((rows, corner, self.vertices.take(
                self.corner_vertex[corner], axis=0)))
        if groups:
            rows, corners, pts = zip(*groups)
            rows = np.concatenate(rows)
            c, n, resid = (np.concatenate(a) for a in
                           zip(*map(_geom.plane_fit, pts)))
            u, v = _geom.plane_basis(n)
            ends = list(accumulate(map(len, pts), initial=0))
            uv = [_geom.project_2d(p, c[a:b], u[a:b], v[a:b])
                  for p, a, b in zip(pts, ends, ends[1:])]
            self.centroid[rows], self.normal[rows], self.residual[rows] = \
                c, n, resid
            self.u[rows], self.v[rows] = u, v
            self.area[rows] = np.concatenate(
                [_geom.polygon_area_2d(p) for p in uv])
            self.uv[np.concatenate([x.ravel() for x in corners])] = \
                np.concatenate([p.reshape(-1, 2) for p in uv])
        self.fitted[todo] = True
        if self.fitted.all():
            for a in (self.centroid, self.normal, self.u, self.v,
                      self.residual, self.area, self.uv):
                a.setflags(write=False)
        return self

    def inside_clearance(self, faces: np.ndarray, points: np.ndarray
                         ) -> np.ndarray:
        """Per (n, 3) point, _geom.inside_clearance of its projection into
        the (u, v) frame of the face of `faces` (n,) at its place: 0 outside
        the face.  Fits the faces; those of one length are measured in one
        stack, in which a point gets the bits it gets alone."""
        self.fit(faces)
        out = np.zeros(len(faces))
        sizes = self.face_size[faces]
        for k in np.flatnonzero(np.bincount(sizes)):
            rows = np.flatnonzero(sizes == k)
            f = faces[rows]
            q = _geom.project_2d(
                points.take(rows, axis=0)[:, None],
                *(a.take(f, axis=0) for a in (self.centroid, self.u, self.v))
            )[:, 0]
            out[rows] = _geom.inside_clearance(q, self.uv.take(
                self.face_start[f][:, None] + np.arange(k), axis=0))
        return out

    def carry(self, dropped: list[int], vertices: np.ndarray,
              new: _Corners) -> "MeshGeometry":
        """The geometry of a mesh on `vertices` (this mesh's first, at the
        same places) whose faces are this mesh's but the `dropped` ones, in
        order, and then the faces laid out in `new`: the kept faces keep
        their corners and the planes fitted here, and the new ones are not
        fitted.  The kept faces and their corners are selected by mask."""
        keep = np.ones(len(self.face_size), dtype=bool)
        keep[dropped] = False
        corners = keep[self.corner_face]
        out = MeshGeometry(vertices, _corners(
            np.concatenate([self.face_size[keep], new.size]),
            np.concatenate([self.corner_vertex[corners], new.vertex])))
        n, m = np.count_nonzero(keep), np.count_nonzero(corners)
        for name in ("fitted", "residual", "area"):
            getattr(out, name)[:n] = getattr(self, name)[keep]
        for name in ("centroid", "normal", "u", "v"):
            getattr(out, name)[:n] = getattr(self, name).compress(keep, axis=0)
        out.uv[:m] = self.uv.compress(corners, axis=0)
        return out

    @cached_property
    def doubled(self) -> bool:
        """Whether a segment carries two edge cells: its vertex pair bounds
        four or more face sides."""
        u, v = self.corner_vertex, self.corner_vertex[self.next_corner]
        pair = np.sort(np.minimum(u, v) * len(self.vertices)
                       + np.maximum(u, v))
        return bool((pair[3:] == pair[:-3]).any())

    @cached_property
    def scale(self) -> float:
        """The mesh's tolerance scale: its largest absolute coordinate, at
        least 1."""
        return _geom.tolerance_scale(self.vertices)

    @cached_property
    def triangulation(self) -> Triangulation:
        """The ear clip of every face, in one record: each face's triangles
        in a run, faces in order.  The clips run face by face on slices of
        one list of uv, each with its face's tolerance scale, all taken in
        one reduction."""
        uv = self.uv.tolist()
        bounds = self.face_start.tolist() + [len(uv)]
        # per face its largest |u| and |v|; the scale is the larger, >= 1
        scale = _geom.tolerance_scale(np.maximum.reduceat(
            np.abs(self.uv), self.face_start), axis=1).tolist()
        clips = [_geom.ear_clip(uv[a:b], scale=s)
                 for a, b, s in zip(bounds, bounds[1:], scale)]
        face = np.repeat(np.arange(len(clips)), [len(c) for c in clips])
        local = np.array([t for c in clips for t in c], np.intp)
        vertex = self.corner_vertex[self.face_start[face, None] + local]
        return Triangulation(_readonly(vertex), _readonly(face))

    @cached_property
    def triangle_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per triangle of `triangulation`: its unit normal, by the right-
        hand rule over its vertex order, and whether that normal has zero
        length (the normal is then left zero)."""
        tri = self.vertices.take(self.triangulation.vertex, axis=0)
        n = _geom.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norm = _geom.norm(n)
        zero = norm == 0
        np.divide(n, norm[:, None], out=n, where=~zero[:, None])
        return _readonly(n), _readonly(zero)

    @cached_property
    def corner_angles(self) -> np.ndarray:
        """Interior angle at every corner, in (0, 2*pi); a corner turning
        against its face's normal is reflex."""
        pts = self.vertices.take(self.corner_vertex, axis=0)
        nxt = pts.take(self.next_corner, axis=0) - pts
        prv = pts.take(self.prev_corner, axis=0) - pts
        cross = _geom.cross(nxt, prv)
        theta = np.arctan2(np.linalg.norm(cross, axis=1),
                           np.einsum("ij,ij->i", nxt, prv))
        reflex = np.einsum("ij,ij->i", cross,
                           self.normal.take(self.corner_face, axis=0)) < 0
        return _readonly(np.where(reflex, 2.0 * np.pi - theta, theta))

    @cached_property
    def defects(self) -> np.ndarray:
        """Per vertex: 2*pi minus the sum of its corner angles."""
        total = np.bincount(self.corner_vertex, weights=self.corner_angles,
                            minlength=len(self.vertices))
        return _readonly(2.0 * np.pi - total)

    @cached_property
    def cell_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per edge cell: the corners that start its two half-edges, and
        whether the two traverse its segment in the same sense."""
        cells = self.cells
        c1 = self.face_start[cells[:, 0]] + cells[:, 1]
        c2 = self.face_start[cells[:, 2]] + cells[:, 3]
        same = self.corner_vertex[c1] == self.corner_vertex[c2]
        return _readonly(c1), _readonly(c2), _readonly(same)

    @cached_property
    def dihedrals(self) -> np.ndarray:
        """Per edge cell: the dihedral angle in [0, 2*pi), measured through
        the side opposite the first face's normal.  Each face's
        inward direction at the edge is its normal crossed with its own
        traversal direction, which is correct for non-convex faces too."""
        c1, c2, same = self.cell_corners
        a = self.vertices.take(self.corner_vertex[c1], axis=0)
        t = self.vertices.take(self.corner_vertex[self.next_corner[c1]],
                               axis=0) - a
        t /= np.linalg.norm(t, axis=1)[:, None]
        n1 = self.normal.take(self.corner_face[c1], axis=0)
        w2 = _geom.cross(self.normal.take(self.corner_face[c2], axis=0), t)
        np.negative(w2, out=w2, where=~same[:, None])
        w2 /= np.linalg.norm(w2, axis=1)[:, None]
        ang = np.arctan2(-np.einsum("ij,ij->i", n1, w2),
                         np.einsum("ij,ij->i", _geom.cross(n1, t), w2))
        return _readonly(np.where(ang < 0, ang + 2.0 * np.pi, ang))


def flat_edges(p: Polyhedron, seams) -> list[int]:
    """Edge cells whose dihedral angle is within ANGLE_TOL of pi, other
    than those joining a vertex pair in `seams`."""
    near_pi = np.abs(p.geometry.dihedrals - np.pi) < ANGLE_TOL
    return [int(e) for e in np.flatnonzero(near_pi) if p.edges[e] not in seams]


def _edge_cells(cells: np.ndarray, corners: _Corners
                ) -> tuple[np.ndarray, np.ndarray]:
    """An explicit pairing as (E, 4) rows (f1, s1, f2, s2), sorted by vertex
    pair and then by the half-edges; returns the rows and their (E, 2)
    vertex pairs (lower id first).  Every half-edge must lie in exactly
    one cell and both halves of a cell traverse one segment."""
    half = cells.reshape(-1, 2)
    f, s = half[:, 0], half[:, 1]
    ok = (f >= 0) & (f < len(corners.size))
    ok[ok] = (s[ok] >= 0) & (s[ok] < corners.size[f[ok]])
    if not ok.all():
        i = np.argmin(ok)
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) out of range")
    corner = corners.start[f] + s
    order = np.argsort(corner, kind="stable")
    again = order[1:][corner[order[1:]] == corner[order[:-1]]]
    if again.size:
        i = again.min()
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) paired twice")
    u = corners.vertex[corner]
    v = corners.vertex[corners.next[corner]]
    ends = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    ends = ends.reshape(-1, 2, 2)
    bad = np.flatnonzero((ends[:, 0] != ends[:, 1]).any(axis=1))
    if bad.size:
        (f1, s1, f2, s2) = cells[bad[0]]
        raise NonManifoldEdge(
            f"half-edges ({f1},{s1}) and ({f2},{s2}) traverse "
            f"different segments")
    if 2 * len(cells) != len(corners.vertex):
        raise NonManifoldEdge("edge_slots do not cover every half-edge")
    ends = ends[:, 0]
    order = np.lexsort((cells[:, 3], cells[:, 2], cells[:, 1], cells[:, 0],
                        ends[:, 1], ends[:, 0]))
    return cells.take(order, axis=0), ends.take(order, axis=0)


def _cell_array(edge_slots) -> np.ndarray:
    """An explicit pairing as an (E, 4) index array.  A half-edge whose
    face or slot lies beyond the index range raises NonManifoldEdge, as
    _edge_cells does for one off the mesh."""
    try:
        return np.asarray(edge_slots, dtype=np.intp).reshape(-1, 4)
    except OverflowError:
        limit = np.iinfo(np.intp)
        f, s = next((f, s) for f, s in np.asarray(
            edge_slots, dtype=object).reshape(-1, 2).tolist()
            if not limit.min <= min(f, s) <= max(f, s) <= limit.max)
        raise NonManifoldEdge(f"half-edge ({f}, {s}) out of range") from None


def _derived_cells(corners: _Corners) -> tuple[np.ndarray, np.ndarray]:
    """Pair the half-edges by unordered vertex pair; every pair must occur
    exactly twice.  Returns the (E, 4) cells, ordered by vertex pair and
    within a cell by half-edge, and their (E, 2) vertex pairs."""
    u, v = corners.vertex, corners.vertex[corners.next]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((np.arange(len(u)), hi, lo))
    lo, hi = lo[order], hi[order]
    key_starts = np.ones(len(lo), dtype=bool)
    key_starts[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(key_starts)
    uses = np.diff(np.r_[first, len(lo)])
    bad = np.flatnonzero(uses != 2)
    if bad.size:
        i = first[bad[0]]
        raise NonManifoldEdge(
            f"edge {(int(lo[i]), int(hi[i]))} used {uses[bad[0]]} times; "
            f"meshes with doubled segments need explicit edge_slots")
    slot = order - corners.start[corners.face[order]]
    cells = np.stack([corners.face[order], slot], axis=1).reshape(-1, 4)
    return cells, np.stack([lo[::2], hi[::2]], axis=1)


def _as_tuples(cells: np.ndarray, ends: np.ndarray
               ) -> tuple[EdgeSlots, tuple[tuple[int, int], ...]]:
    return (tuple(((a, b), (c, d)) for a, b, c, d in cells.tolist()),
            tuple(map(tuple, ends.tolist())))


# Cross products are quadratic in the coordinates, their squared lengths
# quartic; below this bound those stay under 1e256, clear of overflow.
COORDINATE_LIMIT = 1e64


def build_polyhedron(vertices, faces,
                     metadata: MeshMetadata | None = None,
                     edge_slots: EdgeSlots | np.ndarray | None = None
                     ) -> Polyhedron:
    """Validate raw data and return an immutable Polyhedron.

    Checks: index ranges, cycle lengths, a closed pairing of face sides,
    face planarity/simplicity/area, distinct edge endpoints, no flat (pi)
    dihedral angles, and connectivity of the face-adjacency graph.  Every
    check runs on every face, edge and vertex: surgery assembles raw data
    (surgery.glue, surgery.pierce) and validates only the finished mesh.

    `edge_slots` pairs the face sides explicitly, as ((face, slot),
    (face, slot)) cells or an (E, 2, 2) or (E, 4) array; without it sides
    are paired by vertex pair.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise IndexOutOfRange("vertices must be an (n, 3) array")
    n = len(pts)
    if n < 4:
        raise IndexOutOfRange(f"need at least 4 vertices, got {n}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise DegenerateFace(f"vertex {bad[0]} has a non-finite coordinate "
                             f"{tuple(pts[bad[0]].tolist())}")
    bad = np.flatnonzero(np.abs(pts).max(axis=1) > COORDINATE_LIMIT)
    if bad.size:
        raise DegenerateFace(f"vertex {bad[0]} has a coordinate beyond "
                             f"{COORDINATE_LIMIT:g}: "
                             f"{tuple(pts[bad[0]].tolist())}")

    corners = _checked_corners(faces, n)
    if edge_slots is None:
        cells, ends = _derived_cells(corners)
    else:
        cells, ends = _edge_cells(_cell_array(edge_slots), corners)
    missing = np.flatnonzero(np.bincount(corners.vertex, minlength=n) == 0)
    if missing.size:
        raise IndexOutOfRange(f"vertices {missing.tolist()} appear in no face")

    slots, pairs = _as_tuples(cells, ends)
    vertex = corners.vertex.tolist()
    bounds = corners.start.tolist() + [len(vertex)]
    cycles = tuple(tuple(vertex[a:b]) for a, b in zip(bounds, bounds[1:]))
    poly = Polyhedron(pts.copy(), cycles, pairs, slots,
                      metadata or MeshMetadata())
    geo = poly.__dict__["geometry"] = MeshGeometry(
        poly.vertices, corners, _readonly(cells)).fit()
    scale = geo.scale
    short = _geom.norm(pts.take(ends[:, 0], axis=0)
                       - pts.take(ends[:, 1], axis=0)) <= LENGTH_TOL * scale
    if short.any():
        u, v = ends[np.argmax(short)]
        raise DegenerateFace(f"edge ({u}, {v}) has coincident endpoints")

    small = geo.area <= LENGTH_TOL * scale * scale
    uv = geo.uv.tolist()
    bounds = geo.face_start.tolist() + [len(uv)]
    for fi, (resid, tiny, a, b) in enumerate(zip(
            geo.residual.tolist(), small.tolist(), bounds, bounds[1:])):
        if resid > PLANARITY_TOL * scale:
            raise DegenerateFace(
                f"face {fi} deviates {resid:.2e} from planarity")
        if tiny:
            raise DegenerateFace(f"face {fi} has near-zero area")
        # a triangle has no two sides that do not meet at a corner
        if b - a > 3 and not _geom.polygon_is_simple(uv[a:b]):
            raise DegenerateFace(f"face {fi} is not a simple polygon")

    flat = flat_edges(poly, poly.metadata.seam_edges)
    if flat:
        raise FlatEdge(f"edge {poly.edges[flat[0]]} has dihedral angle pi")

    if not poly.orientation[0]:
        raise DisconnectedSurface("face-adjacency graph is disconnected")
    return poly


def _checked_corners(faces, n: int) -> _Corners:
    """The corner layout of `faces` once each face is checked, as one
    array: it has 3 or more vertices, none repeated, each an integer (by
    operator.index, so numpy integers pass) in range(n).  The first face
    that fails raises, for the first of those checks it fails."""
    faces = list(faces)             # read twice below; any iterable passes
    sizes = np.fromiter(map(len, faces), np.intp, len(faces))
    flat = list(chain.from_iterable(faces))
    vertex, bad = _intp_entries(flat)
    n_faces = len(sizes)
    face = np.repeat(np.arange(n_faces), sizes)
    inside = (vertex >= 0) & (vertex < n)
    ids, m = vertex, n
    if not inside.all():            # ranks, so that no key wraps
        uniq, ids = np.unique(vertex, return_inverse=True)
        m = len(uniq)
    key = np.sort(face * m + ids)
    repeat = key[1:][key[1:] == key[:-1]] // m
    short = np.flatnonzero(sizes < 3)
    outside = np.flatnonzero(~inside)
    # per check, in order within a face, the first face that fails it
    fails = [face[bad] if bad < len(flat) else n_faces,
             short[0] if short.size else n_faces,
             repeat[0] if repeat.size else n_faces,
             face[outside[0]] if outside.size else n_faces]
    fi = min(fails)
    if fi == n_faces:
        return _corners(sizes, vertex)
    check = fails.index(fi)
    if check == 0:              # not an integer, or one beyond intp
        v = _integer(flat[bad], f"face {fi} vertex", IndexOutOfRange)
    elif check == 1:
        raise DegenerateFace(f"face {fi} has fewer than 3 vertices")
    elif check == 2:
        raise DegenerateFace(f"face {fi} repeats a vertex")
    else:
        v = vertex[outside[0]]
    raise IndexOutOfRange(f"face {fi} references vertex {v}")


def _integer(x, what: str, error: type[Exception]) -> int:
    """x as an int by operator.index (numpy integers pass), else error."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


def _intp_entries(flat: list) -> tuple[np.ndarray, int]:
    """`flat` as an intp array, and the index of its first entry that is
    not an intp integer by operator.index (len(flat) if none); from that
    entry on the array reads -1.

    numpy infers an integer dtype for a flat list only when every entry is
    an integer, so the common case takes no Python call per entry."""
    try:
        vertex = np.array(flat)
    except ValueError:              # ragged: an entry is a sequence
        vertex = None
    if vertex is not None and vertex.ndim == 1 and vertex.dtype.kind == "i":
        return vertex.astype(np.intp, copy=False), len(flat)
    lo, hi = np.iinfo(np.intp).min, np.iinfo(np.intp).max
    out = []
    for v in flat:
        try:
            v = operator.index(v)
        except TypeError:
            break
        if not lo <= v <= hi:
            break
        out.append(v)
    bad = len(out)
    return np.array(out + [-1] * (len(flat) - bad), np.intp), bad


def _orientation_cover(p: Polyhedron) -> tuple[bool, bool]:
    """Connectivity and orientability, from the orientation double cover.

    The cover has 2F nodes, the face-sides: face f as stored (node f) and
    reversed (node f + F).  Each side traverses the edges of its face in
    one sense, and each edge cell links the two pairs of sides that
    traverse it in opposite senses, as consistently oriented neighbours
    do.  The surface is connected iff every face reaches face 0 or its
    reverse, and orientable iff face 0 does not reach its own reverse
    (Hatcher, Algebraic Topology, section 3.3).
    """
    geo, nf = p.geometry, p.n_faces
    _, _, same = geo.cell_corners
    # stored faces that traverse the cell in the same sense link to each
    # other's reverse
    f1, f2 = geo.cells[:, 0], geo.cells[:, 2] + np.where(same, nf, 0)
    root = _components(np.concatenate([f1, f1 + nf]),
                       np.concatenate([f2, (f2 + nf) % (2 * nf)]), 2 * nf)
    face = root[:nf]
    connected = bool(((face == root[0]) | (face == root[nf])).all())
    return connected, bool(root[0] != root[nf])


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per node of the graph on n nodes with links (u, v): the least node
    of its component.

    Min-hooking with pointer jumping (Shiloach & Vishkin 1982): each round
    hooks every tree's root onto the least root linked to the tree, if
    smaller, then jumps pointers until every node points at its root.  A
    tree that neither hooks nor is hooked onto has a neighbour that hooked
    onto a smaller root, so it hooks in the next round.  A component's
    trees thus halve every two rounds: O(log n) rounds, where label
    propagation needs as many as the graph's diameter.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        join = ru != rv
        if not join.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[join],
                      np.minimum(ru, rv)[join])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def euler_characteristic(p: Polyhedron) -> int:
    return p.n_vertices - p.n_edges + p.n_faces


def is_orientable(p: Polyhedron) -> bool:
    """Whether the faces can be oriented consistently (see
    Polyhedron.orientation).  Raises DisconnectedSurface on
    multi-component input."""
    connected, orientable = p.orientation
    if not connected:
        raise DisconnectedSurface("cannot orient a disconnected surface")
    return orientable


def topology_from(chi: int, orientable: bool) -> TopologyClass:
    if orientable:
        if chi % 2 != 0:
            raise InconsistentTopology(
                f"orientable surface with odd Euler characteristic {chi}")
        return TopologyClass(True, (2 - chi) // 2, chi)
    return TopologyClass(False, 2 - chi, chi)


def classify(p: Polyhedron) -> TopologyClass:
    """Genus and orientability from the Euler characteristic (connected
    closed surfaces only)."""
    return topology_from(euler_characteristic(p), is_orientable(p))
