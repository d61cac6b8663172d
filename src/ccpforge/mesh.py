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

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import (BadParameters, DegenerateFace, DisconnectedSurface,
                     FlatEdge, InconsistentTopology, IndexOutOfRange,
                     NonManifoldEdge)


# a half-edge is (face index, slot): slot i of face f traverses the segment
# from faces[f][i] to faces[f][(i+1) % len]
HalfEdge = tuple[int, int]
EdgeSlots = tuple[tuple[HalfEdge, HalfEdge], ...]


# The tolerance of each geometric check of validation and verification;
# planarity and length are relative to MeshGeometry.scale.
PLANARITY_TOL = 1e-9    # max vertex distance to the face's Newell plane
#                         through its centroid
ANGLE_TOL = 1e-9        # radians; dihedral-pi rejection band
LENGTH_TOL = 1e-12      # edge-length comparisons (isometry checks)
DEFECT_TOL = 1e-9       # defect-constancy band, radians


@dataclass(frozen=True)
class TopologyClass:
    orientable: bool
    genus: int
    euler_characteristic: int


# the metadata fields that are collections, each with its kind
_COLLECTIONS = (("provenance", list), ("vertex_labels", dict),
                ("seam_edges", set))


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

    def __post_init__(self):
        """verify compares genus, orientable and expected_defect: each is
        None or of its kind.  Provenance, vertex_labels and seam_edges are
        a list, a dict and a set, which the flat-edge check reads, and
        their entries are what a saved file holds: each provenance entry
        a str, each label a str naming a vertex id, and each seam a tuple
        of two distinct vertex ids (see _vertex_id)."""
        g, o, d = self.genus, self.orientable, self.expected_defect
        if not ((g is None or isinstance(g, numbers.Integral))
                and (o is None or isinstance(o, (bool, np.bool_)))
                and (d is None or _finite(d))):
            raise BadParameters(f"metadata genus {g!r}, orientable {o!r} or "
                                f"expected defect {d!r} is of another kind")
        for name, kind in _COLLECTIONS:
            if not isinstance(getattr(self, name), kind):
                raise BadParameters(
                    f"metadata {name} is not a {kind.__name__}")
        bad = next((e for e in self.provenance if not isinstance(e, str)),
                   None)
        if bad is not None:
            raise BadParameters(f"metadata provenance entry {bad!r} is not "
                                f"a str")
        bad = next(((k, v) for k, v in self.vertex_labels.items()
                    if not (isinstance(k, str) and _vertex_id(v))), None)
        if bad is not None:
            raise BadParameters(f"metadata vertex label {bad[0]!r}: "
                                f"{bad[1]!r} is not a str naming a vertex id")
        bad = next((e for e in self.seam_edges if not (
            isinstance(e, tuple) and len(e) == 2 and _vertex_id(e[0])
            and _vertex_id(e[1]) and e[0] != e[1])), None)
        if bad is not None:
            raise BadParameters(f"metadata seam {bad!r} is not two distinct "
                                f"vertex ids")

    # nothing in the library reads it; perfbench/workloads.py calls it
    def surgery_count(self) -> int:
        return sum(1 for p in self.provenance
                   if p.startswith(("drill", "connect_sum")))


def replace_meta(meta: MeshMetadata, **kw) -> MeshMetadata:
    """meta with the fields kw names replaced; the copy shares no list,
    dict or set with meta."""
    copies = {name: copy(getattr(meta, name)) for name, copy in _COLLECTIONS
              if name not in kw}
    return replace(meta, **copies, **kw)


class Polyhedron:
    """Immutable validated mesh; build_polyhedron makes every one.

    vertices   : (n, 3) float64 array
    faces      : tuple of vertex-index tuples (cyclic order as given)
    edge_pairs : per edge cell its (u, v) vertex pair, u < v, as an (E, 2)
                 array sorted by pair; pairs repeat when two distinct
                 1-cells share their endpoints
    edges      : edge_pairs as a tuple of tuples
    edge_slots : per edge, the two (face, slot) half-edges it carries

    A mesh's combinatorial parts are its `combinatorics` record, which
    meshes built on one face list share (see Combinatorics), and its
    geometric ones are its `geometry`.  The tuple views edges and
    edge_slots are built from the record's arrays on first read.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Polyhedron is made by build_polyhedron, which "
                        "validates it")

    @classmethod
    def _of_arrays(cls, vertices: np.ndarray, record: "Combinatorics",
                   metadata: MeshMetadata, geometry: "MeshGeometry"
                   ) -> "Polyhedron":
        """A mesh on the faces and edge cells of `record`."""
        vertices.setflags(write=False)
        p = cls.__new__(cls)
        p.__dict__.update(vertices=vertices, faces=record.faces,
                          combinatorics=record, metadata=metadata,
                          geometry=geometry, edge_pairs=record.edge_pairs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"a Polyhedron is immutable: cannot set {name}")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_pairs.tolist()))

    @cached_property
    def edge_slots(self) -> EdgeSlots:
        return tuple(((a, b), (c, d)) for a, b, c, d in
                     self.combinatorics.cells.tolist())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_pairs)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def has_multi_edges(self) -> bool:
        """Whether two edge cells share a vertex pair."""
        return self.geometry.doubled

    def edge_index(self, u: int, v: int) -> int:
        """Index of the (first) edge cell joining vertices u and v, given
        in either order; IndexOutOfRange when u or v is not a vertex id or
        no edge joins them."""
        n = self.n_vertices
        u, v = _index(u, n, "vertex"), _index(v, n, "vertex")
        e = _edge_at(self, np.array([[min(u, v), max(u, v)]]))[0]
        if e < 0:
            raise IndexOutOfRange(f"no edge joins vertices {u} and {v}")
        return int(e)

    def vertex_faces(self, v: int) -> list[int]:
        """The faces at vertex v, once per corner; IndexOutOfRange for a v
        that is not a vertex id."""
        v = _index(v, self.n_vertices, "vertex")
        geo = self.geometry
        return geo.corner_face[geo.corner_vertex == v].tolist()

    def face_points(self, f: int) -> np.ndarray:
        """Face f's corner points, in cycle order; IndexOutOfRange for an f
        that is not a face id."""
        return self.vertices[list(self.faces[_index(f, self.n_faces,
                                                    "face")])]

    @property
    def orientation(self) -> tuple[bool, bool]:
        """Whether the surface is connected and whether it is orientable,
        from one search of its orientation double cover (see
        _orientation_cover); computed on first use and kept by the
        record, for every mesh that shares it."""
        return self.combinatorics.orientation

    def with_metadata(self, **kw) -> "Polyhedron":
        """This mesh with the metadata fields kw names replaced; it shares
        the vertices and every part computed so far, none of which reads
        the metadata."""
        out = Polyhedron.__new__(Polyhedron)
        out.__dict__.update(self.__dict__,
                            metadata=replace_meta(self.metadata, **kw))
        return out

    def label(self, name: str) -> int:
        """Vertex id for a construction label such as 'v2+++' or 'v3,1';
        BadParameters for a label no vertex carries."""
        try:
            return self.metadata.vertex_labels[name]
        except (KeyError, TypeError):   # TypeError: an unhashable name
            raise BadParameters(f"no vertex is labelled {name!r}") from None


class MeshData(NamedTuple):
    """A mesh's parts before validation: what surgery.glue assembles and
    build_polyhedron checks.  `faces` may be a Combinatorics record, which
    reads as a sequence of its faces.  `cells` pairs the face sides as
    (E, 4) rows (f1, s1, f2, s2), as MeshGeometry.cells; None pairs them
    by vertex pair."""
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
    return _corners(sizes, np.fromiter(chain.from_iterable(faces), np.intp,
                                       int(np.add.reduce(sizes))))


def _corners(sizes: np.ndarray, vertex: np.ndarray) -> _Corners:
    """The corner layout of faces of the given sizes whose cycles, one
    after another, are `vertex`."""
    ends = sizes.cumsum()
    start = ends - sizes
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = start
    return _Corners(sizes, start, vertex,
                    np.arange(len(sizes)).repeat(sizes), nxt)


def _prev_corners(corners: _Corners) -> np.ndarray:
    """Per corner, the corner before it on its face's cycle."""
    prev = np.arange(-1, len(corners.vertex) - 1)
    prev[corners.start] = corners.start + corners.size - 1
    return prev


class _TriangleRuns(NamedTuple):
    """The layout of a face list's ear clip (MeshGeometry.triangulation):
    each face's k - 2 triangles in a run, faces in order."""
    face: np.ndarray            # (T,) the face each triangle tiles
    base: np.ndarray            # (T, 1) that face's first corner
    local: np.ndarray           # (T, 3) corners within the face: (0, 1, 2)
    #                             for a triangle, to be clipped otherwise
    rows: np.ndarray            # the rows of the clipped faces' runs


class Combinatorics:
    """The combinatorial layer of a mesh: its face cycles and what derives
    from them alone, with no coordinate (the split of a half-edge
    structure's combinatorics from its geometry; Kettner 1999, "Using
    generic programming for designing a data structure for polyhedral
    surfaces").  Meshes on one face list share one record, so a family
    whose faces never change with its parameters, such as P^2_24 for
    every admissible (b, c), checks and pairs them once per process.

    Combinatorics.of derives a record by the checks of build_polyhedron.
    A record is immutable and its arrays are read-only.  It holds:

      faces          the face cycles, a tuple of tuples; the record
                     also reads as a sequence of them (len, index and
                     iteration), so raw MeshData may carry it as its face
                     list
      n_vertices     the vertex count the faces were checked against
      corners        the corner layout (see MeshGeometry), and
      prev_corner    per corner, the corner before it on its face's cycle
      corner_count   per vertex, the number of face corners at it
      cells          the (E, 4) edge cells (f1, s1, f2, s2), as edge_slots
      edge_pairs     per cell its (u, v) vertex pair, u < v, as (E, 2)

    and, each computed on first read and kept: orientation,
    cell_corners, polygons, triangle_runs (the layout of its
    triangulation), next_vertex and the self-intersection scan's sorted
    (face, side) and (face, vertex) keys, face_side and face_vertex.
    """

    def __init__(self, n_vertices: int, corners: _Corners, cells: np.ndarray,
                 edge_pairs: np.ndarray):
        """A record of parts already derived and checked (see of); the
        faces are read off the corners."""
        vertex = corners.vertex.tolist()
        bounds = corners.start.tolist() + [len(vertex)]
        faces = tuple(tuple(vertex[a:b]) for a, b in zip(bounds, bounds[1:]))
        for a in corners:
            a.setflags(write=False)
        self.__dict__.update(
            faces=faces, n_vertices=n_vertices, corners=corners,
            prev_corner=_readonly(_prev_corners(corners)),
            corner_count=_readonly(np.bincount(corners.vertex,
                                               minlength=n_vertices)),
            cells=_readonly(cells), edge_pairs=_readonly(edge_pairs))

    @classmethod
    def of(cls, faces, n_vertices: int,
           edge_slots: EdgeSlots | np.ndarray | None = None
           ) -> "Combinatorics":
        """The record of `faces` on n_vertices vertices, by build_polyhedron's
        checks of a face list, in its order: each face (_checked_corners),
        the pairing of the face sides, by vertex pair or by `edge_slots`
        (see build_polyhedron), and that every vertex lies on a face."""
        corners = _checked_corners(faces, n_vertices)
        if edge_slots is None:
            cells, ends = _derived_cells(corners)
        else:
            cells, ends = _edge_cells(_cell_array(edge_slots), corners)
        out = cls(n_vertices, corners, cells, ends)
        missing = (out.corner_count == 0).nonzero()[0]
        if missing.size:
            raise IndexOutOfRange(
                f"vertices {missing.tolist()} appear in no face")
        return out

    def __setattr__(self, name, value):
        raise AttributeError(
            f"a Combinatorics record is immutable: cannot set {name}")

    def __len__(self) -> int:
        return len(self.faces)

    def __getitem__(self, f):
        return self.faces[f]

    def __iter__(self):
        return iter(self.faces)

    def __repr__(self) -> str:
        return (f"Combinatorics({len(self.faces)} faces, "
                f"{self.n_vertices} vertices, {len(self.cells)} edges)")

    @cached_property
    def orientation(self) -> tuple[bool, bool]:
        """Whether the surface is connected and whether it is orientable
        (see _orientation_cover)."""
        return _orientation_cover(self)

    @cached_property
    def cell_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per edge cell: the corners that start its two half-edges, and
        whether the two traverse its segment in the same sense."""
        cells, start, vertex = self.cells, self.corners.start, \
            self.corners.vertex
        c1 = start[cells[:, 0]] + cells[:, 1]
        c2 = start[cells[:, 2]] + cells[:, 3]
        same = vertex[c1] == vertex[c2]
        return _readonly(c1), _readonly(c2), _readonly(same)

    @cached_property
    def polygons(self) -> tuple[tuple[int, int, int], ...]:
        """Per face of more than three corners, in order: its id, first
        corner and size.  These are the faces that have sides that do
        not meet at a corner, and that the ear clip cuts."""
        big = (self.corners.size > 3).nonzero()[0]
        return tuple(zip(big.tolist(), self.corners.start[big].tolist(),
                         self.corners.size[big].tolist()))

    # measured gain: p2-sweep +5.0% without this and the quad paths (with
    # the per-length plane fits of the time)
    @cached_property
    def triangle_runs(self) -> _TriangleRuns:
        """The run layout of the ear clip: the rows of a face's run follow
        those of the faces before it, and those of the clipped faces are
        the runs' first rows, less the run's place among the clipped
        ones, plus the clips' row numbers."""
        size, start = self.corners.size, self.corners.start
        runs = size - 2
        face = np.arange(len(runs)).repeat(runs)
        local = np.empty((len(face), 3), np.intp)
        local[:] = (0, 1, 2)
        big = (runs > 1).nonzero()[0]
        n = runs[big]
        first = (runs.cumsum() - runs)[big] - (n.cumsum() - n)
        rows = first.repeat(n) + np.arange(int(np.add.reduce(n)))
        return _TriangleRuns(_readonly(face), _readonly(start[face, None]),
                             _readonly(local), _readonly(rows))

    @cached_property
    def next_vertex(self) -> np.ndarray:
        """Per corner, the vertex of the corner after it."""
        return _readonly(self.corners.vertex[self.corners.next])

    def vertex_key(self, f: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The key of each (face, vertex) pair, f * V + v."""
        return f.astype(np.int64) * self.n_vertices + v

    def side_key(self, f: np.ndarray, a: np.ndarray, b: np.ndarray
                 ) -> np.ndarray:
        """The key of each (face, side) triple, the side from vertex a to
        b in either sense: (f * V + min) * V + max."""
        return self.vertex_key(f, np.minimum(a, b)) * self.n_vertices \
            + np.maximum(a, b)

    @cached_property
    def face_side(self) -> np.ndarray:
        """Every face's side keys, sorted."""
        keys = self.side_key(self.corners.face, self.corners.vertex,
                             self.next_vertex)
        keys.sort()
        return _readonly(keys)

    @cached_property
    def face_vertex(self) -> np.ndarray:
        """Every face's (face, vertex) keys, sorted."""
        keys = self.vertex_key(self.corners.face, self.corners.vertex)
        keys.sort()
        return _readonly(keys)


# the plane parts of a MeshGeometry, in _newell's order: per face but uv,
# which is per corner
_PLANES = ("centroid", "normal", "residual", "u", "v", "uv", "area")


def _newell(vertices: np.ndarray, corners: _Corners
            ) -> tuple[np.ndarray, ...]:
    """The read-only planes, in _PLANES order, of the faces laid out in
    `corners`, in one pass over their corners by Newell's method
    (Sutherland, Sproull & Schumacker 1974; Tampieri, Graphics Gems III,
    1992).  Per face: its centroid; the Newell vector N of its cycle about
    the centroid and the unit normal N / |N|; the residual, the largest
    |d . n| over its corners d about the centroid; the _geom.plane_basis
    frame and uv; and the area |N| / 2.  Each sum runs over one face's
    corners (np.add.reduceat), so a face's plane has the bits of its own
    points fitted alone.  A face of zero vector area has area 0 and a
    NaN normal, frame and residual."""
    face, start = corners.face, corners.start
    pts = vertices.take(corners.vertex, axis=0)
    c = np.add.reduceat(pts, start, axis=0)
    c /= corners.size[:, None]
    d = pts - c.take(face, axis=0)
    newell = np.add.reduceat(
        _geom.cross(d, d.take(corners.next, axis=0)), start, axis=0)
    twice = _geom.norm(newell)
    with np.errstate(invalid="ignore"):
        n = newell / twice[:, None]
    resid = np.maximum.reduceat(np.abs(_geom.dot(d, n.take(face, axis=0))),
                                start)
    u, v = _geom.plane_basis(n)
    uv = np.empty((len(d), 2))
    uv[:, 0] = _geom.dot(d, u.take(face, axis=0))
    uv[:, 1] = _geom.dot(d, v.take(face, axis=0))
    return tuple(map(_readonly, (c, n, resid, u, v, uv, 0.5 * twice)))


class MeshGeometry:
    """Every geometric quantity of one mesh, each computed once.

    Faces are flattened into corners: face f owns the face_size[f] corners
    from face_start[f] onwards, in cycle order; corner c sits at vertex
    corner_vertex[c] and next_corner / prev_corner step along its face's
    cycle.  Array-valued parts are read-only.

    `layout` is a validated mesh's Combinatorics record, whose corner
    layout, edge cells (`cells`, (E, 4) rows (f1, s1, f2, s2), as in
    edge_slots) and derived parts the geometry reads (`combinatorics`),
    or the bare _corner_layout of raw data that surgery reads before
    validating, which has neither: no cells, and none of the parts that
    read them or the triangulation.

    Each face has one plane, fitted at construction by Newell's method
    (_newell): per face its centroid, unit normal, residual (largest
    vertex distance to the plane), in-plane basis u, v (u x v = normal)
    and area, and per corner uv, its coordinates in its face's (u, v)
    frame; face f's polygon is the slice of uv its corners hold.
    Validation, metrics and surgery all read these planes.
    """

    def __init__(self, vertices: np.ndarray,
                 layout: _Corners | Combinatorics):
        self.vertices = vertices
        if isinstance(layout, Combinatorics):
            self.combinatorics, corners = layout, layout.corners
            self.prev_corner, self.cells = layout.prev_corner, layout.cells
        else:
            self.combinatorics = self.cells = None
            corners = layout
            self.prev_corner = _prev_corners(corners)
        self.face_size = corners.size
        self.face_start = corners.start
        self.corner_face = corners.face
        self.corner_vertex = corners.vertex
        self.next_corner = corners.next
        self.__dict__.update(zip(_PLANES, _newell(vertices, corners)))

    def inside_clearance(self, faces: np.ndarray, points: np.ndarray
                         ) -> np.ndarray:
        """Per (n, 3) point, _geom.inside_clearance of its projection into
        the (u, v) frame of the face of `faces` (n,) at its place: 0 outside
        the face.  The faces of one length are measured in one stack, in
        which a point gets the bits it gets alone."""
        out = np.zeros(len(faces))
        sizes = self.face_size[faces]
        for k in np.bincount(sizes).nonzero()[0]:
            rows = (sizes == k).nonzero()[0]
            f = faces[rows]
            q = _geom.project_2d(
                points.take(rows, axis=0)[:, None],
                *(a.take(f, axis=0) for a in (self.centroid, self.u, self.v))
            )[:, 0]
            out[rows] = _geom.inside_clearance(q, self.uv.take(
                self.face_start[f][:, None] + np.arange(k), axis=0))
        return out

    @cached_property
    def doubled(self) -> bool:
        """Whether a segment carries two edge cells: its vertex pair bounds
        four or more face sides."""
        u, v = self.corner_vertex, self.corner_vertex[self.next_corner]
        pair = np.minimum(u, v) * len(self.vertices) + np.maximum(u, v)
        pair.sort()
        return bool(np.logical_or.reduce(pair[3:] == pair[:-3]))

    @cached_property
    def scale(self) -> float:
        """The mesh's tolerance scale: its largest absolute coordinate, at
        least 1."""
        return _geom.tolerance_scale(self.vertices)

    @cached_property
    def triangulation(self) -> Triangulation:
        """The ear clip of every face, in one record: each face's triangles
        in a run, faces in order, as the record's triangle_runs lays them
        out.  A triangle is its own clip, (0, 1, 2), as ear_clip gives it;
        the larger faces are clipped one by one on slices of one list of
        uv, each with its face's tolerance scale, all taken in one
        reduction."""
        record = self.combinatorics
        runs, local = record.triangle_runs, record.triangle_runs.local
        if record.polygons:
            uv = self.uv.tolist()
            # per face its largest |u| and |v|; the scale is the larger,
            # >= 1
            scale = _geom.tolerance_scale(np.maximum.reduceat(
                np.abs(self.uv), self.face_start), axis=1).tolist()
            local = local.copy()
            local[runs.rows] = [t for f, a, k in record.polygons
                                for t in _geom.ear_clip(uv[a:a + k],
                                                        scale=scale[f])]
        vertex = self.corner_vertex[runs.base + local]
        return Triangulation(_readonly(vertex), runs.face)

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
        theta = np.arctan2(_geom.linalg_norm(cross),
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
    def dihedrals(self) -> np.ndarray:
        """Per edge cell: the dihedral angle in [0, 2*pi), measured through
        the side opposite the first face's normal.  Each face's
        inward direction at the edge is its normal crossed with its own
        traversal direction, which is correct for non-convex faces too."""
        c1, c2, same = self.combinatorics.cell_corners
        a = self.vertices.take(self.corner_vertex[c1], axis=0)
        t = self.vertices.take(self.corner_vertex[self.next_corner[c1]],
                               axis=0) - a
        t /= _geom.linalg_norm(t)[:, None]
        n1 = self.normal.take(self.corner_face[c1], axis=0)
        w2 = _geom.cross(self.normal.take(self.corner_face[c2], axis=0), t)
        np.negative(w2, out=w2, where=~same[:, None])
        w2 /= _geom.linalg_norm(w2)[:, None]
        ang = np.arctan2(-np.einsum("ij,ij->i", n1, w2),
                         np.einsum("ij,ij->i", _geom.cross(n1, t), w2))
        return _readonly(np.where(ang < 0, ang + 2.0 * np.pi, ang))


def flat_edges(p: Polyhedron, seams) -> list[tuple[int, int]]:
    """The (u, v) vertex pairs of the edge cells whose dihedral angle is
    within ANGLE_TOL of pi, other than the pairs in `seams`."""
    near_pi = (np.abs(p.geometry.dihedrals - np.pi) < ANGLE_TOL).nonzero()[0]
    if not near_pi.size:
        return []
    return [(u, v) for u, v in p.edge_pairs.take(near_pi, axis=0).tolist()
            if (u, v) not in seams]


def _edge_cells(cells: np.ndarray, corners: _Corners
                ) -> tuple[np.ndarray, np.ndarray]:
    """An explicit pairing as (E, 4) rows (f1, s1, f2, s2), sorted by vertex
    pair and then by the half-edges; returns the rows and their (E, 2)
    vertex pairs (lower id first).  Every half-edge must lie in exactly
    one cell and both halves of a cell traverse one segment.  A half-edge
    (f, s) orders as its corner start[f] + s does, and no two cells share
    a first corner, so the rows are sorted by two keys: the vertex pair,
    packed into one integer as in _derived_cells, and the first corner."""
    half = cells.reshape(-1, 2)
    f, s = half[:, 0], half[:, 1]
    ok = (f >= 0) & (f < len(corners.size))
    ok[ok] = (s[ok] >= 0) & (s[ok] < corners.size[f[ok]])
    if not np.logical_and.reduce(ok):
        i = ok.argmin()
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) out of range")
    corner = corners.start[f] + s
    order = corner.argsort(kind="stable")
    again = order[1:][corner[order[1:]] == corner[order[:-1]]]
    if again.size:
        i = np.minimum.reduce(again)
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) paired twice")
    u = corners.vertex[corner]
    v = corners.vertex[corners.next[corner]]
    ends = np.empty((len(u), 2), u.dtype)
    np.minimum(u, v, out=ends[:, 0])
    np.maximum(u, v, out=ends[:, 1])
    ends = ends.reshape(-1, 2, 2)
    bad = np.logical_or.reduce(ends[:, 0] != ends[:, 1], axis=1).nonzero()[0]
    if bad.size:
        (f1, s1, f2, s2) = cells[bad[0]]
        raise NonManifoldEdge(
            f"half-edges ({f1},{s1}) and ({f2},{s2}) traverse "
            f"different segments")
    if 2 * len(cells) != len(corners.vertex):
        raise NonManifoldEdge("edge_slots do not cover every half-edge")
    ends = ends[:, 0]
    top = int(np.maximum.reduce(ends[:, 1], initial=0)) + 1
    order = np.lexsort((corner[::2], ends[:, 0] * top + ends[:, 1]))
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
    within a cell by half-edge, and their (E, 2) vertex pairs.  The
    half-edges are sorted by one key per pair, lo * m + hi with m above
    every vertex id, which orders as (lo, hi) does; the stable sort keeps
    a pair's half-edges in corner order."""
    u, v = corners.vertex, corners.vertex[corners.next]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * (int(np.maximum.reduce(hi, initial=0)) + 1) + hi
    order = key.argsort(kind="stable")
    lo, hi, key = lo[order], hi[order], key[order]
    key_starts = np.empty(len(lo), dtype=bool)
    key_starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=key_starts[1:])
    first = key_starts.nonzero()[0]
    uses = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=uses[:-1])
    uses[-1:] = len(lo) - first[-1:]
    bad = (uses != 2).nonzero()[0]
    if bad.size:
        i = first[bad[0]]
        raise NonManifoldEdge(
            f"edge {(int(lo[i]), int(hi[i]))} used {uses[bad[0]]} times; "
            f"meshes with doubled segments need explicit edge_slots")
    face = corners.face[order]
    cells = np.empty((len(order), 2), np.intp)
    cells[:, 0] = face
    np.subtract(order, corners.start[face], out=cells[:, 1])
    ends = np.empty((len(lo) // 2, 2), lo.dtype)
    ends[:, 0] = lo[::2]
    ends[:, 1] = hi[::2]
    return cells.reshape(-1, 4), ends


def _edge_at(p: Polyhedron, pairs: np.ndarray) -> np.ndarray:
    """Per (u, v) row of `pairs`, u < v, the first edge cell joining them,
    or -1.  Each pair is keyed u * V + v, which orders as the pair does,
    and the cells' keys ascend (build_polyhedron sorts them), so one
    search finds them all."""
    n = p.n_vertices
    have = p.edge_pairs[:, 0] * n + p.edge_pairs[:, 1]
    want = pairs[:, 0] * n + pairs[:, 1]
    at = np.minimum(have.searchsorted(want), len(have) - 1)
    return np.where(have[at] == want, at, -1)


# Cross products are quadratic in the coordinates, their squared lengths
# quartic; below this bound those stay under 1e256, clear of overflow.
COORDINATE_LIMIT = 1e64


def _checked_vertices(vertices) -> np.ndarray:
    """vertices as an (n, 3) float array of at least 4 finite points, none
    beyond COORDINATE_LIMIT, or build_polyhedron's error for them."""
    try:
        pts = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not floats, or ragged
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 3:
        raise IndexOutOfRange("vertices must be an (n, 3) array")
    if len(pts) < 4:
        raise IndexOutOfRange(f"need at least 4 vertices, got {len(pts)}")
    bad = (~np.logical_and.reduce(np.isfinite(pts), axis=1)).nonzero()[0]
    if bad.size:
        raise DegenerateFace(f"vertex {bad[0]} has a non-finite coordinate "
                             f"{tuple(pts[bad[0]].tolist())}")
    bad = (np.maximum.reduce(np.abs(pts), axis=1)
           > COORDINATE_LIMIT).nonzero()[0]
    if bad.size:
        raise DegenerateFace(f"vertex {bad[0]} has a coordinate beyond "
                             f"{COORDINATE_LIMIT:g}: "
                             f"{tuple(pts[bad[0]].tolist())}")
    return pts


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

    The checks on the face list alone derive the mesh's Combinatorics
    record (Combinatorics.of); then the geometry is built on it.  `faces`
    may be such a record: a family whose face list never changes builds
    its record once, and each mesh on it checks only its vertices and
    geometry.  A record for another vertex count is checked again as a
    face list, as are its faces when `edge_slots` is given, so every
    error is the one the plain face list gives.

    `edge_slots` pairs the face sides explicitly, as ((face, slot),
    (face, slot)) cells or an (E, 2, 2) or (E, 4) array; without it sides
    are paired by vertex pair.  The geometry fits every face's plane in
    one Newell pass (see MeshGeometry).
    """
    meta = MeshMetadata() if metadata is None else metadata
    _record(meta, MeshMetadata, "the metadata")
    pts = _checked_vertices(vertices)
    n = len(pts)

    if isinstance(faces, Combinatorics) and edge_slots is None and \
            faces.n_vertices == n:
        record = faces
    else:
        record = Combinatorics.of(faces, n, edge_slots)

    pts = pts.copy()
    geo = MeshGeometry(pts, record)
    poly = Polyhedron._of_arrays(pts, record, meta, geo)
    ends = record.edge_pairs
    scale = geo.scale
    short = _geom.norm(pts.take(ends[:, 0], axis=0)
                       - pts.take(ends[:, 1], axis=0)) <= LENGTH_TOL * scale
    if np.logical_or.reduce(short):
        u, v = ends[short.argmax()]
        raise DegenerateFace(f"edge ({u}, {v}) has coincident endpoints")

    # per face, in order: area, planarity, then simplicity; the first face
    # that fails raises.  A face of near-zero area has no plane to deviate
    # from: the direction of a Newell vector of rounding noise is noise.
    # The faces before the first that fails one of the two array checks
    # are tested for simplicity, all but the triangles, which have no two
    # sides that do not meet at a corner
    tiny = geo.area <= LENGTH_TOL * scale * scale
    bad = tiny | (geo.residual > PLANARITY_TOL * scale)
    first = int(bad.argmax()) if np.logical_or.reduce(bad) else len(bad)
    uv = geo.uv.tolist()
    for fi, a, k in record.polygons:
        if fi >= first:
            break
        if not _geom.polygon_is_simple(uv[a:a + k]):
            raise DegenerateFace(f"face {fi} is not a simple polygon")
    if first < len(bad):
        if tiny[first]:
            raise DegenerateFace(f"face {first} has near-zero area")
        raise DegenerateFace(f"face {first} deviates "
                             f"{geo.residual[first]:.2e} from planarity")

    flat = flat_edges(poly, poly.metadata.seam_edges)
    if flat:
        raise FlatEdge(f"edge {flat[0]} has dihedral angle pi")

    if not poly.orientation[0]:
        raise DisconnectedSurface("face-adjacency graph is disconnected")
    return poly


def _checked_corners(faces, n: int) -> _Corners:
    """The corner layout of `faces` once each face is checked, as one
    array: it has 3 or more vertices, none repeated, each an integer (by
    operator.index, so numpy integers pass) in range(n).  The first face
    that fails raises, for the first of those checks it fails.  Faces
    that are not iterable, or a face with no length, raise
    IndexOutOfRange before any face is checked."""
    try:
        faces = list(faces)         # read twice below; any iterable passes
    except TypeError:
        raise IndexOutOfRange(
            f"faces {faces!r} is not a sequence of vertex cycles") from None
    try:
        sizes = np.fromiter(map(len, faces), np.intp, len(faces))
    except TypeError:               # a face with no length
        for fi, cyc in enumerate(faces):
            try:
                len(cyc)
            except TypeError:
                raise IndexOutOfRange(
                    f"face {fi} {cyc!r} is not a vertex cycle") from None
        raise
    flat = list(chain.from_iterable(faces))
    vertex, bad = _intp_entries(flat)
    n_faces = len(sizes)
    face = np.arange(n_faces).repeat(sizes)
    inside = (vertex >= 0) & (vertex < n)
    ids, m = vertex, n
    if not np.logical_and.reduce(inside):   # ranks, so that no key wraps
        uniq, ids = np.unique(vertex, return_inverse=True)
        m = len(uniq)
    key = face * m + ids
    key.sort()
    repeat = key[1:][key[1:] == key[:-1]] // m
    short = (sizes < 3).nonzero()[0]
    outside = (~inside).nonzero()[0]
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
    """x as an int by operator.index (numpy integers pass, a bool does
    not), else error."""
    try:
        return operator.index(None if isinstance(x, bool) else x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


def _index(x, n: int, what: str) -> int:
    """x as an int when it is an integer (by _integer) in range(n), the
    ids of a mesh's n items of the kind `what` names, else
    IndexOutOfRange."""
    i = _integer(x, what, IndexOutOfRange)
    if not 0 <= i < n:
        items = "vertices" if what == "vertex" else f"{what}s"
        raise IndexOutOfRange(
            f"{what} {x} out of range: the mesh has {n} {items}")
    return i


def _real(x, what: str, error: type[Exception]) -> float:
    """x as a float when it is a finite real number (numpy's pass) and
    not a bool, else error."""
    if isinstance(x, bool) or not _finite(x):
        raise error(f"{what} {x!r} is not a finite real number")
    return float(x)


def check_defect_tolerance(value) -> float:
    """The defect-constancy band `value` sets, as a float: DEFECT_TOL for
    None, else value, which must be a finite positive real number (a bool
    is none); BadParameters otherwise.  verify and defect_profile both
    check their band so."""
    if value is None:
        return DEFECT_TOL
    if isinstance(value, bool) or not (_finite(value) and value > 0):
        raise BadParameters(f"the defect tolerance must be a finite "
                            f"positive number, got {value!r}")
    return float(value)


def _record(x, kind: type, what: str):
    """x when it is a `kind`, else BadParameters: every public entry that
    takes a record such as a DrillSpec checks it so."""
    if not isinstance(x, kind):
        raise BadParameters(f"{what} must be a {kind.__name__}, not "
                            f"{type(x).__name__}")


def _vertex_id(x) -> bool:
    """Whether x is a non-negative integer (numpy's pass, a bool does
    not)."""
    return (type(x) is int or isinstance(x, numbers.Integral)
            and not isinstance(x, bool)) and x >= 0


def _finite(x) -> bool:
    """Whether x is a real number (numpy's pass) and finite."""
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:       # an int beyond the float range
        return False


def _intp_entries(flat: list) -> tuple[np.ndarray, int]:
    """`flat` as an intp array, and the index of its first entry that is
    not an intp integer by operator.index (len(flat) if none); from that
    entry on the array reads -1.

    numpy infers an integer dtype for a flat list only when every entry is
    an integer, so the common case takes no Python call per entry."""
    # measured gain: construct-chain, certify-files +0.9 to +1.3% without it
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


def _orientation_cover(record: Combinatorics) -> tuple[bool, bool]:
    """Connectivity and orientability of a record's faces, from the
    orientation double cover.

    The cover has 2F nodes, the face-sides: face f as stored (node f) and
    reversed (node f + F).  Each side traverses the edges of its face in
    one sense, and each edge cell links the two pairs of sides that
    traverse it in opposite senses, as consistently oriented neighbours
    do.  The surface is connected iff every face reaches face 0 or its
    reverse, and orientable iff face 0 does not reach its own reverse
    (Hatcher, Algebraic Topology, section 3.3).
    """
    nf = len(record.faces)
    _, _, same = record.cell_corners
    # stored faces that traverse the cell in the same sense link to each
    # other's reverse
    f1, f2 = record.cells[:, 0], record.cells[:, 2] + np.where(same, nf, 0)
    root = _components(np.concatenate([f1, f1 + nf]),
                       np.concatenate([f2, (f2 + nf) % (2 * nf)]), 2 * nf)
    face = root[:nf]
    connected = bool(np.logical_and.reduce((face == root[0])
                                           | (face == root[nf])))
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
        if not np.logical_or.reduce(join):
            return root
        np.minimum.at(root, np.maximum(ru, rv)[join],
                      np.minimum(ru, rv)[join])
        while True:
            up = root[root]
            if np.logical_and.reduce(up == root):
                break
            root = up


def _mesh(p, raw: bool = False):
    """p when it is a Polyhedron, or raw MeshData where `raw`, else
    BadParameters.  Every public entry that takes a mesh checks it so,
    before it reads any part of it."""
    if isinstance(p, Polyhedron) or raw and isinstance(p, MeshData):
        return p
    kinds = "a Polyhedron or MeshData" if raw else "a Polyhedron"
    raise BadParameters(f"the mesh must be {kinds}, not {type(p).__name__}")


def euler_characteristic(p: Polyhedron) -> int:
    p = _mesh(p)
    return p.n_vertices - p.n_edges + p.n_faces


def is_orientable(p: Polyhedron) -> bool:
    """Whether the faces can be oriented consistently (see
    Polyhedron.orientation).  Raises DisconnectedSurface on
    multi-component input."""
    connected, orientable = _mesh(p).orientation
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
    return topology_from(euler_characteristic(_mesh(p)), is_orientable(p))
