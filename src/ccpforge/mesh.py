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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
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


class _Labels(dict):
    """A read-only dict, MeshMetadata's vertex labels: every change in
    place raises TypeError, and it pickles, copies and deep-copies as a
    new one of the same items."""
    def _refuse(self, *args, **kw):
        raise TypeError("metadata vertex labels are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class MeshMetadata:
    family: str | None = None
    genus: int | None = None
    orientable: bool | None = None
    expected_defect: float | None = None
    provenance: tuple[str, ...] = ()
    vertex_labels: Mapping[str, int] = field(default_factory=dict)
    # Subdivision seams: edges between coplanar sub-faces produced by
    # retiling a pierced face.  Such edges necessarily have dihedral angle
    # pi and are exempt from the flat-edge rejection.
    seam_edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        """Every field is None or what a saved file holds, kept frozen and
        as Python's: a family a str, a genus a non-negative integer,
        orientable a bool and an expected defect a finite real number
        (numpy's pass, a bool is no number); provenance a list or tuple of
        str, kept a tuple; vertex_labels a dict of str to vertex id (see
        _vertex_id), kept a read-only dict (_Labels); and seam_edges a set of
        tuples of two distinct vertex ids, kept a frozenset, lower id
        first.  Else BadParameters; _check_metadata fits labels and seams
        to a mesh.  A record is never changed, so meshes share it, and a
        subclass must be frozen too."""
        f, g, o, d = (self.family, self.genus, self.orientable,
                      self.expected_defect)
        if not ((f is None or isinstance(f, str))
                and (g is None or _vertex_id(g))
                and (o is None or isinstance(o, (bool, np.bool_)))
                and (d is None or not isinstance(d, bool) and _finite(d))):
            raise BadParameters(
                f"metadata family {f!r}, genus {g!r}, orientable {o!r} or "
                f"expected defect {d!r} is of another kind")
        for name, kinds in (("provenance", (list, tuple)),
                            ("vertex_labels", (dict,)),
                            ("seam_edges", (set, frozenset))):
            if not isinstance(getattr(self, name), kinds):
                raise BadParameters(f"metadata {name} is not a " + " or a "
                                    .join(k.__name__ for k in kinds))
        seams = frozenset(map(_seam, self.seam_edges))
        bad = next(chain(
            (f"provenance entry {e!r} is not a str"
             for e in self.provenance if not isinstance(e, str)),
            (f"vertex label {k!r}: {v!r} is not a str naming a vertex id"
             for k, v in self.vertex_labels.items()
             if not (isinstance(k, str) and _vertex_id(v))),
            (f"seam {e!r} is not two distinct vertex ids"
             for e in (self.seam_edges if None in seams else ())
             if _seam(e) is None)), None)
        if bad is not None:
            raise BadParameters(f"metadata {bad}")
        self.__dict__.update(
            genus=None if g is None else int(g),
            orientable=None if o is None else bool(o),
            expected_defect=None if d is None else float(d),
            provenance=tuple(self.provenance),
            vertex_labels=_Labels(
                {k: int(v) for k, v in self.vertex_labels.items()}),
            seam_edges=seams)

    # nothing in the library reads it; perfbench/workloads.py calls it
    def surgery_count(self) -> int:
        return sum(1 for p in self.provenance
                   if p.startswith(("drill", "connect_sum")))


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
        """Whether two edge cells share a vertex pair: a row of the sorted
        edge_pairs repeats."""
        pairs = self.edge_pairs
        return bool(np.logical_or.reduce(np.logical_and.reduce(
            pairs[1:] == pairs[:-1], axis=1)))

    def edge_index(self, u: int, v: int) -> int:
        """Index of the (first) edge cell joining vertices u and v, given
        in either order; IndexOutOfRange when u or v is not a vertex id or
        no edge joins them."""
        n = self.n_vertices
        u, v = _index(u, n, "vertex"), _index(v, n, "vertex")
        e = _edge_at(self.combinatorics, np.array([sorted((u, v))]))[0]
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
        """This mesh with a new metadata record, the fields kw names
        replaced (dataclasses.replace, which checks the record again);
        metadata is never changed in place.  The mesh shares the vertices
        and every part computed so far, none of which reads the metadata.
        A name that is no field, or labels or seams that do not fit this
        mesh (_check_metadata), raise BadParameters."""
        _check_fields(kw)
        meta = replace(self.metadata, **kw)
        _check_metadata(meta, self.combinatorics)
        out = Polyhedron.__new__(Polyhedron)
        out.__dict__.update(self.__dict__, metadata=meta)
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
    build_polyhedron checks (_checked_parts).  `cells` pairs the face
    sides as (E, 4) rows (f1, s1, f2, s2), as MeshGeometry.cells; None
    pairs them by vertex pair.  `faces` may be a Combinatorics record,
    which reads as a sequence of its faces and, with no cells, pairs them
    as it does: checked parts are such a record."""
    vertices: np.ndarray
    faces: Sequence[tuple[int, ...]]
    metadata: MeshMetadata
    cells: np.ndarray | None = None


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

    # measured gain: p2-sweep +3.5% without the record's cache alone (120
    # paired rounds)
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


def _clearance(pts: np.ndarray, faces: np.ndarray, corners: _Corners,
               planes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per (n, 3) point, how far its projection into the (u, v) frame of
    the face of `faces` (n,) at its place lies inside that face's
    polygon: the distance to its boundary where the polygon winds around
    it, else 0.  The faces are laid out in `corners`, with their planes
    in _PLANES order.  The faces of one length are projected and wound in
    one stack, in which a point gets the bits it gets alone, and a
    boundary distance is measured only where a polygon winds around its
    point (surgery's axis check and location, each on the fit of the
    faces it tests)."""
    centroid, _, _, u, v, uv, _ = planes
    out = np.zeros(len(faces))
    sizes = corners.size.take(faces)
    for k in np.bincount(sizes).nonzero()[0]:
        rows = (sizes == k).nonzero()[0]
        f = faces[rows]
        q = _geom.project_2d(pts[rows][:, None], centroid[f], u[f], v[f])[:, 0]
        poly = uv[corners.start[f][:, None] + np.arange(k)]
        hit = _geom.winds_around(q, poly)
        out[rows[hit]] = _geom.dist_point_polygon_boundary(q[hit], poly[hit])
    return out


class MeshGeometry:
    """Every geometric quantity of one mesh, each computed once.

    Faces are flattened into corners (`corners`, the record's layout):
    face f owns the face_size[f] corners from face_start[f] onwards, in
    cycle order; corner c sits at vertex corner_vertex[c] and
    next_corner / prev_corner step along its face's cycle.  Array-valued
    parts are read-only.

    The geometry reads the corner layout, edge cells (`cells`, (E, 4)
    rows (f1, s1, f2, s2), as in edge_slots) and derived parts of a
    validated mesh's Combinatorics record (`combinatorics`): only
    build_polyhedron makes one, once per mesh.

    Each face has one plane, fitted at construction by Newell's method
    (_newell): per face its centroid, unit normal, residual (largest
    vertex distance to the plane), in-plane basis u, v (u x v = normal)
    and area, and per corner uv, its coordinates in its face's (u, v)
    frame; face f's polygon is the slice of uv its corners hold.  `planes`
    holds the seven arrays in _PLANES order.
    Validation, metrics and verification read these planes; surgery
    fits the faces it reads alone (surgery._fitted), which gives them
    the same bits.
    """

    def __init__(self, vertices: np.ndarray, record: Combinatorics):
        self.vertices = vertices
        self.combinatorics, self.corners = record, record.corners
        self.prev_corner, self.cells = record.prev_corner, record.cells
        self.face_size = self.corners.size
        self.face_start = self.corners.start
        self.corner_face = self.corners.face
        self.corner_vertex = self.corners.vertex
        self.next_corner = self.corners.next
        self.planes = _newell(vertices, self.corners)
        self.__dict__.update(zip(_PLANES, self.planes))

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
    vertex pairs (lower id first).  Its checks, in their order
    (NonManifoldEdge): each half-edge is a side of the mesh, none lies in
    two cells, both halves of a cell traverse one segment, and every
    half-edge lies in a cell.  Each check is one pass, and finds what
    fails only if something does.  A half-edge (f, s) orders as its
    corner start[f] + s does, and no two cells share a first corner, so
    the rows are sorted by two keys: the vertex pair's, packed into one
    integer as in _derived_cells, and the first corner."""
    half = cells.reshape(-1, 2)
    f, s = half[:, 0], half[:, 1]
    size = corners.size
    if not (np.minimum.reduce(cells, axis=None, initial=0) >= 0
            and np.maximum.reduce(f, initial=-1) < len(size)
            and np.logical_and.reduce(s < size.take(f))):
        ok = (f >= 0) & (f < len(size))
        ok[ok] = (s[ok] >= 0) & (s[ok] < size[f[ok]])
        i = ok.argmin()
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) out of range")
    corner = corners.start.take(f) + s
    if np.maximum.reduce(np.bincount(corner), initial=0) > 1:
        order = corner.argsort(kind="stable")
        i = np.minimum.reduce(order[1:][corner[order[1:]]
                                        == corner[order[:-1]]])
        raise NonManifoldEdge(f"half-edge ({f[i]}, {s[i]}) paired twice")
    u = corners.vertex.take(corner)
    v = corners.vertex.take(corners.next.take(corner))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * (int(np.maximum.reduce(hi, initial=0)) + 1) + hi
    bad = (key[0::2] != key[1::2]).nonzero()[0]
    if bad.size:
        (f1, s1, f2, s2) = cells[bad[0]]
        raise NonManifoldEdge(
            f"half-edges ({f1},{s1}) and ({f2},{s2}) traverse "
            f"different segments")
    if 2 * len(cells) != len(corners.vertex):
        raise NonManifoldEdge("edge_slots do not cover every half-edge")
    order = np.lexsort((corner[0::2], key[0::2]))
    ends = np.empty((len(cells), 2), lo.dtype)
    ends[:, 0] = lo[0::2].take(order)
    ends[:, 1] = hi[0::2].take(order)
    return cells.take(order, axis=0), ends


def _cell_array(edge_slots) -> np.ndarray:
    """An explicit pairing as an (E, 4) index array: its entries, four to
    a cell in any nesting, are integers by the faces' rule
    (_intp_entries), else NonManifoldEdge; an integer beyond the index
    range names a half-edge out of range, as _edge_cells does one off the
    mesh.  Only an integer array is taken as it is: numpy would read a
    bool among a list's integers as one."""
    try:
        if isinstance(edge_slots, np.ndarray) and edge_slots.dtype.kind == "i":
            cells = edge_slots
        else:                       # each entry as given, not coerced
            cells = np.asarray(edge_slots, dtype=object)
    except ValueError:              # arrays numpy cannot nest
        cells = None
    if cells is None or cells.ndim == 0 or cells.size % 4:
        raise NonManifoldEdge(f"edge_slots {edge_slots!r} are not "
                              f"(face, slot) half-edges, two to a cell")
    if cells.dtype.kind != "i":
        flat = cells.ravel().tolist()
        cells, bad = _intp_entries(flat)
        if bad < len(flat):
            f, s = flat[bad & ~1], flat[bad | 1]
            _integer(flat[bad], f"half-edge ({f!r}, {s!r}) entry",
                     NonManifoldEdge)
            raise NonManifoldEdge(f"half-edge ({f}, {s}) out of range")
    return cells.astype(np.intp, copy=False).reshape(-1, 4)


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
    key = key[order]
    # every key twice: the sorted keys pair up, and no pair runs into the
    # next
    if len(key) % 2 or not (
            np.logical_and.reduce(key[0::2] == key[1::2])
            and np.logical_and.reduce(key[1:-1:2] != key[2::2])):
        _twice(key, lo[order], hi[order])
    face = corners.face[order]
    cells = np.empty((len(order), 2), np.intp)
    cells[:, 0] = face
    np.subtract(order, corners.start[face], out=cells[:, 1])
    ends = np.empty((len(key) // 2, 2), lo.dtype)
    ends[:, 0] = lo.take(order[::2])
    ends[:, 1] = hi.take(order[::2])
    return cells.reshape(-1, 4), ends


def _runs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal entries of the 1-D array k: where each starts,
    and its length."""
    starts = np.empty(len(k), bool)
    starts[:1] = True
    np.not_equal(k[1:], k[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    length = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=length[:-1])
    length[-1:] = len(k) - first[-1:]
    return first, length


def _find(keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query of q, its place in the ascending, non-empty keys, at most
    the last, and whether the key there is the query."""
    at = np.minimum(keys.searchsorted(q), len(keys) - 1)
    return at, keys[at] == q


def _twice(key: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """NonManifoldEdge for the first of the sorted keys, each a vertex
    pair (lo, hi), that does not occur exactly twice."""
    first, uses = _runs(key)
    i = (uses != 2).nonzero()[0][0]
    raise NonManifoldEdge(
        f"edge {(int(lo[first[i]]), int(hi[first[i]]))} used {uses[i]} "
        f"times; meshes with doubled segments need explicit edge_slots")


def _edge_at(record: Combinatorics, pairs: np.ndarray) -> np.ndarray:
    """Per (u, v) row of `pairs`, u < v < V, the first edge cell of the
    record joining them, or -1.  Each pair is keyed u * V + v, which
    orders as the pair does, and the cells' keys ascend (the record sorts
    them), so one search finds them all (_find)."""
    n, ends = record.n_vertices, record.edge_pairs
    at, found = _find(ends[:, 0] * n + ends[:, 1],
                      pairs[:, 0] * n + pairs[:, 1])
    return np.where(found, at, -1)


def _check_fields(kw: Mapping) -> None:
    """BadParameters for the least name in kw that is no MeshMetadata
    field: the one check of the fields a caller replaces, shared by
    with_metadata and surgery's recipes."""
    unknown = kw.keys() - {f.name for f in fields(MeshMetadata)}
    if unknown:
        raise BadParameters(f"metadata has no field {min(unknown)!r}")


def _check_metadata(meta: MeshMetadata, record: Combinatorics) -> None:
    """BadParameters for the first vertex label of `meta` that names no
    vertex of the record's mesh, else for the least seam beyond them, else
    for the least seam that is no edge (_checked_parts, with_metadata)."""
    n, labels, seams = record.n_vertices, meta.vertex_labels, meta.seam_edges
    if labels and max(labels.values()) >= n:
        name = next(k for k, v in labels.items() if v >= n)
        raise BadParameters(f"metadata vertex label {name!r} names none of "
                            f"the {n} vertices: {labels[name]}")
    stray = [s for s in seams if s[1] >= n]     # seams are kept lower first
    if seams and not stray:
        pairs = np.fromiter(chain.from_iterable(seams), np.intp,
                            2 * len(seams)).reshape(-1, 2)
        stray = pairs[_edge_at(record, pairs) < 0].tolist()
    if stray:
        raise BadParameters(f"metadata seam {tuple(min(stray))} is not an "
                            f"edge of the mesh")


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
    face area and planarity, that each face turns once (its exterior
    angles, pi less each corner angle, sum to 2 * pi within DEFECT_TOL)
    and is simple (a face that turns once with no reflex corner is convex,
    so only the others take the crossing test, _geom.polygon_is_simple),
    distinct edge endpoints, no flat (pi) dihedral angles, and
    connectivity of the face-adjacency graph.  Every
    check runs on every face, edge and vertex: surgery assembles a
    recipe's raw data with its edge cells (surgery.assemble, whose glue
    steps and drill chains write _Surgery records) and validates only the
    finished mesh (surgery.construct).

    The entry checks (_checked_parts), which surgery shares, check the
    metadata and vertices, derive the mesh's Combinatorics record from
    the face list (Combinatorics.of) and fit the metadata's labels and
    seams to it (_check_metadata); then the geometry is built on it.
    `faces` may be such a record: a family whose face list never changes
    builds its record once, and each mesh on it checks only its vertices
    and geometry.  A record for another vertex count is checked again as
    a face list, as are its faces when `edge_slots` is given, so every
    error is the one the plain face list gives.

    `edge_slots` pairs the face sides explicitly, as ((face, slot),
    (face, slot)) cells or an (E, 2, 2) or (E, 4) array of integers (by
    operator.index, as vertex ids are; NonManifoldEdge otherwise); without
    it sides are paired by vertex pair.  The geometry fits every face's
    plane in one Newell pass (see MeshGeometry).
    """
    pts, record, meta, _ = _checked_parts(vertices, faces, metadata,
                                          edge_slots)
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

    # per face its turn, the sum of its exterior angles: 2 * pi for a face
    # that turns once (Hopf's Umlaufsatz), off it for one crossed, even
    # within polygon_is_simple's eps.  A face that turns once and has no
    # reflex corner is convex, so simple (Preparata & Shamos 1985): the
    # crossing test is asked only about the others
    angles = geo.corner_angles
    turn = np.bincount(geo.corner_face, weights=np.pi - angles)
    crossed = np.abs(turn - 2.0 * np.pi) > DEFECT_TOL
    asked = crossed | np.logical_or.reduceat(angles > np.pi, geo.face_start)
    # per face, in order: area, planarity, then simplicity; the first face
    # that fails raises.  A face of near-zero area has no plane to deviate
    # from: the direction of a Newell vector of rounding noise is noise.
    # The faces asked about before the first that fails one of the two
    # array checks are tested for simplicity, all but the triangles, which
    # have no two sides that do not meet at a corner
    tiny = geo.area <= LENGTH_TOL * scale * scale
    bad = tiny | (geo.residual > PLANARITY_TOL * scale)
    first = int(bad.argmax()) if np.logical_or.reduce(bad) else len(bad)
    uv = geo.uv.tolist()
    for fi, a, k in record.polygons:
        if fi >= first:
            break
        if asked[fi] and not _geom.polygon_is_simple(uv[a:a + k]):
            raise DegenerateFace(f"face {fi} is not a simple polygon")
    if first < len(bad):
        if tiny[first]:
            raise DegenerateFace(f"face {first} has near-zero area")
        raise DegenerateFace(f"face {first} deviates "
                             f"{geo.residual[first]:.2e} from planarity")
    if np.logical_or.reduce(crossed):
        f = int(crossed.argmax())
        k = geo.face_size[f]
        raise DegenerateFace(f"face {f} is crossed: its corner angles sum "
                             f"to {k * np.pi - turn[f]:.6g}, not "
                             f"{(k - 2) * np.pi:.6g}")

    flat = flat_edges(poly, poly.metadata.seam_edges)
    if flat:
        raise FlatEdge(f"edge {flat[0]} has dihedral angle pi")

    if not poly.orientation[0]:
        raise DisconnectedSurface("face-adjacency graph is disconnected")
    return poly


def _checked_parts(vertices, faces, metadata: MeshMetadata | None = None,
                   edge_slots: EdgeSlots | np.ndarray | None = None
                   ) -> MeshData:
    """build_polyhedron's entry checks, in its order: the metadata (None
    reads as empty), the vertices (_checked_vertices), the faces and their
    pairing, as a Combinatorics record (Combinatorics.of), and the labels
    and seams against it (_check_metadata); faces that already are a
    record for that vertex count, with no edge_slots, are kept.  Returns
    the parts, the record as their faces, which pairs them: the build,
    surgery's drills and every mesh glue reads check raw data so."""
    meta = MeshMetadata() if metadata is None else metadata
    _record(meta, MeshMetadata, "the metadata")
    pts = _checked_vertices(vertices)
    if not (isinstance(faces, Combinatorics) and edge_slots is None
            and faces.n_vertices == len(pts)):
        faces = Combinatorics.of(faces, len(pts), edge_slots)
    _check_metadata(meta, faces)
    return MeshData(pts, faces, meta)


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


def _seam(e) -> tuple[int, int] | None:
    """e as a seam, (lower id, higher id) as ints, when it is a tuple of
    two distinct vertex ids (see _vertex_id), else None."""
    if not (isinstance(e, tuple) and len(e) == 2):
        return None
    u, w = e
    if not (_vertex_id(u) and _vertex_id(w)) or u == w:
        return None
    return (int(u), int(w)) if u < w else (int(w), int(u))


def _finite(x) -> bool:
    """Whether x is a real number (numpy's pass) and finite."""
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:       # an int beyond the float range
        return False


def _intp_entries(flat: list) -> tuple[np.ndarray, int]:
    """`flat` as an intp array, and the index of its first entry that is
    not an intp integer by operator.index, or is a bool (len(flat) if
    none); from that entry on the array reads -1.

    numpy infers an integer dtype for a flat list only when every entry is
    an integer or a bool, so a list that holds no bool takes no Python
    call per entry."""
    # measured gain: construct-chain, certify-files +0.9 to +1.3% without it
    vertex = None
    if {bool, np.bool_}.isdisjoint(map(type, flat)):
        try:
            vertex = np.array(flat)
        except ValueError:          # ragged: an entry is a sequence
            pass
    if vertex is not None and vertex.ndim == 1 and vertex.dtype.kind == "i":
        return vertex.astype(np.intp, copy=False), len(flat)
    lo, hi = np.iinfo(np.intp).min, np.iinfo(np.intp).max
    out = []
    for v in flat:
        try:
            v = operator.index(None if isinstance(v, bool) else v)
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
