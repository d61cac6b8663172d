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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import (DegenerateFace, DisconnectedSurface, FlatEdge,
                     InconsistentTopology, IndexOutOfRange, NonManifoldEdge)

# a half-edge is (face index, slot): slot i of face f traverses the segment
# from faces[f][i] to faces[f][(i+1) % len]
HalfEdge = tuple[int, int]
EdgeSlots = tuple[tuple[HalfEdge, HalfEdge], ...]


@dataclass(frozen=True)
class ToleranceSet:
    """Geometric tolerances used by validation and verification."""
    planarity: float = 1e-9       # max vertex distance to best-fit face plane
    angle: float = 1e-9           # radians; dihedral-pi rejection band
    length: float = 1e-12        # edge-length comparisons (isometry checks)
    defect: float = 1e-9          # defect-constancy band, radians


DEFAULT_TOLERANCES = ToleranceSet()


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

    def surgery_count(self) -> int:
        return sum(1 for p in self.provenance
                   if p.startswith(("drill", "connect_sum")))


def replace_meta(meta: MeshMetadata, **kw) -> MeshMetadata:
    new = MeshMetadata(meta.family, meta.genus, meta.orientable,
                       meta.expected_defect, list(meta.provenance),
                       dict(meta.vertex_labels), set(meta.seam_edges))
    for k, v in kw.items():
        setattr(new, k, v)
    return new


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
        return len(set(self.edges)) != len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        """Index of the (first) edge cell joining u and v."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_lookup[key]
        except AttributeError:
            lookup = {}
            for i in range(len(self.edges) - 1, -1, -1):
                lookup[self.edges[i]] = i
            object.__setattr__(self, "_edge_lookup", lookup)
            return self._edge_lookup[key]

    def edge_faces(self, e: int) -> tuple[int, int]:
        """The two faces bordering edge cell e."""
        (f1, _), (f2, _) = self.edge_slots[e]
        return f1, f2

    def edge_direction(self, e: int, side: int) -> int:
        """+1 when the side-th face of edge e traverses it from the lower
        to the higher vertex id, else -1."""
        f, s = self.edge_slots[e][side]
        cyc = self.faces[f]
        u = cyc[s]
        return 1 if u == self.edges[e][0] else -1

    def vertex_faces(self, v: int) -> list[int]:
        try:
            table = self._vertex_face_table
        except AttributeError:
            table = [[] for _ in range(self.n_vertices)]
            for fi, cyc in enumerate(self.faces):
                for u in cyc:
                    table[u].append(fi)
            object.__setattr__(self, "_vertex_face_table", table)
        return table[v]

    def face_points(self, f: int) -> np.ndarray:
        return self.vertices[list(self.faces[f])]

    @cached_property
    def geometry(self) -> "MeshGeometry":
        """The mesh's face, corner, vertex and edge geometry, computed on
        first use and kept for the life of the mesh."""
        return MeshGeometry(self)

    @cached_property
    def orientation(self) -> tuple[tuple[int, ...], bool]:
        """Each face's orientation sign and whether any two conflict, from
        one search over the face-adjacency graph (see _orientation_signs);
        computed on first use and kept for the life of the mesh."""
        sign, conflict = _orientation_signs(self)
        return tuple(sign), conflict

    def with_metadata(self, **kw) -> "Polyhedron":
        out = replace(self, metadata=replace_meta(self.metadata, **kw))
        for name in ("geometry", "orientation"):  # both ignore metadata
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def label(self, name: str) -> int:
        """Vertex id for a construction label such as 'v2+++' or 'v3,1'."""
        return self.metadata.vertex_labels[name]


class FaceFrame(NamedTuple):
    """Best-fit plane of one face and the face's cycle in that plane."""
    centroid: np.ndarray
    normal: np.ndarray               # unit, on the Newell normal's side
    residual: float                  # max vertex distance to the plane
    u: np.ndarray                    # in-plane basis, u x v = normal
    v: np.ndarray
    polygon: np.ndarray              # (k, 2) cycle in the (u, v) frame


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class MeshGeometry:
    """Every geometric quantity of one mesh, each computed once.

    Faces are flattened into corners: face f owns the face_size[f] corners
    from face_start[f] onwards, in cycle order; corner c sits at vertex
    corner_vertex[c] and next_corner / prev_corner step along its face's
    cycle.  Array-valued parts are read-only.
    """

    def __init__(self, p: Polyhedron):
        self.vertices = p.vertices
        self.faces = p.faces
        self.edge_slots = p.edge_slots
        sizes = np.array([len(c) for c in p.faces], dtype=np.intp)
        ends = np.cumsum(sizes)
        self.face_size = sizes
        self.face_start = ends - sizes
        self.corner_face = np.repeat(np.arange(len(sizes)), sizes)
        self.corner_vertex = np.fromiter(
            (v for cyc in p.faces for v in cyc), np.intp, int(ends[-1]))
        corners = np.arange(len(self.corner_vertex))
        self.next_corner = corners + 1
        self.next_corner[ends - 1] = self.face_start
        self.prev_corner = corners - 1
        self.prev_corner[self.face_start] = ends - 1

    @cached_property
    def newell(self) -> np.ndarray:
        """(F, 3) Newell normals; each has length twice the face area."""
        pts = self.vertices[self.corner_vertex]
        return _readonly(np.add.reduceat(
            np.cross(pts, pts[self.next_corner]), self.face_start, axis=0))

    @cached_property
    def area(self) -> np.ndarray:
        return _readonly(0.5 * np.linalg.norm(self.newell, axis=1))

    @cached_property
    def normal(self) -> np.ndarray:
        """(F, 3) unit Newell normals."""
        return _readonly(self.newell / (2.0 * self.area)[:, None])

    @cached_property
    def scale(self) -> float:
        """The mesh's tolerance scale: its largest absolute coordinate, at
        least 1."""
        return max(1.0, float(np.abs(self.vertices).max()))

    @cached_property
    def frames(self) -> list[FaceFrame]:
        """Per face: SVD plane fit signed by the face's own Newell sum, then
        the deterministic in-plane basis and the projected cycle.  Faces of
        equal length are fitted together, in one call per length."""
        out = [None] * len(self.faces)
        for k in np.flatnonzero(np.bincount(self.face_size)):
            rows = np.flatnonzero(self.face_size == k)
            pts = self.vertices[self.corner_vertex[
                self.face_start[rows, None] + np.arange(k)]]
            c, n, resid = _geom.plane_fit(pts)
            u, v = _geom.plane_basis(n)
            poly = _geom.project_2d(pts, c, u, v)
            for f, *frame in zip(rows.tolist(), c, n, resid.tolist(), u, v,
                                 poly):
                out[f] = FaceFrame(*frame)
        return out

    @cached_property
    def triangles(self) -> list[np.ndarray]:
        """Per face: its ear-clipped triangles as a (k-2, 3, 3) array of
        world-space points."""
        return [_readonly(self.vertices[np.asarray(cyc)[
                    _geom.ear_clip(fr.polygon)]])
                for cyc, fr in zip(self.faces, self.frames)]

    @cached_property
    def corner_angles(self) -> np.ndarray:
        """Interior angle at every corner, in (0, 2*pi); a corner turning
        against its face's Newell normal is reflex."""
        pts = self.vertices[self.corner_vertex]
        nxt = pts[self.next_corner] - pts
        prv = pts[self.prev_corner] - pts
        cross = np.cross(nxt, prv)
        theta = np.arctan2(np.linalg.norm(cross, axis=1),
                           np.einsum("ij,ij->i", nxt, prv))
        reflex = np.einsum("ij,ij->i", cross,
                           self.normal[self.corner_face]) < 0
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
        the side opposite the first face's Newell normal.  Each face's
        inward direction at the edge is its normal crossed with its own
        traversal direction, which is correct for non-convex faces too."""
        slots = np.array(self.edge_slots, dtype=np.intp).reshape(-1, 2, 2)
        c1 = self.face_start[slots[:, 0, 0]] + slots[:, 0, 1]
        c2 = self.face_start[slots[:, 1, 0]] + slots[:, 1, 1]
        a = self.vertices[self.corner_vertex[c1]]
        t = self.vertices[self.corner_vertex[self.next_corner[c1]]] - a
        t /= np.linalg.norm(t, axis=1)[:, None]
        n1 = self.normal[self.corner_face[c1]]
        # both sides traverse the same segment, in equal or opposite senses
        same = self.corner_vertex[c2] == self.corner_vertex[c1]
        w2 = np.cross(self.normal[self.corner_face[c2]], t)
        w2[~same] *= -1.0
        w2 /= np.linalg.norm(w2, axis=1)[:, None]
        ang = np.arctan2(-np.einsum("ij,ij->i", n1, w2),
                         np.einsum("ij,ij->i", np.cross(n1, t), w2))
        return _readonly(np.where(ang < 0, ang + 2.0 * np.pi, ang))


def flat_edges(p: Polyhedron, tolerances: ToleranceSet,
               seams) -> list[int]:
    """Edge cells whose dihedral angle is within the angle tolerance of pi,
    other than those joining a vertex pair in `seams`."""
    near_pi = np.abs(p.geometry.dihedrals - np.pi) < tolerances.angle
    return [int(e) for e in np.flatnonzero(near_pi) if p.edges[e] not in seams]


def _half_edges(faces):
    """All (face, slot, u, v) traversals."""
    out = []
    for fi, cyc in enumerate(faces):
        k = len(cyc)
        for s in range(k):
            out.append((fi, s, cyc[s], cyc[(s + 1) % k]))
    return out


def _derive_edge_slots(faces):
    """Pair the half-edges by unordered vertex pair; every pair must occur
    exactly twice.  Returns (edge_slots, edge_pairs)."""
    groups: dict[tuple[int, int], list[HalfEdge]] = {}
    for fi, s, u, v in _half_edges(faces):
        key = (u, v) if u < v else (v, u)
        groups.setdefault(key, []).append((fi, s))
    cells = []
    for key in sorted(groups):
        uses = groups[key]
        if len(uses) != 2:
            raise NonManifoldEdge(
                f"edge {key} used {len(uses)} times; meshes with doubled "
                f"segments need explicit edge_slots")
        cells.append((key, (uses[0], uses[1])))
    return tuple(c[1] for c in cells), tuple(c[0] for c in cells)


def _validate_edge_slots(faces, edge_slots):
    """Check an explicit pairing: every half-edge in exactly one cell and
    both halves of a cell traversing the same vertex pair."""
    seen: set[HalfEdge] = set()
    pairs = []
    for (f1, s1), (f2, s2) in edge_slots:
        for (f, s) in ((f1, s1), (f2, s2)):
            if not (0 <= f < len(faces)) or not (0 <= s < len(faces[f])):
                raise NonManifoldEdge(f"half-edge ({f}, {s}) out of range")
            if (f, s) in seen:
                raise NonManifoldEdge(f"half-edge ({f}, {s}) paired twice")
            seen.add((f, s))
        c1, c2 = faces[f1], faces[f2]
        p1 = frozenset((c1[s1], c1[(s1 + 1) % len(c1)]))
        p2 = frozenset((c2[s2], c2[(s2 + 1) % len(c2)]))
        if p1 != p2 or len(p1) != 2:
            raise NonManifoldEdge(
                f"half-edges ({f1},{s1}) and ({f2},{s2}) traverse "
                f"different segments")
        pairs.append(tuple(sorted(p1)))
    total = sum(len(c) for c in faces)
    if 2 * len(edge_slots) != total:
        raise NonManifoldEdge("edge_slots do not cover every half-edge")
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i], edge_slots[i]))
    return tuple(edge_slots[i] for i in order), \
        tuple(pairs[i] for i in order)


def build_polyhedron(vertices, faces, tolerances: ToleranceSet = DEFAULT_TOLERANCES,
                     metadata: MeshMetadata | None = None,
                     edge_slots: EdgeSlots | None = None) -> Polyhedron:
    """Validate raw data and return an immutable Polyhedron.

    Checks: index ranges, cycle lengths, a closed pairing of face sides,
    face planarity/simplicity/area, distinct edge endpoints, no flat (pi)
    dihedral angles, and connectivity of the face-adjacency graph.
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

    cycles: list[tuple[int, ...]] = []
    for fi, cyc in enumerate(faces):
        cyc = tuple(int(v) for v in cyc)
        if len(cyc) < 3:
            raise DegenerateFace(f"face {fi} has fewer than 3 vertices")
        if len(set(cyc)) != len(cyc):
            raise DegenerateFace(f"face {fi} repeats a vertex")
        for v in cyc:
            if not 0 <= v < n:
                raise IndexOutOfRange(f"face {fi} references vertex {v}")
        cycles.append(cyc)

    if edge_slots is None:
        slots, pairs = _derive_edge_slots(cycles)
    else:
        slots, pairs = _validate_edge_slots(cycles, edge_slots)

    used = set()
    for cyc in cycles:
        used.update(cyc)
    if used != set(range(n)):
        missing = sorted(set(range(n)) - used)
        raise IndexOutOfRange(f"vertices {missing} appear in no face")

    poly = Polyhedron(pts.copy(), tuple(cycles), pairs, slots,
                      metadata or MeshMetadata())
    geo = poly.geometry
    scale = geo.scale
    for (u, v) in set(pairs):
        if np.linalg.norm(pts[u] - pts[v]) <= tolerances.length * scale:
            raise DegenerateFace(f"edge ({u}, {v}) has coincident endpoints")

    for fi, frame in enumerate(geo.frames):
        if frame.residual > tolerances.planarity * scale:
            raise DegenerateFace(
                f"face {fi} deviates {frame.residual:.2e} from planarity")
        if geo.area[fi] <= tolerances.length * scale * scale:
            raise DegenerateFace(f"face {fi} has near-zero area")
        if not _geom.polygon_is_simple(frame.polygon):
            raise DegenerateFace(f"face {fi} is not a simple polygon")

    flat = flat_edges(poly, tolerances, poly.metadata.seam_edges)
    if flat:
        raise FlatEdge(f"edge {poly.edges[flat[0]]} has dihedral angle pi")

    if 0 in poly.orientation[0]:
        raise DisconnectedSurface("face-adjacency graph is disconnected")
    return poly


def _orientation_signs(p: Polyhedron) -> tuple[list[int], bool]:
    """Propagate a face orientation from face 0 over the adjacency graph.

    Returns each face's sign (+1 keep cycle, -1 reversed, 0 unreached, so
    the surface is disconnected) and whether any two signs conflicted.
    """
    sign = [0] * p.n_faces
    sign[0] = 1
    stack = [0]
    conflict = False
    edges_of: list[list[int]] = [[] for _ in range(p.n_faces)]
    for e in range(p.n_edges):
        f1, f2 = p.edge_faces(e)
        edges_of[f1].append(e)
        edges_of[f2].append(e)
    while stack:
        f = stack.pop()
        for e in edges_of[f]:
            f1, f2 = p.edge_faces(e)
            side = 0 if f == f1 else 1
            g = f2 if side == 0 else f1
            d_f = p.edge_direction(e, side)
            d_g = p.edge_direction(e, 1 - side)
            # consistent orientation: the two (sign-adjusted) cycles must
            # traverse the shared edge in opposite directions
            need = -sign[f] * d_f * d_g
            if sign[g] == 0:
                sign[g] = need
                stack.append(g)
            elif sign[g] != need:
                conflict = True
    return sign, conflict


def euler_characteristic(p: Polyhedron) -> int:
    return p.n_vertices - p.n_edges + p.n_faces


def is_orientable(p: Polyhedron) -> bool:
    """Propagate a face orientation over the adjacency graph; orientable iff
    no conflict arises.  Raises DisconnectedSurface on multi-component input.
    """
    sign, conflict = p.orientation
    if 0 in sign:
        raise DisconnectedSurface("cannot orient a disconnected surface")
    return not conflict


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
