"""Topology-changing operations: connected sum along congruent faces,
drilling a regular prism tunnel between two parallel faces, and the
recipes that chain them: a base and its steps, assembled and built once
(assemble, construct, counts)."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import (AmbiguousCorrespondence, AxisObstructed, BadOrder,
                     BadParameters, FlatEdge, FlatSeam, FootprintTooLarge,
                     HoleNotInside, IndexOutOfRange, NonNegativeChi,
                     NotInteger, NotIsometric, SelfCrossingPartition)
from .mesh import (LENGTH_TOL, Combinatorics, MeshData, Polyhedron,
                   _check_fields, _checked_parts, _clearance,
                   _corner_layout, _derived_cells, _finite, _index,
                   _integer, _mesh, _newell, _record, build_polyhedron,
                   euler_characteristic)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# connected sum


@dataclass(frozen=True)
class FaceCorrespondence:
    """Gluing data for a connected sum.

    face1, face2 : face ids in the two meshes
    mapping      : optional explicit bijection, given as the vertex ids of
                   face2 aligned position-by-position with face1's stored
                   cycle.  When absent, all cyclic alignments of both
                   directions are searched for a unique isometric one.
    """
    face1: int
    face2: int
    mapping: tuple[int, ...] | None = None


def _cycle_lengths(pts: np.ndarray) -> np.ndarray:
    return _geom.linalg_norm(_geom._succ(pts) - pts)


def _alignment(mapping: Sequence[int], cycle: Sequence[int]
               ) -> tuple[int, int] | None:
    """Where `mapping`, k entries like `cycle`, starts in `cycle` and
    which way it runs: (start, step) with mapping[i] ==
    cycle[(start + step * i) % k] for every i, step 1 tried first; None
    when mapping is none of the 2k rotations of the cycle or of its
    reverse."""
    k = len(cycle)
    for step in (1, -1):
        for start in range(k):
            if cycle[start] == mapping[0] and all(
                    mapping[i] == cycle[(start + step * i) % k]
                    for i in range(1, k)):
                return start, step
    return None


def _side_place(side, start: int, step: int, k: int):
    """The place i of the aligned cycle (see _alignment) whose segment,
    mapping[i] to mapping[i + 1], is side `side` of the cycle, which joins
    cycle[side] to cycle[side + 1]; `side` may be an index array."""
    if step > 0:
        return (side - start) % k
    return (start - 1 - side) % k


def _resolved(pts1: np.ndarray, c1: Sequence[int], p2: MeshData,
              corr: FaceCorrespondence
              ) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The face2 vertex ids aligned with face1's cycle c1, whose mesh has
    the vertices pts1, and their alignment with face2's cycle (see
    _alignment): corr's mapping, checked, or else the one isometric
    alignment of the two cycles."""
    c2 = p2.faces[corr.face2]
    if len(c1) != len(c2):
        raise NotIsometric("face cycles have different lengths")

    if corr.mapping is not None:
        try:
            entries = iter(corr.mapping)
        except TypeError:
            raise IndexOutOfRange(
                f"mapping {corr.mapping!r} is not a sequence") from None
        mapping = tuple(_integer(v, "mapping entry", IndexOutOfRange)
                        for v in entries)
        if sorted(mapping) != sorted(c2):
            raise NotIsometric("mapping is not a bijection onto face2")
        at = _alignment(mapping, c2)
        if at is None:
            raise NotIsometric("mapping does not respect the face2 cycle")
        return mapping, at

    # the larger of the two meshes' tolerance scales, of their vertices
    tol = LENGTH_TOL * max(_geom.tolerance_scale(pts1),
                           _geom.tolerance_scale(p2.vertices)) * 10
    len1 = _cycle_lengths(pts1[list(c1)])
    k, found = len(c2), []
    for step in (1, -1):                # the 2k alignments, as _alignment
        for start in range(k):
            cand = tuple(c2[(start + step * i) % k] for i in range(k))
            len2 = _cycle_lengths(p2.vertices[list(cand)])
            if np.maximum.reduce(np.abs(len1 - len2)) < tol:
                found.append((cand, (start, step)))
    if not found:
        raise NotIsometric("no isometric alignment of the two face cycles")
    if len(found) > 1:
        raise AmbiguousCorrespondence(
            f"{len(found)} isometric alignments; pass an explicit mapping")
    return found[0]


def _checked(p: Polyhedron | MeshData) -> MeshData:
    """p's parts, whose faces are their Combinatorics record: a validated
    mesh lends its own, and raw data is checked by build_polyhedron's
    entry checks (_checked_parts)."""
    if isinstance(_mesh(p, raw=True), Polyhedron):
        return MeshData(p.vertices, p.combinatorics, p.metadata)
    return _checked_parts(*p)


class _Side(NamedTuple):
    """A piece's side of a seam (see _piece_side): the piece's block of
    half-edge rows and the count of its kept rows, the vertices off
    face2, in id order, and the faces but face2."""
    block: np.ndarray
    n_kept: int
    fresh: list[int]
    keep: list[int]


def _piece_side(b: MeshData, face2: int, mapping: tuple[int, ...],
                start: int, step: int) -> _Side:
    """What a glue step reads of its piece b, checked parts (_checked),
    glued along face2 by the mapping, which runs from `start` in face2's
    cycle by `step` (see _alignment): the same for every step that glues
    one record so.

    The block holds the rows the step appends to the half-edge rows: the
    r half-edges of the record's cells that do not cross face2, in cell
    order, then per seam place i the half-edge beyond face1 (row r + 2i,
    which the step fills in) and the one beyond face2 (row r + 2i + 1).
    Every cell through face2 leaves one half-edge beyond the seam, its
    partner (row ^ 1); side s of face2 sits at the place whose mapped
    segment it is.  The faces but face2 are numbered from 0 in order."""
    k = len(mapping)
    cells = b.faces.cells
    halves = cells.reshape(-1, 2)
    at2 = (halves[:, 0] == face2).nonzero()[0]
    own = np.empty(len(cells), dtype=bool)
    own.fill(True)
    own[at2 >> 1] = False
    kept = halves.reshape(-1, 4)[own].reshape(-1, 2)
    r = len(kept)
    block = np.empty((r + 2 * k, 2), dtype=np.intp)
    block.fill(-1)
    block[:r] = kept
    beyond = block[r + 1::2]
    beyond[_side_place(halves[at2, 1], start, step, k)] = halves[at2 ^ 1]
    block[:, 0] -= block[:, 0] > face2
    mapped = set(mapping)
    fresh = [v for v in range(len(b.vertices)) if v not in mapped]
    return _Side(block, r, fresh,
                 [i for i in range(len(b.faces)) if i != face2])


def glue(first: Polyhedron | MeshData,
         steps: Sequence[tuple[Polyhedron | MeshData, FaceCorrespondence]]
         ) -> MeshData:
    """The parts of a chain of connected sums, not yet validated: at each
    step, remove the two corresponding faces, rigidly move the piece so
    the cycles coincide, and identify them vertex by vertex (assemble of
    glue steps alone).

    Each step's corr.face1 is a face of the mesh glued so far and
    corr.face2 one of its piece; the result is that of gluing the steps
    one at a time, each onto the result of the one before.  Any mesh may
    be a validated mesh or raw MeshData, such as an earlier glue's result.
    The glue checks only that a step's correspondence is a
    FaceCorrespondence (BadParameters), that its two face ids are faces
    of their meshes (IndexOutOfRange) and that the two faces are
    congruent (NotIsometric beyond the rigid-fit residual), and it checks
    raw data as build_polyhedron does on entry (_checked_parts); the
    faces never reach a result.  Each step lowers chi by 2.  The
    edge-cell pairing is carried through explicitly, so segments of two
    pieces that come to share both endpoints remain distinct 1-cells.
    """
    return assemble(first, steps)


def connect_sum(p1: Polyhedron, p2: Polyhedron,
                corr: FaceCorrespondence) -> Polyhedron:
    """The connected sum of p1 and p2 along corresponding faces (see
    glue), validated in full (construct)."""
    return construct(_mesh(p1), [(_mesh(p2), corr)])


# ---------------------------------------------------------------------------
# drilling

# how far inside its pierced face an axis point must lie, times mesh scale
AXIS_CLEARANCE = 1e-9


@dataclass(frozen=True)
class DrillSpec:
    """Placement of one prism tunnel.

    face1, face2 : parallel pierced faces
    n            : prism order (>= 3)
    point        : axis base point in face1's interior; face1 centroid when
                   omitted
    radius       : prism circumradius; a safe radius is chosen when omitted
    phase        : angular offset of the first prism vertex in the face frame
    """
    face1: int
    face2: int
    n: int
    point: tuple[float, float, float] | None = None
    radius: float | None = None
    phase: float = 0.0


def choose_prism_order(p: Polyhedron) -> int:
    """Prism order -V/chi that keeps the defect constant under drilling."""
    chi = euler_characteristic(_mesh(p))
    if chi >= 0:
        raise NonNegativeChi(f"chi = {chi} must be negative")
    if p.n_vertices % (-chi) != 0:
        raise NotInteger(f"chi = {chi} does not divide V = {p.n_vertices}")
    return p.n_vertices // (-chi)


def retile_pierced_face(outer: np.ndarray, hole: np.ndarray
                        ) -> list[list[int]]:
    """Partition the annulus between an outer polygon and a strictly
    interior hole polygon into simple faces using only existing vertices.

    Both arguments are coplanar 3D cycles; the outer face must be
    star-shaped about the hole centre.  Returned cycles index the
    concatenation [outer, hole].  Equal vertex counts give a spoke
    partition into quads; otherwise a radial angular sweep produces
    triangles.  An argument that is not three or more 3D points raises
    BadParameters.
    """
    return _retile([_cycle(outer, "outer")], [_cycle(hole, "hole")])[0]


def _cycle(points, what: str) -> np.ndarray:
    """points as a (k, 3) float array, k >= 3, else BadParameters."""
    try:
        pts = np.asarray(points, float)
    except (TypeError, ValueError, OverflowError):  # not floats, or ragged
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise BadParameters(
            f"{what} polygon {points!r} is not three or more 3D points")
    return pts


def _retile(outers: list[np.ndarray], holes: list[np.ndarray]
            ) -> list[list[list[int]]]:
    """retile_pierced_face of each (outer, hole) pair, in order, so the
    first pair that fails raises its error.  Pairs that all have one shape
    share one stack for the plane fit, the projections, the hole test and
    the polygon areas, in which each gets the bits it gets alone; the
    partition is built per pair."""
    # measured gain: construct-chain +8.7% without the one-stack path
    if len({(len(o), len(h)) for o, h in zip(outers, holes)}) > 1:
        return [_retile_stack(o[None], h[None])[0]
                for o, h in zip(outers, holes)]
    return _retile_stack(np.array(outers), np.array(holes))


def _retile_stack(outer: np.ndarray, hole: np.ndarray
                  ) -> list[list[list[int]]]:
    """_retile of an (m, ko, 3) stack of outer cycles and an (m, kh, 3)
    stack of holes."""
    c, n, resid = _geom.plane_fit(np.concatenate([outer, hole], axis=1))
    scale = _geom.tolerance_scale(outer, axis=(1, 2))
    u, v = _geom.plane_basis(n)
    o2 = _geom.project_2d(outer, c, u, v)
    h2 = _geom.project_2d(hole, c, u, v)
    # every hole vertex at once, at least 1e-12 * scale inside (NaN fails)
    inside = np.logical_and.reduce(_geom.inside_clearance(h2, o2[:, None])
                                   >= 1e-12 * scale[:, None], axis=1)
    area_o, area_h = _geom.polygon_area_2d(o2), _geom.polygon_area_2d(h2)
    centre = np.add.reduce(h2, axis=1) / h2.shape[1]
    out = []
    for i in range(len(outer)):
        if resid[i] > 1e-9 * scale[i]:
            raise HoleNotInside("hole is not coplanar with the outer face")
        if not inside[i]:
            raise HoleNotInside("hole not strictly inside the outer polygon")
        out.append(_partition(o2[i], h2[i], area_o[i], area_h[i],
                              centre[i], float(scale[i])))
    return out


def _partition(o2: np.ndarray, h2: np.ndarray, area_o, area_h,
               centre: np.ndarray, scale: float) -> list[list[int]]:
    """The partition of one annulus, given in its plane's frame with the
    signed areas of its two cycles and the hole's vertex mean."""
    ko, kh = len(o2), len(h2)
    # counterclockwise index sequences over the original cycles
    o_seq = list(range(ko)) if area_o > 0 else list(reversed(range(ko)))
    h_seq = list(range(kh)) if area_h > 0 else list(reversed(range(kh)))
    # angles about the centre, on Python floats
    o_rel, h_rel = (o2 - centre).tolist(), (h2 - centre).tolist()
    ang_o = [math.atan2(o_rel[i][1], o_rel[i][0]) % TAU for i in o_seq]
    ang_h = [math.atan2(h_rel[j][1], h_rel[j][0]) % TAU for j in h_seq]

    def spoke_quads():
        def mismatch(s):
            return sum(min((ang_o[(t + s) % ko] - ang_h[t]) % TAU,
                           (ang_h[t] - ang_o[(t + s) % ko]) % TAU)
                       for t in range(kh))
        s = min(range(ko), key=mismatch)
        return [[o_seq[(t + s) % ko], o_seq[(t + s + 1) % ko],
                 ko + h_seq[(t + 1) % kh], ko + h_seq[t]]
                for t in range(kh)]

    def sweep_triangles():
        # Assign each hole edge to the outer corner nearest the edge's
        # angular midpoint; corner-to-corner transitions are bridged at
        # the shared hole vertex.  Every spoke then stays close to its
        # hole vertex and clear of the hole polygon.
        mu = [(ang_h[j] + 0.5 * ((ang_h[(j + 1) % kh] - ang_h[j]) % TAU))
              % TAU for j in range(kh)]
        owner = []
        for m in mu:
            # the first outer corner at the least circular distance, as
            # min(range(ko), key=...) picks it
            best = least = None
            for t, a in enumerate(ang_o):
                d = (a - m) % TAU
                if TAU - d < d:
                    d = TAU - d
                if least is None or d < least:
                    best, least = t, d
            owner.append(best)
        out: list[list[int]] = []
        for j in range(kh):
            jn = (j + 1) % kh
            out.append([o_seq[owner[j]], ko + h_seq[jn], ko + h_seq[j]])
            t = owner[j]
            while t != owner[jn]:
                nt = (t + 1) % ko
                out.append([o_seq[t], o_seq[nt], ko + h_seq[jn]])
                t = nt
        return out

    all2 = np.concatenate((o2, h2))
    annulus_area = abs(area_o) - abs(area_h)

    def valid(faces_local):
        # a partition is all quads or all triangles: one area call, and a
        # triangle is always simple
        pts = all2.take(np.array(faces_local), axis=0)
        area = np.abs(_geom.polygon_area_2d(pts))
        if np.logical_or.reduce(area < 1e-12 * scale * scale):
            return False
        if pts.shape[1] > 3 and not all(map(_geom.polygon_is_simple, pts)):
            return False
        total = 0.0
        for a in area.tolist():     # summed in face order, as one at a time
            total += a
        # exact partitions tile the annulus; any overlap inflates the sum
        return abs(total - annulus_area) < 1e-9 * scale * scale

    faces_local = spoke_quads() if ko == kh else None
    if faces_local is None or not valid(faces_local):
        faces_local = sweep_triangles()
    if not valid(faces_local):
        raise SelfCrossingPartition("degenerate sub-face in retiling")
    return faces_local


def _fitted(vertices: np.ndarray, cycles) -> tuple:
    """The corner layout of the face cycles and their planes, in _PLANES
    order: one Newell pass over those faces alone (_newell), which gives
    each the bits of a fit of every face of its mesh."""
    corners = _corner_layout(cycles)
    return corners, _newell(vertices, corners)


def _coordinates(point) -> bool:
    """Whether point is a sequence or flat array of three finite real
    numbers."""
    flat = isinstance(point, Sequence) or (
        isinstance(point, np.ndarray) and point.ndim == 1)
    return flat and len(point) == 3 and all(map(_finite, point))


def _check_spec(n_faces: int, spec: DrillSpec) -> None:
    """Reject a spec that no axis placement mends: bad face ids of a mesh
    of n_faces faces, a bad placement (a phase, radius or point that is
    not finite real numbers, a point that is not three of them, or a
    radius that is not positive) or order, and a face pierced twice."""
    _record(spec, DrillSpec, "the drill spec")
    for f in (spec.face1, spec.face2):
        _index(f, n_faces, "face")
    point = spec.point
    if not (_finite(spec.phase)
            and (spec.radius is None or _finite(spec.radius))
            and (point is None or _coordinates(point))):
        raise BadParameters(
            f"drill placement must be finite numbers, the point three of "
            f"them: phase {spec.phase!r}, radius {spec.radius!r}, "
            f"point {point!r}")
    if spec.radius is not None and spec.radius <= 0:
        raise BadParameters(f"prism radius {spec.radius} must be positive")
    if not 3 <= _integer(spec.n, "prism order", BadOrder) < 2 ** 63:
        raise BadOrder(f"prism order {spec.n} is not in 3..2**63-1")
    if spec.face1 == spec.face2:
        raise AxisObstructed("face1 and face2 must differ")


def _axis(fit: tuple, scale: float, spec: DrillSpec):
    """The axis: entry point, depth along face2's normal, and entry and
    exit clearances in the pierced faces, whose fit (_fitted) holds
    face1 and then face2, in a mesh of tolerance scale `scale`; it must
    join the interiors of two parallel faces apart, neither of zero
    vector area, whose normal is NaN (AxisObstructed)."""
    corners, planes = fit
    centroid, normal, area = planes[0], planes[1], planes[6]
    for f, a in zip((spec.face1, spec.face2), area.tolist()):
        if not a > 0:
            raise AxisObstructed(f"pierced face {f} has zero area")
    c1, c2, n2 = centroid[0], centroid[1], normal[1]
    if abs(abs(float(normal[0] @ n2)) - 1.0) > 1e-9:
        raise AxisObstructed("pierced faces are not parallel")
    p1pt = c1 if spec.point is None else np.asarray(spec.point, float)
    # the exit point: the entry point projected onto face2's plane
    depth = float((p1pt - c2) @ n2)
    d1, d2 = _clearance(np.array([p1pt, p1pt - depth * n2]), np.arange(2),
                        corners, planes).tolist()
    if not d1 > AXIS_CLEARANCE * scale:
        raise AxisObstructed("axis point is not interior to face1")
    if abs(depth) < 1e-9 * scale:
        raise AxisObstructed("pierced faces are coplanar")
    if not d2 > AXIS_CLEARANCE * scale:
        raise AxisObstructed("axis exit point is not interior to face2")
    return p1pt, depth, d1, d2


def _room(a: np.ndarray, n: int, fill=0) -> np.ndarray:
    """a when it has n rows or more, else a copy with room for n and at
    least twice its rows, the new ones `fill`.  A record's arrays start
    full, so it copies one it was lent before it writes to it."""
    if n <= len(a):
        return a
    out = np.empty((max(2 * len(a), n),) + a.shape[1:], a.dtype)
    out[:len(a)] = a
    out[len(a):] = fill
    return out


class _Surgery:
    """The parts of a chain of surgery steps on one mesh, append-only, so
    that a step costs what it adds: a recipe's connected sums and prism
    tunnels (assemble) write this one half-edge store (Kettner 1999).  It
    starts from checked parts (_checked), whose record pairs every
    half-edge.

    Vertices and faces have stable ids, the mesh's own and then each
    step's.  A step takes the faces it consumes out of the live ids,
    which stay in id order: the face list the steps leave one at a time.
    The cells are half-edge rows (face, slot), two to a cell, in the
    order the steps leave them; a mask marks those a step replaces, and
    an index holds each live half-edge's row.  The parts are assembled
    once (parts).

    Every record has one shape.  It holds its mesh's tolerance scale
    (scale) and no geometry: each location fits the faces it tests, and
    no other (_fitted).  Per drill step it keeps, for each of its two
    planes, the face it pierced and the ids of that face's pieces, which
    are all quads or all triangles (cuts, empty until a drill); location
    (locate) reads only those pieces, so a chain's location is linear in
    its steps.
    """

    def __init__(self, data: MeshData):
        record = data.faces
        self.metadata = data.metadata
        self.vertices = data.vertices       # copied into room on first write
        self.n = len(self.vertices)
        self.faces = list(record)           # by stable id
        self.live = list(range(len(self.faces)))
        self.half = record.cells.reshape(-1, 2)     # as the vertices
        self.top = len(self.half)
        self.live_cells = np.ones(len(record.cells), dtype=bool)
        width = max(map(len, self.faces), default=0)
        self.row_of = np.full((len(self.faces), width), -1, dtype=np.intp)
        self.row_of[self.half[:, 0], self.half[:, 1]] = np.arange(self.top)
        self.seams = set(data.metadata.seam_edges)
        self.unknown = {"genus": None}      # the fields the steps unset
        self.provenance: list[str] = []
        self.scale = _geom.tolerance_scale(data.vertices)
        self.cuts: list[tuple[tuple[int, range], tuple[int, range]]] = []

    def _add(self, half: np.ndarray, at, old: np.ndarray) -> None:
        """Append the half-edge rows `half`, two to a cell, those at `at`
        the partners of the half-edges in rows `old`, whose cells die, and
        index them."""
        half[at] = self.half[old ^ 1]
        self.live_cells[old >> 1] = False
        wider = int(np.maximum.reduce(half[:, 1])) + 1 - self.row_of.shape[1]
        if wider > 0:
            self.row_of = np.concatenate((self.row_of, np.full(
                (len(self.row_of), wider), -1, np.intp)), axis=1)
        self.row_of = _room(self.row_of, len(self.faces), -1)
        top, self.top = self.top, self.top + len(half)
        self.half = _room(self.half, self.top)
        self.live_cells = _room(self.live_cells, self.top // 2, True)
        self.half[top:self.top] = half
        self.row_of[half[:, 0], half[:, 1]] = np.arange(top, self.top)

    def _add_vertices(self, points: np.ndarray) -> int:
        """Append the points; the id of the first."""
        n, self.n = self.n, self.n + len(points)
        self.vertices = _room(self.vertices, self.n)
        self.vertices[n:self.n] = points
        return n

    def parts(self, **meta) -> MeshData:
        """The mesh's parts: its vertices, live faces and live cells, their
        faces renumbered to places, and its metadata with the steps' seams
        and provenance, no genus (and no orientability once a glue ran),
        and the fields `meta` names replaced, those among them."""
        place = np.empty(len(self.faces), dtype=np.intp)
        place[self.live] = np.arange(len(self.live))
        cells = self.half[:self.top].reshape(-1, 4)[
            self.live_cells[:self.top // 2]]
        cells[:, 0::2] = place[cells[:, 0::2]]
        meta = replace(self.metadata, **{
            "seam_edges": self.seams, **self.unknown,
            "provenance": (*self.metadata.provenance, *self.provenance),
            **meta})
        return MeshData(self.vertices[:self.n],
                        list(map(self.faces.__getitem__, self.live)), meta,
                        cells)

    def glue(self, b: MeshData, corr: FaceCorrespondence, sides: dict
             ) -> None:
        """One connected sum (see glue): piece b, checked parts (_checked),
        glued by corr, whose mapping every step resolves (_resolved).  The
        piece's side of the seam is read from `sides`, a call's table by
        piece record, face2 and resolved mapping, or worked out
        (_piece_side) and put there."""
        _record(corr, FaceCorrespondence, "the correspondence")
        face1 = _index(corr.face1, len(self.live), "face")
        _index(corr.face2, len(b.faces), "face")
        c1 = self.faces[self.live[face1]]
        mapping, at = _resolved(self.vertices[:self.n], c1, b, corr)
        key = b.faces, corr.face2, mapping
        side = sides.get(key)
        if side is None:
            side = sides[key] = _piece_side(b, corr.face2, mapping, *at)
        src = b.vertices[list(mapping)]
        dst = self.vertices[list(c1)]
        rot, tr = _geom.kabsch(src, dst)
        resid = float(np.maximum.reduce(
            np.abs(rot @ src.T + tr[:, None] - dst.T), axis=None))
        if resid > 1e-9 * _geom.tolerance_scale(dst):
            raise NotIsometric(
                f"cycles are not congruent (rigid-fit residual {resid:.2e})")
        row1 = self.row_of[self.live[face1], :len(c1)]

        # b's vertices: the seam ones become face1's, the rest are appended
        new_id = [0] * len(b.vertices)
        for v, w in zip(mapping, c1):
            new_id[v] = int(w)
        for i, v in enumerate(side.fresh, start=self.n):
            new_id[v] = i
        self._add_vertices(((rot @ b.vertices.T).T + tr)[side.fresh])

        first = len(self.faces)
        self.faces += [tuple(map(new_id.__getitem__, b.faces[i]))
                       for i in side.keep]
        del self.live[face1]
        self.live += range(first, len(self.faces))
        # the piece's cells but those through face2, then the seam cells,
        # each of the partners of a half-edge of face1 and of face2
        self._add(side.block + (first, 0), slice(side.n_kept, None, 2), row1)

        self.seams.update((new_id[u], new_id[w])
                          for u, w in b.metadata.seam_edges)
        self.unknown["orientable"] = None   # a sum may change it
        self.provenance.append(
            f"connect_sum(face {corr.face1} ~ face {corr.face2})")

    def locate(self, points: np.ndarray, roots: tuple[int, int],
               fit: tuple) -> list[tuple]:
        """Per plane i, the face that holds points[i] inside, by _axis's
        bound, its clearance to that face's boundary and its centroid,
        normal, u and v, or (None, 0.0, None) where none does: face
        roots[i], whose fit (_fitted, as _axis reads it) is `fit`, until a
        step pierces it, and then a piece of a face pierced in its plane.
        The pieces of the last cut of both planes are fitted and tested
        first, in one stack; a plane whose point they miss walks back
        through the cuts before, one level at a time, and tests each
        level's pieces but those a later cut pierced: leaving a level,
        the walk adds the faces its cut pierced to one dead set, so a
        location costs what the levels it reads hold.  Each point's
        clearance in its candidates is mesh._clearance's; the least such
        face wins."""
        best: list[tuple] = [(None, 0.0, None), (None, 0.0, None)]
        bound = AXIS_CLEARANCE * self.scale
        dead: set[int] = set()
        levels = [tuple((f, range(f, f + 1)) for f in roots), *self.cuts]
        for cut in reversed(levels):
            want = [i for i in (0, 1) if best[i][0] is None]
            if not want:
                break
            rows = [(i, f) for i in want for f in cut[i][1] if f not in dead]
            dead.update(f for f, _ in cut)
            if not rows:
                continue
            # live roots, both of them, are tested only before the first
            # cut; every other candidate is fitted here
            plane, faces = np.array(rows).T
            corners, planes = fit if not self.cuts else _fitted(
                self.vertices, [self.faces[f] for f in faces.tolist()])
            centroid, normal, _, u, v, _, _ = planes
            clearance = _clearance(points[plane], np.arange(len(faces)),
                                   corners, planes).tolist()
            for at, (i, f, c) in enumerate(zip(plane.tolist(),
                                               faces.tolist(), clearance)):
                if c > bound and (best[i][0] is None or f < best[i][0]):
                    best[i] = (f, c, (centroid[at], normal[at], u[at], v[at]))
        return best

    def pierce(self, f1: int, f2: int, n: int, phase: float, axis: tuple,
               radius: float | None, u1: np.ndarray, v1: np.ndarray,
               n2: np.ndarray) -> None:
        """Drill faces f1 and f2, along the axis _axis gives, with a prism
        of n sides and circumradius `radius` (by default a quarter of the
        smaller clearance), its first ring in f1's (u1, v1) frame and its
        second that ring moved by depth along f2's normal n2: the two
        prism rings, both pierced faces retiled in one call, each over
        its own and its ring's vertices, and the walls; face1's errors
        come before face2's.  The pieces of f1 and of f2 and the walls
        are appended with their cells and the seams between the pieces,
        and f1 and f2 die."""
        p1pt, depth, d1, d2 = axis
        eps = radius if radius is not None else 0.25 * min(d1, d2)
        if eps <= 0 or eps >= min(d1, d2):
            raise FootprintTooLarge(
                f"prism radius {eps:.3g} does not fit (clearances {d1:.3g}, "
                f"{d2:.3g})")

        angle = [TAU * j / n + phase for j in range(n)]
        cos = np.array([math.cos(t) for t in angle])[:, None]
        sin = np.array([math.sin(t) for t in angle])[:, None]
        ring1 = p1pt + eps * (cos * u1 + sin * v1)
        ring2 = ring1 - depth * n2
        cycles = (self.faces[f1], self.faces[f2])
        parts = _retile([self.vertices[list(cyc)] for cyc in cycles],
                        [ring1, ring2])

        base1 = self._add_vertices(np.concatenate((ring1, ring2)))
        first = len(self.faces)
        local = list(cycles)                # the pierced faces, then new
        for cyc, base, part in zip(cycles, (base1, base1 + n), parts):
            # the local ids index the face's cycle and then its ring
            ids = list(cyc) + list(range(base, base + n))
            local += [tuple(map(ids.__getitem__, sub)) for sub in part]
        local += [(base1 + j, base1 + (j + 1) % n, base1 + n + (j + 1) % n,
                   base1 + n + j) for j in range(n)]
        self.faces += local[2:]

        # the local faces' cells by vertex pair, a pierced face's half-edges
        # replaced by their partners; the seams are the spokes, the cells
        # that join a vertex of a pierced face to a ring vertex
        cells, ends = _derived_cells(_corner_layout(local))
        half = cells.reshape(-1, 2)
        pierced = half[:, 0] < 2
        old = self.row_of[[f1, f2]][tuple(half[pierced].T)]
        half[:, 0] += first - 2
        self._add(half, pierced, old)
        self.seams.update((u, w) for u, w in ends.tolist() if u < base1 <= w)

        at1, at2 = bisect_left(self.live, f1), bisect_left(self.live, f2)
        self.provenance.append(
            f"drill(n={n}, faces=({at1},{at2}), eps={eps:.6g})")
        del self.live[max(at1, at2)], self.live[min(at1, at2)]
        self.live += range(first, len(self.faces))
        split = first + len(parts[0])
        self.cuts.append(((f1, range(first, split)),
                          (f2, range(split, split + len(parts[1])))))


def drill(p: Polyhedron | MeshData, spec: DrillSpec) -> Polyhedron:
    """Tunnel a regular n-gonal prism between two parallel faces: one
    step of a _Surgery record (_Surgery.pierce), then one full
    build_polyhedron on its parts and edge cells (construct).

    Adds 2n vertices of defect -2*pi/n each and lowers chi by 2.  The
    pierced faces are retiled over their existing vertices, so no other
    defect changes.  The axis may cross other faces of an immersed mesh;
    such crossings only add self-intersection witnesses.  A face id that
    is not a face of p raises IndexOutOfRange, a placement that is not
    finite real numbers (the point three of them) BadParameters.  p may be
    a validated mesh or raw MeshData, which is first checked as
    build_polyhedron checks it on entry (_checked_parts).
    """
    return construct(p, [Drill(spec)])


def drill_repeat(p: Polyhedron | MeshData, spec: DrillSpec,
                 k: int) -> Polyhedron:
    """Apply k parallel drills along offset copies of the axis.

    Axes are spread along a face-frame direction with spacing
    clearance/(2k); each subsequent drill pierces the piece of face1, and
    the piece of face2, that holds its axis's entry or exit point.  If an
    offset line degenerates against the evolving retiling (axis on a
    seam), the next of a fixed set of offset directions is tried.  A bad
    spec raises what drill raises, before any offset is tried.  p may be
    a validated mesh or raw MeshData, checked as drill checks it.  The
    drills pierce raw data (_drill_chain), fitting only the faces they
    read: the spec's two faces, and at each later drill the pieces it
    locates among.  The finished mesh is validated once (construct); a
    sub-face a later drill pierces is never validated.
    """
    return construct(p, [Drill(spec, k)])


def _drill_chain(p: Polyhedron | MeshData, spec: DrillSpec,
                 k: int) -> _Surgery:
    """The _Surgery record of drill_repeat(p, spec, k), k >= 1, whose
    parts are the drilled mesh, as a Drill step of assemble: one record
    per offset direction tried, on which each step pays for what it adds
    (its rings, pieces, walls and cells) and for locating its two axis
    points among the pieces of the step before (_Surgery.locate).  The
    spec's two faces are fitted once (_fitted), for the axis and the
    first step's location, and no other face of p is; the axis checks
    use the chain's one tolerance scale, that of p's vertices, which the
    first record holds (_Surgery.scale).  When every direction fails,
    the FootprintTooLarge raised is caused by the last direction's
    error."""
    data = _checked(p)
    _check_spec(len(data.faces), spec)
    roots = spec.face1, spec.face2
    fit = _fitted(data.vertices, [data.faces[f] for f in roots])
    record = _Surgery(data)
    axis = _axis(fit, record.scale, spec)
    centroid, normal, _, u, v, _, _ = fit[1]
    if k == 1:
        record.pierce(*roots, spec.n, spec.phase, axis, spec.radius, u[0],
                      v[0], normal[1])
        return record
    p1pt, _, d0, _ = axis
    n1, u1, v1 = normal[0], u[0], v[0]
    delta = d0 / (2 * k)
    exit_height = float(n1 @ centroid[1])

    last_err: Exception | None = None
    for theta in (t * math.pi / 7 for t in range(7)):
        u_dir = math.cos(theta) * u1 + math.sin(theta) * v1
        try:
            for j in range(k):
                axis_pt = p1pt + (j - (k - 1) / 2) * delta * u_dir
                exit_pt = axis_pt - (float(axis_pt @ n1) - exit_height) * n1
                (f1, clr1, frame1), (f2, clr2, frame2) = record.locate(
                    np.array([axis_pt, exit_pt]), roots, fit)
                if f1 is None or f2 is None:
                    raise FootprintTooLarge(
                        f"drill {j + 1}/{k}: axis offset leaves the "
                        f"pierced faces")
                radius = spec.radius if spec.radius is not None else \
                    0.25 * min(clr1, clr2, delta / 2)
                # the planes are those _axis checked; only depth is new
                c2, n2, _, _ = frame2
                depth = float((axis_pt - c2) @ n2)
                record.pierce(f1, f2, spec.n, spec.phase,
                              (axis_pt, depth, clr1, clr2), radius,
                              *frame1[2:], n2)
        except (FootprintTooLarge, AxisObstructed,
                SelfCrossingPartition) as exc:
            last_err = exc
            record = _Surgery(data)     # the next direction starts afresh
        else:
            return record
    raise FootprintTooLarge(
        f"no workable offset direction for {k} parallel drills: {last_err}"
    ) from last_err


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class Drill:
    """A drill step of a recipe (see assemble): k >= 1 parallel drills of
    the spec, as drill_repeat makes them."""
    spec: DrillSpec
    k: int = 1


def _steps(steps: Sequence) -> Iterator[tuple[object, bool]]:
    """A recipe's steps, in order, each with whether it is a glue step, a
    two-item (piece, FaceCorrespondence) tuple or list, and not a Drill:
    steps that are no sequence raise BadParameters before the first, and
    a step that is neither where the walk reaches it."""
    if not isinstance(steps, Sequence):
        raise BadParameters(f"the steps, a {type(steps).__name__}, are "
                            "not a sequence")
    for i, step in enumerate(steps):
        glued = isinstance(step, (tuple, list)) and len(step) == 2
        if not (glued or isinstance(step, Drill)):
            raise BadParameters(
                f"step {i}, a {type(step).__name__}, is neither a Drill nor "
                "a (piece, FaceCorrespondence) pair")
        yield step, glued


def assemble(base: Polyhedron | MeshData, steps: Sequence, **meta
             ) -> MeshData:
    """The parts of a recipe, not yet validated: its base, a validated
    mesh or raw MeshData, and then its steps in order, with the
    metadata fields `meta` names replaced.  A glue step is the (piece,
    FaceCorrespondence) pair that glue takes; a Drill step pierces the
    parts assembled so far, or the base itself, with one drill chain
    (_drill_chain, which raises what drill_repeat raises; a k that is no
    integer in 1..2**63-1 raises BadOrder).  A base that is no mesh, a
    name in `meta` that is no metadata field (_check_fields) or steps
    that are no sequence raise BadParameters before any step, and a step
    that is neither a Drill nor a pair where it comes (_steps).

    The glue steps write one _Surgery record, and a drill chain starts a
    record of its own, on which later glue steps write.  The base and
    each distinct piece are checked once in a call (_checked).  Every
    glue step resolves its correspondence (_resolved), and the call
    keeps one table of seam sides (_piece_side), keyed by the piece's
    Combinatorics record, face2 and the resolved mapping, so a chain of
    one block works each out once.  Raw data's explicit cells are read
    in the record's order, which the build sorts them into.  A step
    leaves the genus unset, and a glue step the orientability, unless
    `meta` names them; a recipe of no steps is its checked base.
    """
    _mesh(base, raw=True)
    _check_fields(meta)
    # per distinct mesh, by id, the mesh and its checked parts, an entry
    # holding what its key names so that no id is reused; the seam sides,
    # whose keys hold their piece records
    checked: dict[int, tuple[object, MeshData]] = {}
    sides: dict[tuple[Combinatorics, int, tuple[int, ...]], _Side] = {}

    def piece_of(p) -> MeshData:
        """p's checked parts."""
        if id(p) not in checked:
            checked[id(p)] = p, _checked(p)
        return checked[id(p)][1]

    record = None
    for step, glued in _steps(steps):
        if glued:
            record = record or _Surgery(piece_of(base))
            record.glue(piece_of(step[0]), step[1], sides)
        elif not 1 <= _integer(step.k, "k", BadOrder) < 2 ** 63:
            raise BadOrder("k must be >= 1 and below 2**63")
        else:
            record = _drill_chain(base if record is None else record.parts(),
                                  step.spec, step.k)
    if record is not None:
        return record.parts(**meta)
    parts = piece_of(base)
    return parts._replace(metadata=replace(parts.metadata, **meta))


def construct(base: Polyhedron | MeshData, steps: Sequence, **meta
              ) -> Polyhedron:
    """The recipe's mesh: its parts (assemble), with the metadata fields
    `meta` names, validated in full by one build_polyhedron with their
    edge cells.  A flat edge, which a seam can make, raises FlatSeam
    where a glue step ran, else FlatEdge."""
    try:
        return build_polyhedron(*assemble(base, steps, **meta))
    except FlatEdge as exc:
        if all(isinstance(step, Drill) for step in steps):
            raise
        raise FlatSeam(str(exc)) from exc


def counts(base: Polyhedron | MeshData, steps: Sequence) -> tuple[int, int]:
    """The vertex count V and Euler characteristic chi of the recipe's
    mesh, read off face lists alone, before any geometry, and unchecked
    but for the shape of the steps, which raises assemble's BadParameters
    (_steps): the base's V and V - corners/2 + F; a glue of a piece on a
    k-gon adds V(piece) - k vertices and changes chi by chi(piece) - 2,
    and a Drill step adds 2nk vertices and lowers chi by 2k."""
    def euler(p) -> int:
        return len(p.vertices) - sum(map(len, p.faces)) // 2 + len(p.faces)

    v, chi = len(base.vertices), euler(base)
    for step, glued in _steps(steps):
        if glued:       # a piece on a k-gon
            v += len(step[0].vertices) - len(step[0].faces[step[1].face2])
            chi += euler(step[0]) - 2
        else:
            v, chi = v + 2 * step.spec.n * step.k, chi - 2 * step.k
    return v, chi
