"""Topology-changing operations: connected sum along congruent faces, and
drilling a regular prism tunnel between two parallel faces."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import (AmbiguousCorrespondence, AxisObstructed, BadOrder,
                     BadParameters, FlatEdge, FlatSeam, FootprintTooLarge,
                     HoleNotInside, IndexOutOfRange, NonNegativeChi,
                     NotInteger, NotIsometric, SelfCrossingPartition)
from .mesh import (_PLANES, LENGTH_TOL, Combinatorics, MeshData,
                   MeshGeometry, Polyhedron, _checked_corners,
                   _checked_vertices, _corner_layout, _Corners, _finite,
                   _index, _integer, _mesh, _newell, _record,
                   build_polyhedron, euler_characteristic, replace_meta)

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


def _alignments(cycle2: tuple[int, ...]):
    for base in (tuple(cycle2), tuple(reversed(cycle2))):
        for shift in range(len(base)):
            yield base[shift:] + base[:shift]


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


def _resolved(p1: MeshData, p2: MeshData, corr: FaceCorrespondence
              ) -> tuple[tuple[int, ...], tuple[int, int]]:
    """resolve_correspondence's mapping, and its alignment with face2's
    cycle (see _alignment)."""
    c1 = p1.faces[corr.face1]
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

    # the larger of the two meshes' tolerance scales (MeshGeometry.scale)
    tol = LENGTH_TOL * max(_geom.tolerance_scale(p1.vertices),
                           _geom.tolerance_scale(p2.vertices)) * 10
    len1 = _cycle_lengths(p1.vertices[list(c1)])
    found = []
    for cand in _alignments(c2):
        len2 = _cycle_lengths(p2.vertices[list(cand)])
        if np.maximum.reduce(np.abs(len1 - len2)) < tol:
            found.append(cand)
    if not found:
        raise NotIsometric("no isometric alignment of the two face cycles")
    if len(found) > 1:
        raise AmbiguousCorrespondence(
            f"{len(found)} isometric alignments; pass an explicit mapping")
    return found[0], _alignment(found[0], c2)


def resolve_correspondence(p1: MeshData, p2: MeshData,
                           corr: FaceCorrespondence) -> tuple[int, ...]:
    """The face2 vertex ids aligned with face1's stored cycle."""
    return _resolved(p1, p2, corr)[0]


def _parts(p: Polyhedron | MeshData) -> MeshData:
    """p's parts with their edge cells."""
    if isinstance(p, Polyhedron):
        return MeshData(p.vertices, p.faces, p.metadata, p.geometry.cells)
    return _mesh(p, raw=True).paired()


class _Side(NamedTuple):
    """A piece's side of a seam (see _piece_side): the resolved mapping;
    the piece's block of half-edge rows, with the piece face ids to be
    shifted where `shift` is 1, and the count of its kept rows; whether
    every seam place has a half-edge beyond face2; the vertices off
    face2, as a list and an array; and the faces but face2."""
    mapping: tuple[int, ...]
    block: np.ndarray
    shift: np.ndarray
    n_kept: int
    complete: bool
    fresh: list[int]
    fresh_rows: np.ndarray
    keep: list[int]


def _piece_side(b: MeshData, face2: int, mapping: tuple[int, ...],
                start: int, step: int) -> _Side:
    """What a glue step reads of its piece b, glued along face2 by the
    mapping, which runs from `start` in face2's cycle by `step` (see
    _alignment): the same for every step that glues one piece so.

    The block holds the rows the step appends to the half-edge table: the
    r half-edges of the piece's cells that do not cross face2, in cell
    order, then per seam place i the half-edge beyond face1 (row r + 2i,
    which the step fills in) and the one beyond face2 (row r + 2i + 1).
    Every cell through face2 leaves one half-edge beyond the seam, its
    partner (row ^ 1); side s of face2 sits at the place whose mapped
    segment it is."""
    k = len(mapping)
    halves = b.cells.reshape(-1, 2)
    at2 = (halves[:, 0] == face2).nonzero()[0]
    own = np.empty(len(b.cells), dtype=bool)
    own.fill(True)
    own[at2 >> 1] = False
    kept = halves.reshape(-1, 4)[own].reshape(-1, 2)
    r = len(kept)
    block = np.empty((r + 2 * k, 2), dtype=np.intp)
    block.fill(-1)
    block[:r] = kept
    beyond = block[r + 1::2]
    beyond[_side_place(halves[at2, 1], start, step, k)] = halves[at2 ^ 1]
    complete = bool(np.minimum.reduce(beyond, axis=None) >= 0)
    block[r::2] = 0
    shift = np.zeros_like(block)
    shift[:r, 0] = shift[r + 1::2, 0] = 1
    mapped = set(mapping)
    fresh = [v for v in range(len(b.vertices)) if v not in mapped]
    return _Side(mapping, block, shift, r, complete, fresh,
                 np.array(fresh, dtype=np.intp),
                 [i for i in range(len(b.faces)) if i != face2])


def glue(first: Polyhedron | MeshData,
         steps: Sequence[tuple[Polyhedron | MeshData, FaceCorrespondence]]
         ) -> MeshData:
    """The parts of a chain of connected sums, not yet validated: at each
    step, remove the two corresponding faces, rigidly move the piece so
    the cycles coincide, and identify them vertex by vertex.

    Each step's corr.face1 is a face of the mesh glued so far and
    corr.face2 one of its piece; the result is that of gluing the steps
    one at a time, each onto the result of the one before.  Any mesh may
    be a validated mesh or raw MeshData, such as an earlier glue's result,
    so a chain of sums is validated once, by build_glued at its end.  The
    glue checks only that a step's correspondence is a FaceCorrespondence
    (BadParameters), that its two face ids are faces of their meshes
    (IndexOutOfRange) and that the two faces are congruent (NotIsometric
    beyond the rigid-fit residual); they never reach a result.  Each step
    lowers chi by 2.  The edge-cell pairing is carried through explicitly,
    so segments of two pieces that come to share both endpoints remain
    distinct 1-cells.

    The faces sit in one list, each with a stable id, from which a step
    deletes its face1 and to which it appends its piece's faces.  The
    cells are kept as half-edge rows (face, slot) in stable ids, two to a
    cell, in one table sized from the faces' lengths, in the order the
    one-at-a-time glues leave them: the first mesh's, then each step's
    piece and seam cells.  A mask marks the cells a step replaces as
    dead, and an index, per stable face and slot, holds the row of each
    live half-edge.  So a step reads face1's k rows in the index and
    writes the rows of the half-edges it places, its piece's and the k
    its seam cells move, in one block.  A piece's side of the seam
    (_piece_side), with the correspondence it resolves, is worked out
    once per distinct piece, face2 and mapping in a call, so a chain of
    one block does it once.  The live cells are renumbered to face places
    once, at the end.
    """
    a = _parts(first)
    if not steps:
        return a
    n = len(a.vertices)
    verts = np.empty((n + sum(len(p.vertices) for p, _ in steps), 3))
    verts[:n] = a.vertices
    faces = list(a.faces)
    ids = list(range(len(faces)))          # stable id of the face at each place
    n_ids = len(faces)
    lens = [list(map(len, faces))] + [list(map(len, p.faces))
                                      for p, _ in steps]
    half = np.empty((sum(map(sum, lens)), 2), dtype=np.intp)
    top = 2 * len(a.cells)                 # rows filled so far
    half[:top] = a.cells.reshape(-1, 2)
    live = np.empty(len(half) // 2, dtype=bool)
    live.fill(True)
    row_of = np.empty((sum(map(len, lens)),
                       max(max(sizes, default=0) for sizes in lens)),
                      dtype=np.intp)
    row_of.fill(-1)
    row_of[half[:top, 0], half[:top, 1]] = np.arange(top)
    sides: dict[tuple, tuple[_Side, MeshData]] = {}
    seams = set(a.metadata.seam_edges)
    provenance = []
    for piece, corr in steps:
        b = _parts(piece)
        _record(corr, FaceCorrespondence, "the correspondence")
        _index(corr.face1, len(faces), "face")
        _index(corr.face2, len(b.faces), "face")
        c1 = faces[corr.face1]
        # the piece's side, keyed by the parts it reads and the mapping,
        # as given or else as resolved; an entry holds b, so that no id in
        # a key is reused within the call
        key = (id(b.faces), id(b.cells), len(b.vertices), corr.face2)
        try:
            side = sides.get(key + (corr.mapping,), (None,))[0]
        except TypeError:                   # a mapping that is no key
            side = None
        if side is None or len(side.mapping) != len(c1):
            mapping, at = _resolved(MeshData(verts[:n], faces, a.metadata),
                                    b, corr)
            side = sides.get(key + (mapping,), (None,))[0]
            if side is None:
                side = _piece_side(b, corr.face2, mapping, *at)
                sides[key + (mapping,)] = side, b
        mapping = side.mapping
        k = len(c1)
        src = b.vertices[list(mapping)]
        dst = verts[list(c1)]
        rot, tr = _geom.kabsch(src, dst)
        resid = float(np.maximum.reduce(
            np.abs(rot @ src.T + tr[:, None] - dst.T), axis=None))
        if resid > 1e-9 * _geom.tolerance_scale(dst):
            raise NotIsometric(
                f"cycles are not congruent (rigid-fit residual {resid:.2e})")
        row1 = row_of[ids[corr.face1], :k]
        if np.minimum.reduce(row1) < 0 or not side.complete:
            raise NotIsometric("seam pairing incomplete")

        # b's vertices: the seam ones become face1's, the rest are appended
        new_id = [0] * len(b.vertices)
        for v, w in zip(mapping, c1):
            new_id[v] = int(w)
        for i, v in enumerate(side.fresh, start=n):
            new_id[v] = i
        m = len(side.fresh)
        verts[n:n + m] = ((rot @ b.vertices.T).T + tr)[side.fresh_rows]
        n += m

        del faces[corr.face1], ids[corr.face1]
        faces += [tuple(map(new_id.__getitem__, b.faces[i]))
                  for i in side.keep]
        ids += [n_ids + i for i in side.keep]

        # the piece's cells but those through face2, then the seam cells,
        # which replace those through face1; the index follows each
        # half-edge placed
        end = top + len(side.block)
        block = half[top:end]
        np.multiply(side.shift, n_ids, out=block)
        block += side.block
        block[side.n_kept::2] = half[row1 ^ 1]
        row_of[block[:, 0], block[:, 1]] = np.arange(top, end)
        top = end
        live[row1 >> 1] = False
        n_ids += len(b.faces)

        for (u, w) in b.metadata.seam_edges:
            u, w = new_id[u], new_id[w]
            seams.add((u, w) if u < w else (w, u))
        provenance.append(
            f"connect_sum(face {corr.face1} ~ face {corr.face2})")

    place = np.empty(n_ids, dtype=np.intp)
    place[ids] = np.arange(len(ids))
    out = half[:top].reshape(-1, 4)[live[:top // 2]]
    out[:, 0::2] = place[out[:, 0::2]]
    meta = replace_meta(a.metadata, seam_edges=seams, genus=None,
                        orientable=None)
    meta.provenance += provenance
    return MeshData(verts[:n], faces, meta, out)


def build_glued(data: MeshData) -> Polyhedron:
    """Validate glued parts in full (build_polyhedron with their edge
    cells); a flat edge, which a seam can make, raises FlatSeam."""
    try:
        return build_polyhedron(data.vertices, data.faces, data.metadata,
                                edge_slots=data.cells)
    except FlatEdge as exc:
        raise FlatSeam(str(exc)) from exc


def connect_sum(p1: Polyhedron, p2: Polyhedron,
                corr: FaceCorrespondence) -> Polyhedron:
    """The connected sum of p1 and p2 along corresponding faces (see
    glue), validated in full."""
    return build_glued(glue(_mesh(p1), [(_mesh(p2), corr)]))


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


def _spokes(part: list[tuple[int, ...]], first_ring: int
            ) -> set[tuple[int, int]]:
    """The seams of a retiled face: its spokes, the sides that join a
    vertex of the pierced face (an id below first_ring) to a ring vertex.
    Each piece of a retiling has two, and each spoke is the side two
    neighbouring pieces share; the outer and hole sides are one piece's
    each."""
    out = set()
    for sub in part:
        u = sub[-1]
        for w in sub:
            if (u < first_ring) != (w < first_ring):
                out.add((u, w) if u < w else (w, u))
            u = w
    return out


def _raw(p: Polyhedron | MeshData) -> tuple[MeshData, MeshGeometry]:
    """p's parts and their geometry, whose Newell frames place the drilled
    vertices: a validated mesh lends its own.  Raw vertices and faces are
    first checked as build_polyhedron checks them, so that every face can
    be fitted; a Combinatorics record for their vertex count lends its
    checked corners, as it does to build_polyhedron."""
    if isinstance(_mesh(p, raw=True), Polyhedron):
        return MeshData(p.vertices, p.faces, p.metadata), p.geometry
    pts = _checked_vertices(p.vertices)
    faces = p.faces
    if isinstance(faces, Combinatorics) and faces.n_vertices == len(pts):
        corners = faces.corners
    else:
        corners = _checked_corners(faces, len(pts))
    return p._replace(vertices=pts), MeshGeometry(pts, corners)


def _coordinates(point) -> bool:
    """Whether point is a sequence or flat array of three finite real
    numbers."""
    flat = isinstance(point, Sequence) or (
        isinstance(point, np.ndarray) and point.ndim == 1)
    return flat and len(point) == 3 and all(map(_finite, point))


def _check_spec(geo: MeshGeometry, spec: DrillSpec) -> None:
    """Reject a spec that no axis placement mends: bad face ids, a bad
    placement (a phase, radius or point that is not finite real numbers,
    a point that is not three of them, or a radius that is not positive)
    or order, a face pierced twice, a mesh with doubled segments, and a
    pierced face of zero vector area, whose normal is NaN."""
    _record(spec, DrillSpec, "the drill spec")
    for f in (spec.face1, spec.face2):
        _index(f, len(geo.face_size), "face")
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
    if geo.doubled:
        raise AxisObstructed(
            "drilling meshes with doubled segments is not supported")
    for f in (spec.face1, spec.face2):
        if not geo.area[f] > 0:
            raise AxisObstructed(f"pierced face {f} has zero area")


def _axis(geo: MeshGeometry, spec: DrillSpec):
    """The axis: entry point, depth along face2's normal, and entry and
    exit clearances in the pierced faces; it must join the interiors of
    two parallel faces apart (AxisObstructed)."""
    f1, f2 = spec.face1, spec.face2
    faces = np.array([f1, f2])
    c1, c2, n2 = geo.centroid[f1], geo.centroid[f2], geo.normal[f2]
    if abs(abs(float(geo.normal[f1] @ n2)) - 1.0) > 1e-9:
        raise AxisObstructed("pierced faces are not parallel")
    p1pt = c1 if spec.point is None else np.asarray(spec.point, float)
    # the exit point: the entry point projected onto face2's plane
    depth = float((p1pt - c2) @ n2)
    d1, d2 = geo.inside_clearance(
        faces, np.array([p1pt, p1pt - depth * n2])).tolist()
    if not d1 > AXIS_CLEARANCE * geo.scale:
        raise AxisObstructed("axis point is not interior to face1")
    if abs(depth) < 1e-9 * geo.scale:
        raise AxisObstructed("pierced faces are coplanar")
    if not d2 > AXIS_CLEARANCE * geo.scale:
        raise AxisObstructed("axis exit point is not interior to face2")
    return p1pt, depth, d1, d2


def _in_planes(vertices: np.ndarray, corners: _Corners, normal: np.ndarray,
               heights: tuple[float, float], scale: float) -> np.ndarray:
    """Per plane normal . x = height and face laid out in `corners`:
    whether the face is in the plane, every corner within 1e-7 * scale of
    its height."""
    along = vertices.take(corners.vertex, axis=0) @ normal
    return np.maximum.reduceat(
        np.abs(along - np.asarray(heights)[:, None]), corners.start,
        axis=1) <= 1e-7 * scale


class _Stack:
    """The tracked faces of one length k (see _Drilling), one row each per
    plane it lies in: its face id, that plane (0 or 1), its centroid and
    (u, v) frame, its (k, 2) polygon in that frame and whether it is
    live, and the count of live rows.  Rows are appended into arrays
    whose room doubles."""

    PARTS = ("face", "plane", "centroid", "u", "v", "polygon", "live")

    def __init__(self, k: int):
        self.m = self.n_live = 0
        for name, shape, kind in zip(self.PARTS, ((), (), (3,), (3,), (3,),
                                                  (k, 2), ()),
                                     (np.intp, np.intp, float, float, float,
                                      float, bool)):
            setattr(self, name, np.empty((4,) + shape, kind))

    def add(self, *rows) -> range:
        """Append rows of every part but `live`; they are live."""
        a = self.m
        self.m = b = a + len(rows[0])
        self.n_live += b - a
        if b > len(self.face):
            for name in self.PARTS:
                old = getattr(self, name)
                new = np.empty((max(2 * len(old), b),) + old.shape[1:],
                               old.dtype)
                new[:a] = old[:a]
                setattr(self, name, new)
        for name, part in zip(self.PARTS, rows + (True,)):
            getattr(self, name)[a:b] = part
        return range(a, b)


class _Drilling:
    """The parts of a chain of drills on one mesh, append-only, so that a
    step costs what it adds (see drill_repeat).

    Vertices and faces have stable ids: the mesh's own, then each step's
    prism rings, and its pieces and prism walls, appended in order.  A
    pierced face is marked dead, so the live faces in id order are the
    face list that the drills leave one at a time, and a face's place in
    it is its id less the dead ids below it.  Seams and provenance are
    appended too, and the parts are assembled once (parts).

    The mesh's own faces keep the planes of its geometry.  The faces a
    step makes are fitted alone, by one Newell pass over their corners
    (_newell), which gives them the bits a fit of every face would, when
    the next step locates (_fit), so the last step's never are.  For
    location (track, locate) only the faces in the two pierced planes
    are kept, stacked by length with their frames and polygons: the
    mesh's own faces are tested once, and each step tests the faces it
    makes (_in_planes).  A step whose prism rings raise the tolerance
    scale tests every live face again, as the wider band may take in
    faces it left out.
    """

    def __init__(self, data: MeshData, geo: MeshGeometry):
        self.metadata = data.metadata
        self.vertices = data.vertices       # copied into room on first write
        self.n = self.fitted = len(self.vertices)
        self.faces = list(data.faces)       # by stable id
        self.dead: list[int] = []           # sorted
        self.seams = set(data.metadata.seam_edges)
        self.provenance: list[str] = []
        self.scale = geo.scale
        # per step its first face id, and the corners and planes of the
        # faces it made; the mesh's own faces are step 0's
        self.firsts = [0]
        self.fits = [(_Corners(geo.face_size, geo.face_start,
                               geo.corner_vertex, geo.corner_face,
                               geo.next_corner),
                      tuple(getattr(geo, name) for name in _PLANES))]
        self.stacks: dict[int, _Stack] | None = None
        self.rows: dict[int, list[tuple[_Stack, int]]] = {}

    def place(self, f: int) -> int:
        """The place of the live face f in the face list."""
        return f - bisect_left(self.dead, f)

    def frame(self, f: int) -> tuple[np.ndarray, ...]:
        """Face f's centroid, normal, u and v."""
        s = bisect_right(self.firsts, f) - 1
        centroid, normal, _, u, v, _, _ = self.fits[s][1]
        i = f - self.firsts[s]
        return centroid[i], normal[i], u[i], v[i]

    def track(self, normal: np.ndarray, heights: tuple[float, float]
              ) -> None:
        """Keep, from now on, the live faces in the planes normal . x =
        height for the two heights, for locate."""
        self.normal, self.heights, self.stacks, self.rows = \
            normal, heights, {}, {}
        for first, fit in zip(self.firsts, self.fits):
            self._stack(first, *fit, live=bool(self.dead))

    def _stack(self, first: int, corners: _Corners, planes: tuple,
               live: bool = False) -> None:
        """Stack the faces laid out in `corners`, ids from `first` on, that
        are in a tracked plane, with their `planes`; with `live`, only the
        live ones."""
        which, at = _in_planes(self.vertices, corners, self.normal,
                               self.heights, self.scale).nonzero()
        if live:
            keep = ~np.isin(at + first, self.dead)
            which, at = which[keep], at[keep]
        centroid, _, _, u, v, uv, _ = planes
        size = corners.size[at]
        lengths = set(size.tolist())
        for k in lengths:
            # all the faces, or those of length k
            rows = slice(None) if len(lengths) == 1 else size == k
            f = at[rows]
            ids = f + first
            stack = self.stacks.get(k) or self.stacks.setdefault(k, _Stack(k))
            added = stack.add(ids, which[rows], centroid.take(f, axis=0),
                              u.take(f, axis=0), v.take(f, axis=0), uv.take(
                                  corners.start[f][:, None] + np.arange(k),
                                  axis=0))
            for face, row in zip(ids.tolist(), added):
                self.rows.setdefault(face, []).append((stack, row))

    def _fit(self) -> None:
        """Fit and stack the faces of the last step, which is done when it
        is located in (the last step of a chain never is); a step whose
        prism rings raise the tolerance scale stacks every live face
        again."""
        first, n = self.firsts[-1], self.n
        corners = _corner_layout(self.faces[first:])
        self.fits[-1] = corners, _newell(self.vertices, corners)
        scale = max(self.scale, _geom.tolerance_scale(
            self.vertices[self.fitted:n]))
        self.fitted = n
        if scale > self.scale:
            self.scale = scale
            self.track(self.normal, self.heights)
        else:
            self._stack(first, *self.fits[-1])

    def locate(self, points: np.ndarray) -> list[tuple[int | None, float]]:
        """Per point, in the tracked plane at its place: the first live face
        in face order that holds it inside, by _axis's bound, and its
        clearance to that face's boundary; (None, 0.0) where no face does.
        Each point is projected into every face's frame of its plane, but
        its boundary distance is measured only where the face's polygon
        winds around it, as MeshGeometry.inside_clearance would give it."""
        if self.fits[-1] is None:
            self._fit()
        best: list[tuple[int | None, float]] = [(None, 0.0), (None, 0.0)]
        bound = AXIS_CLEARANCE * self.scale
        for stack in self.stacks.values():
            if not stack.n_live:
                continue
            m = stack.m
            plane = stack.plane[:m]
            q = _geom.project_2d(points.take(plane, axis=0)[:, None],
                                 stack.centroid[:m], stack.u[:m],
                                 stack.v[:m])[:, 0]
            poly = stack.polygon[:m]
            rows = (_geom.winds_around(q, poly) & stack.live[:m]).nonzero()[0]
            if not rows.size:
                continue
            clearance = _geom.dist_point_polygon_boundary(
                q.take(rows, axis=0), poly.take(rows, axis=0))
            for i, f, c in zip(plane.take(rows).tolist(),
                               stack.face.take(rows).tolist(),
                               clearance.tolist()):
                if c > bound and (best[i][0] is None or f < best[i][0]):
                    best[i] = (f, c)
        return best

    def pierce(self, f1: int, f2: int, n: int, phase: float, axis: tuple,
               radius: float | None) -> None:
        """Drill faces f1 and f2, along the axis _axis gives, with a prism
        of n sides and circumradius `radius` (by default a quarter of the
        smaller clearance): the two prism rings, both pierced faces
        retiled in one call, each over its own and its ring's vertices
        with the seams between the pieces, and the walls; face1's errors
        come before face2's.  The pieces of f1 and of f2 and the walls
        are appended, and f1 and f2 die."""
        p1pt, depth, d1, d2 = axis
        _, _, u1, v1 = self.frame(f1)
        n2 = self.frame(f2)[1]
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

        base1 = self.n
        self.n = base1 + 2 * n
        if self.n > len(self.vertices):
            grown = np.empty((max(2 * len(self.vertices), self.n), 3))
            grown[:base1] = self.vertices[:base1]
            self.vertices = grown
        self.vertices[base1:base1 + n] = ring1
        self.vertices[base1 + n:self.n] = ring2
        first = len(self.faces)
        for cyc, base, local in zip(cycles, (base1, base1 + n), parts):
            # the local ids index the face's cycle and then its ring
            ids = list(cyc) + list(range(base, base + n))
            part = [tuple(map(ids.__getitem__, sub)) for sub in local]
            self.faces += part
            self.seams.update(_spokes(part, base1))
        self.faces += [(base1 + j, base1 + (j + 1) % n,
                        base1 + n + (j + 1) % n, base1 + n + j)
                       for j in range(n)]
        self.provenance.append(
            f"drill(n={n}, faces=({self.place(f1)},{self.place(f2)}), "
            f"eps={eps:.6g})")
        for f in (f1, f2):
            insort(self.dead, f)
            for stack, row in self.rows.pop(f, ()):
                stack.live[row] = False
                stack.n_live -= 1

        self.firsts.append(first)
        self.fits.append(None)

    def parts(self) -> MeshData:
        """The mesh's parts: its vertices, its live faces in order, and its
        metadata with the seams and provenance of the drills and no
        genus."""
        ends = [-1] + self.dead + [len(self.faces)]
        faces = [face for a, b in zip(ends, ends[1:])
                 for face in self.faces[a + 1:b]]
        meta = replace_meta(self.metadata, seam_edges=self.seams, genus=None)
        meta.provenance += self.provenance
        return MeshData(self.vertices[:self.n], faces, meta)


def pierce(data: MeshData, geo: MeshGeometry, spec: DrillSpec,
           axis: tuple) -> MeshData:
    """All of drill short of validation, on raw data whose geometry is
    `geo`, along the axis _axis gives for `spec`: one step of _Drilling.
    The parts keep the other faces first, in order, then face1's and
    face2's pieces and the walls."""
    drilling = _Drilling(data, geo)
    drilling.pierce(spec.face1, spec.face2, spec.n, spec.phase, axis,
                    spec.radius)
    return drilling.parts()


def drill(p: Polyhedron | MeshData, spec: DrillSpec) -> Polyhedron:
    """Tunnel a regular n-gonal prism between two parallel faces: pierce,
    then one full build_polyhedron.

    Adds 2n vertices of defect -2*pi/n each and lowers chi by 2.  The
    pierced faces are retiled over their existing vertices, so no other
    defect changes.  The axis may cross other faces of an immersed mesh;
    such crossings only add self-intersection witnesses.  A face id that
    is not a face of p raises IndexOutOfRange, a placement that is not
    finite real numbers (the point three of them) BadParameters.  p may be
    a validated mesh or raw MeshData.
    """
    data, geo = _raw(p)
    _check_spec(geo, spec)
    return build_polyhedron(*pierce(data, geo, spec, _axis(geo, spec)))


def drill_repeat(p: Polyhedron | MeshData, spec: DrillSpec,
                 k: int) -> Polyhedron:
    """Apply k parallel drills along offset copies of the axis.

    Axes are spread along a face-frame direction with spacing
    clearance/(2k); each subsequent drill locates the current sub-faces
    containing its axis's entry and exit points.  If an offset line
    degenerates against the evolving retiling (axis on a seam), the next
    of a fixed set of offset directions is tried.  A bad spec raises what
    drill raises, before any offset is tried.  p may be a validated mesh
    or raw MeshData.  The drills pierce raw data and the finished mesh is
    validated once; a sub-face a later drill pierces is never validated.
    The steps share one _Drilling, so each pays for what it adds: its
    rings, pieces and walls, their fit and their plane test, and the
    location of its two axis points among the faces of the two planes.
    """
    _mesh(p, raw=True)
    if not 1 <= _integer(k, "k", BadOrder) < 2 ** 63:
        raise BadOrder("k must be >= 1 and below 2**63")
    if k == 1:
        return drill(p, spec)
    data, geo = _raw(p)
    _check_spec(geo, spec)
    p1pt, _, d0, _ = _axis(geo, spec)
    c1, n1, u1, v1 = (a[spec.face1] for a in (geo.centroid, geo.normal,
                                              geo.u, geo.v))
    delta = d0 / (2 * k)
    heights = (float(n1 @ c1), float(n1 @ geo.centroid[spec.face2]))

    last_err: Exception | None = None
    for theta in (t * math.pi / 7 for t in range(7)):
        u_dir = math.cos(theta) * u1 + math.sin(theta) * v1
        drilling = _Drilling(data, geo)
        drilling.track(n1, heights)
        try:
            for j in range(k):
                axis_pt = p1pt + (j - (k - 1) / 2) * delta * u_dir
                exit_pt = axis_pt - (float(axis_pt @ n1) - heights[1]) * n1
                (f1, clr1), (f2, clr2) = drilling.locate(
                    np.array([axis_pt, exit_pt]))
                if f1 is None or f2 is None:
                    raise FootprintTooLarge(
                        f"drill {j + 1}/{k}: axis offset leaves the "
                        f"pierced faces")
                radius = spec.radius if spec.radius is not None else \
                    0.25 * min(clr1, clr2, delta / 2)
                # the planes are those _axis checked; only depth is new
                c2, n2, _, _ = drilling.frame(f2)
                depth = float((axis_pt - c2) @ n2)
                drilling.pierce(f1, f2, spec.n, spec.phase,
                                (axis_pt, depth, clr1, clr2), radius)
        except (FootprintTooLarge, AxisObstructed,
                SelfCrossingPartition) as exc:
            last_err = exc
        else:
            return build_polyhedron(*drilling.parts())
    raise FootprintTooLarge(
        f"no workable offset direction for {k} parallel drills: {last_err}")
