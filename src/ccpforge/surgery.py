"""Topology-changing operations: connected sum along congruent faces, and
drilling a regular prism tunnel between two parallel faces."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _geom
from .errors import (AmbiguousCorrespondence, AxisObstructed, BadOrder,
                     BadParameters, FlatEdge, FlatSeam, FootprintTooLarge,
                     HoleNotInside, IndexOutOfRange, NonNegativeChi,
                     NotInteger, NotIsometric, SelfCrossingPartition)
from .mesh import (LENGTH_TOL, MeshData, MeshGeometry, Polyhedron,
                   _corner_layout, build_polyhedron, euler_characteristic,
                   replace_meta)

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
    return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


def _alignments(cycle2: tuple[int, ...]):
    for base in (tuple(cycle2), tuple(reversed(cycle2))):
        for shift in range(len(base)):
            yield base[shift:] + base[:shift]


def resolve_correspondence(p1: MeshData, p2: MeshData,
                           corr: FaceCorrespondence) -> tuple[int, ...]:
    """The face2 vertex ids aligned with face1's stored cycle."""
    c1 = p1.faces[corr.face1]
    c2 = p2.faces[corr.face2]
    if len(c1) != len(c2):
        raise NotIsometric("face cycles have different lengths")

    if corr.mapping is not None:
        mapping = tuple(int(v) for v in corr.mapping)
        if sorted(mapping) != sorted(c2):
            raise NotIsometric("mapping is not a bijection onto face2")
        if mapping not in set(_alignments(c2)):
            raise NotIsometric("mapping does not respect the face2 cycle")
        return mapping

    # the larger of the two meshes' tolerance scales (MeshGeometry.scale)
    tol = LENGTH_TOL * max(1.0, float(np.abs(p1.vertices).max()),
                           float(np.abs(p2.vertices).max())) * 10
    len1 = _cycle_lengths(p1.vertices[list(c1)])
    found = []
    for cand in _alignments(c2):
        len2 = _cycle_lengths(p2.vertices[list(cand)])
        if np.abs(len1 - len2).max() < tol:
            found.append(cand)
    if not found:
        raise NotIsometric("no isometric alignment of the two face cycles")
    if len(found) > 1:
        raise AmbiguousCorrespondence(
            f"{len(found)} isometric alignments; pass an explicit mapping")
    return found[0]


def _parts(p: Polyhedron | MeshData) -> MeshData:
    """p's parts with their edge cells."""
    if isinstance(p, Polyhedron):
        return MeshData(p.vertices, p.faces, p.metadata, p.geometry.cells)
    return p.paired()


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
    glue checks only that the two faces of a step are congruent
    (NotIsometric beyond the rigid-fit residual); they never reach a
    result.  Each step lowers chi by 2.  The edge-cell pairing is carried
    through explicitly, so segments of two pieces that come to share both
    endpoints remain distinct 1-cells.

    The faces sit in one list, each with a stable id, from which a step
    deletes its face1 and to which it appends its piece's faces.  The
    cells are kept as half-edge rows (face, slot) in stable ids, two to a
    cell, in one table sized from the faces' lengths, in the order the
    one-at-a-time glues leave them: the first mesh's, then each step's
    piece and seam cells.  A mask marks the cells a step replaces as
    dead, and a step finds face1's live half-edges in one pass over the
    rows glued so far.  The live cells are renumbered to face places
    once, at the end, so a step does only its correspondence, rigid fit
    and its piece's cells.
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
    half = np.empty((sum(map(len, faces)) + sum(
        sum(map(len, p.faces)) for p, _ in steps), 2), dtype=np.intp)
    top = 2 * len(a.cells)                 # rows filled so far
    half[:top] = a.cells.reshape(-1, 2)
    live = np.ones(len(half) // 2, dtype=bool)
    seams = set(a.metadata.seam_edges)
    provenance = []
    for piece, corr in steps:
        b = _parts(piece)
        mapping = resolve_correspondence(
            MeshData(verts[:n], faces, a.metadata), b, corr)
        c1 = faces[corr.face1]
        k = len(c1)
        src = b.vertices[list(mapping)]
        dst = verts[list(c1)]
        rot, tr = _geom.kabsch(src, dst)
        scale = max(1.0, float(np.abs(dst).max()))
        resid = float(np.abs(rot @ src.T + tr[:, None] - dst.T).max())
        if resid > 1e-9 * scale:
            raise NotIsometric(
                f"cycles are not congruent (rigid-fit residual {resid:.2e})")

        # Every cell through face1 or face2 leaves one half-edge beyond the
        # seam, its partner (row ^ 1); the two left at position i of
        # face1's cycle form that seam's cell.  Side s of face2 sits at the
        # position whose mapped segment it is.
        at1 = np.flatnonzero((half[:top, 0] == ids[corr.face1])
                             & live[:top // 2].repeat(2))
        row1 = np.full(k, -1, dtype=np.intp)
        row1[half[at1, 1]] = at1
        if (row1 < 0).any():
            raise NotIsometric("seam pairing incomplete")
        cyc2 = b.faces[corr.face2]
        seam_pos = {frozenset((mapping[i], mapping[(i + 1) % k])): i
                    for i in range(k)}
        pos2 = np.array([seam_pos[frozenset((cyc2[s], cyc2[(s + 1) % k]))]
                         for s in range(k)])
        piece_halves = b.cells.reshape(-1, 2) + (n_ids, 0)
        at2 = np.flatnonzero(piece_halves[:, 0] == n_ids + corr.face2)
        beyond2 = np.full((k, 2), -1, dtype=np.intp)
        beyond2[pos2[piece_halves[at2, 1]]] = piece_halves[at2 ^ 1]
        if (beyond2 < 0).any():
            raise NotIsometric("seam pairing incomplete")

        # b's vertices: the seam ones become face1's, the rest are appended
        new_id = np.full(len(b.vertices), -1, dtype=np.intp)
        new_id[list(mapping)] = c1
        fresh = new_id < 0
        m = np.count_nonzero(fresh)
        new_id[fresh] = n + np.arange(m)
        verts[n:n + m] = ((rot @ b.vertices.T).T + tr)[fresh]
        n += m
        new_id = new_id.tolist()

        del faces[corr.face1], ids[corr.face1]
        keep = [i for i in range(len(b.faces)) if i != corr.face2]
        faces += [tuple(map(new_id.__getitem__, b.faces[i])) for i in keep]
        ids += [n_ids + i for i in keep]
        n_ids += len(b.faces)

        # the piece's cells but those through face2, then the seam cells,
        # which replace those through face1
        own = np.ones(len(b.cells), dtype=bool)
        own[at2 >> 1] = False
        rows = piece_halves.reshape(-1, 4)[own].reshape(-1, 2)
        half[top:top + len(rows)] = rows
        top += len(rows)
        half[top:top + 2 * k:2] = half[row1 ^ 1]
        half[top + 1:top + 2 * k:2] = beyond2
        top += 2 * k
        live[row1 >> 1] = False

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
    return build_glued(glue(p1, [(p2, corr)]))


# ---------------------------------------------------------------------------
# drilling


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
    chi = euler_characteristic(p)
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
    triangles.
    """
    return _retile([np.asarray(outer, float)], [np.asarray(hole, float)])[0]


def _retile(outers: list[np.ndarray], holes: list[np.ndarray]
            ) -> list[list[list[int]]]:
    """retile_pierced_face of each (outer, hole) pair, in order, so the
    first pair that fails raises its error.  Pairs that all have one shape
    share one stack for the plane fit, the projections, the hole test and
    the polygon areas, in which each gets the bits it gets alone; the
    partition is built per pair."""
    if len({(len(o), len(h)) for o, h in zip(outers, holes)}) > 1:
        return [_retile_stack(o[None], h[None])[0]
                for o, h in zip(outers, holes)]
    return _retile_stack(np.stack(outers), np.stack(holes))


def _retile_stack(outer: np.ndarray, hole: np.ndarray
                  ) -> list[list[list[int]]]:
    """_retile of an (m, ko, 3) stack of outer cycles and an (m, kh, 3)
    stack of holes."""
    c, n, resid = _geom.plane_fit(np.concatenate([outer, hole], axis=1))
    scale = np.maximum(1.0, np.abs(outer).max(axis=(1, 2)))
    u, v = _geom.plane_basis(n)
    o2 = _geom.project_2d(outer, c, u, v)
    h2 = _geom.project_2d(hole, c, u, v)
    # every hole vertex at once: strictly inside (interior_clearance) and
    # clear of the boundary by 1e-12 * scale, which is the stricter bound
    # as scale >= 1; a NaN distance fails both
    clear = _geom.dist_point_polygon_boundary(h2, o2[:, None])
    inside = ((clear >= 1e-12 * scale[:, None])
              & _geom.winds_around(h2, o2[:, None])).all(axis=1)
    area_o, area_h = _geom.polygon_area_2d(o2), _geom.polygon_area_2d(h2)
    centre = h2.mean(axis=1)
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
    ang_o = [math.atan2(*(o2[i] - centre)[::-1]) % TAU for i in o_seq]
    ang_h = [math.atan2(*(h2[j] - centre)[::-1]) % TAU for j in h_seq]

    def spoke_quads():
        def mismatch(s):
            return sum(min((ang_o[(t + s) % ko] - ang_h[t]) % TAU,
                           (ang_h[t] - ang_o[(t + s) % ko]) % TAU)
                       for t in range(kh))
        s = min(range(ko), key=mismatch)
        return [[o_seq[(t + s) % ko], o_seq[(t + s + 1) % ko],
                 ko + h_seq[(t + 1) % kh], ko + h_seq[t]]
                for t in range(kh)]

    def circ_dist(a, b):
        d = (a - b) % TAU
        return min(d, TAU - d)

    def sweep_triangles():
        # Assign each hole edge to the outer corner nearest the edge's
        # angular midpoint; corner-to-corner transitions are bridged at
        # the shared hole vertex.  Every spoke then stays close to its
        # hole vertex and clear of the hole polygon.
        mu = [(ang_h[j] + 0.5 * ((ang_h[(j + 1) % kh] - ang_h[j]) % TAU))
              % TAU for j in range(kh)]
        owner = [min(range(ko), key=lambda t: circ_dist(ang_o[t], mu[j]))
                 for j in range(kh)]
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

    all2 = np.vstack([o2, h2])
    annulus_area = abs(area_o) - abs(area_h)

    def valid(faces_local):
        # a partition is all quads or all triangles: one area call, and a
        # triangle is always simple
        pts = all2[np.array(faces_local)]
        area = np.abs(_geom.polygon_area_2d(pts))
        if (area < 1e-12 * scale * scale).any():
            return False
        if pts.shape[1] > 3 and not all(map(_geom.polygon_is_simple, pts)):
            return False
        total = 0.0
        for a in area.tolist():     # summed in face order, as one at a time
            total += a
        # exact partitions tile the annulus; any overlap inflates the sum
        return abs(total - annulus_area) < 1e-9 * scale * scale

    if ko == kh:
        faces_local = spoke_quads()
        if not valid(faces_local):
            faces_local = sweep_triangles()
    else:
        faces_local = sweep_triangles()
    if not valid(faces_local):
        raise SelfCrossingPartition("degenerate sub-face in retiling")
    return faces_local


def _raw(p: Polyhedron | MeshData) -> tuple[MeshData, MeshGeometry]:
    """p's parts and a geometry of them: a validated mesh's own, or one
    that fits the planes of raw data's faces as they are asked for."""
    if isinstance(p, Polyhedron):
        return MeshData(p.vertices, p.faces, p.metadata), p.geometry
    return p, MeshGeometry(np.asarray(p.vertices, float),
                           _corner_layout(p.faces))


def _check_spec(geo: MeshGeometry, spec: DrillSpec) -> None:
    """Reject a spec that no axis placement mends: bad face ids, numbers
    (not finite, or a radius that is not positive) or order, a face
    pierced twice, and a mesh with doubled segments."""
    n_faces = len(geo.face_size)
    for f in (spec.face1, spec.face2):
        if not 0 <= f < n_faces:
            raise IndexOutOfRange(
                f"face {f} out of range: the mesh has {n_faces} faces")
    numbers = [spec.phase] + ([] if spec.radius is None else [spec.radius]) \
        + ([] if spec.point is None else list(spec.point))
    if not np.isfinite(np.asarray(numbers, dtype=float)).all():
        raise BadParameters(
            f"drill placement must be finite: phase {spec.phase}, "
            f"radius {spec.radius}, point {spec.point}")
    if spec.radius is not None and spec.radius <= 0:
        raise BadParameters(f"prism radius {spec.radius} must be positive")
    if spec.n < 3:
        raise BadOrder(f"prism order {spec.n} < 3")
    if spec.face1 == spec.face2:
        raise AxisObstructed("face1 and face2 must differ")
    if geo.doubled:
        raise AxisObstructed(
            "drilling meshes with doubled segments is not supported")


def _axis(geo: MeshGeometry, spec: DrillSpec):
    """The axis: entry point, depth along face2's normal, and entry and
    exit clearances in the pierced faces; it must join the interiors of
    two parallel faces apart (AxisObstructed)."""
    f1, f2 = spec.face1, spec.face2
    geo.fit(np.array([f1, f2]))
    c1, c2, n2 = geo.centroid[f1], geo.centroid[f2], geo.normal[f2]
    if abs(abs(float(geo.normal[f1] @ n2)) - 1.0) > 1e-9:
        raise AxisObstructed("pierced faces are not parallel")
    p1pt = c1 if spec.point is None else np.asarray(spec.point, float)
    q1 = _geom.project_2d(p1pt[None, :], c1, geo.u[f1], geo.v[f1])[0]
    poly1, poly2 = (geo.uv[geo.face_start[f] + np.arange(geo.face_size[f])]
                    for f in (f1, f2))
    d1 = _geom.interior_clearance(q1, poly1)
    if d1 is None:
        raise AxisObstructed("axis point is not interior to face1")
    # orthogonal projection onto face2's plane
    depth = float((p1pt - c2) @ n2)
    if abs(depth) < 1e-9 * geo.scale:
        raise AxisObstructed("pierced faces are coplanar")
    q2 = _geom.project_2d((p1pt - depth * n2)[None, :], c2, geo.u[f2],
                          geo.v[f2])[0]
    d2 = _geom.interior_clearance(q2, poly2)
    if d2 is None:
        raise AxisObstructed("axis exit point is not interior to face2")
    return p1pt, depth, d1, d2


def pierce(data: MeshData, geo: MeshGeometry, spec: DrillSpec
           ) -> tuple[MeshData, MeshGeometry]:
    """All of drill short of validation, on raw data whose geometry is
    `geo`: the two prism rings, both pierced faces retiled in one call,
    each over its own and its ring's vertices with the seams between the
    pieces, and the walls; face1's errors come before face2's.  Returns
    the parts and the next step's geometry: the kept faces come first, in
    order, with their planes from `geo`, then face1's and face2's pieces
    and the walls, left to fit.
    """
    p1pt, depth, d1, d2 = _axis(geo, spec)
    u1, v1, n2 = geo.u[spec.face1], geo.v[spec.face1], geo.normal[spec.face2]
    eps = spec.radius if spec.radius is not None else 0.25 * min(d1, d2)
    if eps <= 0 or eps >= min(d1, d2):
        raise FootprintTooLarge(
            f"prism radius {eps:.3g} does not fit (clearances {d1:.3g}, {d2:.3g})")

    angle = [TAU * j / spec.n + spec.phase for j in range(spec.n)]
    cos = np.array([math.cos(t) for t in angle])[:, None]
    sin = np.array([math.sin(t) for t in angle])[:, None]
    ring1 = p1pt + eps * (cos * u1 + sin * v1)
    ring2 = ring1 - depth * n2

    base1 = len(data.vertices)
    base2 = base1 + spec.n
    verts = np.vstack([data.vertices, ring1, ring2])

    faces = list(data.faces)
    del faces[max(spec.face1, spec.face2)], faces[min(spec.face1, spec.face2)]
    kept = len(faces)
    seams = set(data.metadata.seam_edges)
    cycles = (data.faces[spec.face1], data.faces[spec.face2])
    parts = _retile([data.vertices[list(cyc)] for cyc in cycles],
                    [ring1, ring2])
    for cyc, base, local in zip(cycles, (base1, base2), parts):
        part = [tuple(cyc[i] if i < len(cyc) else base + i - len(cyc)
                      for i in sub)
                for sub in local]
        faces.extend(part)
        count: dict[tuple[int, int], int] = {}
        for sub in part:
            for t in range(len(sub)):
                u, w = sub[t], sub[(t + 1) % len(sub)]
                key = (u, w) if u < w else (w, u)
                count[key] = count.get(key, 0) + 1
        seams.update(k for k, c in count.items() if c == 2)
    for j in range(spec.n):
        k = (j + 1) % spec.n
        faces.append((base1 + j, base1 + k, base2 + k, base2 + j))

    meta = replace_meta(data.metadata, seam_edges=seams)
    meta.provenance.append(
        f"drill(n={spec.n}, faces=({spec.face1},{spec.face2}), eps={eps:.6g})")
    meta.genus = None
    return MeshData(verts, faces, meta), geo.carry(
        [spec.face1, spec.face2], verts, _corner_layout(faces[kept:]))


def drill(p: Polyhedron | MeshData, spec: DrillSpec) -> Polyhedron:
    """Tunnel a regular n-gonal prism between two parallel faces: pierce,
    then one full build_polyhedron.

    Adds 2n vertices of defect -2*pi/n each and lowers chi by 2.  The
    pierced faces are retiled over their existing vertices, so no other
    defect changes.  The axis may cross other faces of an immersed mesh;
    such crossings only add self-intersection witnesses.  A face id that
    is not a face of p raises IndexOutOfRange, a placement number that is
    not finite BadParameters.  p may be a validated mesh or raw MeshData.
    """
    data, geo = _raw(p)
    _check_spec(geo, spec)
    return build_polyhedron(*pierce(data, geo, spec)[0])


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
    Each step pierces with the geometry the step before returned, so only
    new pieces are laid out and fitted.
    """
    if k < 1:
        raise BadOrder("k must be >= 1")
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
        out, step_geo = data, geo
        try:
            for j in range(k):
                axis_pt = p1pt + (j - (k - 1) / 2) * delta * u_dir
                exit_pt = axis_pt - (float(axis_pt @ n1) - heights[1]) * n1
                (f1, clr1), (f2, clr2) = _locate_face(
                    step_geo, np.array([axis_pt, exit_pt]), heights, n1)
                if f1 is None or f2 is None:
                    raise FootprintTooLarge(
                        f"drill {j + 1}/{k}: axis offset leaves the "
                        f"pierced faces")
                radius = spec.radius if spec.radius is not None else \
                    0.25 * min(clr1, clr2, delta / 2)
                out, step_geo = pierce(out, step_geo, DrillSpec(
                    f1, f2, spec.n, tuple(axis_pt), radius, spec.phase))
        except (FootprintTooLarge, AxisObstructed,
                SelfCrossingPartition) as exc:
            last_err = exc
        else:
            return build_polyhedron(*out)
    raise FootprintTooLarge(
        f"no workable offset direction for {k} parallel drills: {last_err}")


def _locate_face(geo: MeshGeometry, points: np.ndarray, heights,
                 normal: np.ndarray) -> list[tuple[int | None, float]]:
    """Per point and plane height: the first face in the plane
    normal . x = height whose polygon strictly contains the point, plus
    the point's clearance to that polygon's boundary; (None, 0.0) where no
    face does.  A face is in the plane when its corners all lie near it.
    Both planes' candidates are selected in one pass and fitted in one
    call, and those of one length are tested together."""
    scale = geo.scale
    along = geo.vertices[geo.corner_vertex] @ normal
    which, faces = np.nonzero(np.maximum.reduceat(
        np.abs(along - np.asarray(heights)[:, None]), geo.face_start,
        axis=1) <= 1e-7 * scale)
    geo.fit(faces)
    clearance = np.zeros(len(faces))
    inside = np.zeros(len(faces), dtype=bool)
    sizes = geo.face_size[faces]
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == k)
        f = faces[rows]
        q = _geom.project_2d(points[which[rows], None], geo.centroid[f],
                             geo.u[f], geo.v[f])[:, 0]
        poly = geo.uv[geo.face_start[f, None] + np.arange(k)]
        clearance[rows] = _geom.dist_point_polygon_boundary(q, poly)
        inside[rows] = _geom.winds_around(q, poly)
    hit = inside & (clearance > 1e-9 * scale)
    out: list[tuple[int | None, float]] = []
    for i in range(len(heights)):
        rows = np.flatnonzero(hit & (which == i))
        out.append((int(faces[rows[0]]), float(clearance[rows[0]]))
                   if rows.size else (None, 0.0))
    return out
