"""Metric measurements on a mesh: edge lengths, interior corner angles,
per-vertex angular defects, the closed-surface defect identity, dihedral
angles, and global self-intersection detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _geom
from .errors import FlatEdge, IsolatedVertex, VertexNotOnFace
from .mesh import ANGLE_TOL, DEFECT_TOL, Polyhedron, euler_characteristic


@dataclass(frozen=True)
class DefectProfile:
    per_vertex: np.ndarray           # radians, indexed by vertex id
    mean: float
    max_abs_deviation: float
    is_constant: bool

    def __getitem__(self, v: int) -> float:
        return float(self.per_vertex[v])


@dataclass(frozen=True)
class IntersectionWitness:
    faces: tuple[int, int]
    point: np.ndarray                # a representative common point
    kind: str                        # "transversal" | "coplanar-overlap"


def edge_length(p: Polyhedron, e: int) -> float:
    u, v = p.edges[e]
    return float(np.linalg.norm(p.vertices[u] - p.vertices[v]))


def corner_angle(p: Polyhedron, f: int, v: int) -> float:
    """Interior angle of face f's planar polygon at vertex v, in (0, 2*pi).

    Reflex corners are resolved against the polygon's own cycle normal, so
    dented polygons report angles above pi.
    """
    cyc = p.faces[f]
    if v not in cyc:
        raise VertexNotOnFace(f"vertex {v} not on face {f}")
    geo = p.geometry
    return float(geo.corner_angles[geo.face_start[f] + cyc.index(v)])


def angular_defect(p: Polyhedron, v: int) -> float:
    """2*pi minus the sum of interior angles of all face corners at v."""
    faces = p.vertex_faces(v)
    if len(faces) < 3:
        raise IsolatedVertex(f"vertex {v} has {len(faces)} incident faces")
    return float(p.geometry.defects[v])


def _defects(p: Polyhedron) -> np.ndarray:
    """Every vertex's defect; each vertex needs three incident faces."""
    counts = np.bincount(p.geometry.corner_vertex, minlength=p.n_vertices)
    low = np.flatnonzero(counts < 3)
    if low.size:
        v = int(low[0])
        raise IsolatedVertex(f"vertex {v} has {counts[v]} incident faces")
    return p.geometry.defects


def defect_profile(p: Polyhedron, tol: float = DEFECT_TOL) -> DefectProfile:
    """Per-vertex defects with constancy statistics: the defects are
    constant when every one lies within tol (radians) of their mean."""
    d = _defects(p)
    mean = float(d.mean())
    dev = float(np.abs(d - mean).max())
    return DefectProfile(d, mean, dev, dev < tol)


def descartes_residual(p: Polyhedron) -> float:
    """|sum of defects - 2*pi*chi|; an identity of closed surfaces, so this
    measures only floating-point accumulation."""
    total = float(_defects(p).sum())
    return abs(total - 2.0 * np.pi * euler_characteristic(p))


def dihedral_angle(p: Polyhedron, e: int) -> float:
    """Dihedral angle at edge e in (0, 2*pi) \\ {pi}.

    Measured through the side opposite the first face's cycle normal, so
    reversing that face's stored cycle maps the value to 2*pi - value.
    Raises FlatEdge within ANGLE_TOL of pi.
    """
    ang = float(p.geometry.dihedrals[e])
    if abs(ang - np.pi) < ANGLE_TOL:
        raise FlatEdge(f"edge {p.edges[e]} has dihedral angle pi")
    return ang


# ---------------------------------------------------------------------------
# self-intersection detection
#
# The scan batches the pair-at-a-time predicates, and it rounds exactly as
# they round: seam and touching contacts compare rounding noise with eps,
# so a dot product summed in another order can turn a seam into a witness.
# Every dot product, norm, plane basis and projection therefore goes
# through the broadcasting helpers of _geom, whose stacked matmuls hand
# each small product to the BLAS routine that np.dot, `@` and
# np.linalg.norm use on a single pair (ddot for vector . vector, gemv for
# matrix @ vector), on operands with the same strides.

# the sweep emits, and the narrow phase tests, this many triangle pairs at a
# time, which bounds the scan's working memory
_BLOCK = 1024
# coplanar triangles whose overlap is no larger than this only touch
_OVERLAP_AREA = 1e-12
# a clip edge this close to parallel to the clipped segment or edge is
# skipped
_PARALLEL = 1e-30


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts c: the owner of each of sum(c) slots, and the slot's
    position within its owner's run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _clip_convex(subject: np.ndarray, clipper: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of (n, 3, 2) triangles by counterclockwise
    (n, 3, 2) triangles, row by row.  Returns the clipped polygons,
    zero-padded to a common length, and each polygon's vertex count."""
    poly = subject
    size = np.full(len(subject), subject.shape[1])
    for e in range(3):
        a = clipper[:, e, None]
        ab = clipper[:, (e + 1) % 3, None] - a
        slot = np.arange(poly.shape[1])
        live = slot < size[:, None]
        inside = _cross2(ab, poly - a) >= 0
        nxt = np.where(slot + 1 < size[:, None], slot + 1, 0)
        nxt_inside = np.take_along_axis(inside, nxt, axis=1)
        step = np.take_along_axis(poly, nxt[..., None], axis=1) - poly
        denom = _cross2(ab, step)
        crosses = np.abs(denom) > _PARALLEL
        t = _cross2(ab, a - poly) / np.where(crosses, denom, 1.0)
        # each input vertex emits itself if inside, then the crossing of
        # its outgoing side if that side leaves or enters the half-plane
        emit = np.stack([live & inside,
                         live & (inside != nxt_inside) & crosses], axis=2)
        cand = np.stack([poly, poly + t[..., None] * step], axis=2)
        width = 2 * poly.shape[1]
        emit = emit.reshape(len(poly), width)
        size = emit.sum(axis=1)
        row, col = np.nonzero(emit)
        poly = np.zeros((len(poly), size.max(initial=0), 2))
        poly[row, np.cumsum(emit, axis=1)[row, col] - 1] = \
            cand.reshape(len(cand), width, 2)[row, col]
    return poly, size


class _TriangleScan:
    """The batched scan of one mesh: every ear-clip triangle in one array,
    with the per-triangle halves of the pair test (unit plane normal and
    offset, the _geom.plane_basis frame, the triangle's own cycle in that
    frame turned counterclockwise, and its bounding box)."""

    def __init__(self, p: Polyhedron):
        geo = p.geometry
        self.vertices = p.vertices
        self.n_faces = p.n_faces
        self.eps = 1e-12 * geo.scale
        self.seam_tol = 1e-9 * geo.scale
        tri = np.concatenate(geo.triangles)
        self.tri = tri
        self.face = np.repeat(np.arange(p.n_faces),
                              [len(t) for t in geo.triangles])
        self.lo, self.hi = tri.min(axis=1), tri.max(axis=1)

        with np.errstate(divide="ignore", invalid="ignore"):
            n = _geom.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            norm = _geom.norm(n)
            self.degenerate = norm == 0     # touches nothing
            n /= norm[:, None]
            self.normal = n
            self.offset = _geom.dot(n, tri[:, 0])
            self.u, self.v = _geom.plane_basis(n)
            own = _geom.project_2d(tri, tri[:, 0], self.u, self.v)
            cw = _geom.polygon_area_2d(own) < 0
            self.ccw = np.where(cw[:, None, None], own[:, ::-1], own)

        # shared-feature lookups: (face, vertex) and (face, side) keys
        self.corner_vertex = geo.corner_vertex
        self.next_vertex = geo.corner_vertex[geo.next_corner]
        self.face_start = geo.face_start
        self.face_size = geo.face_size
        self.face_vertex = np.sort(self._vertex_key(
            geo.corner_face, self.corner_vertex))
        self.face_side = np.sort(self._side_key(
            geo.corner_face, self.corner_vertex, self.next_vertex))

    def _vertex_key(self, f, v):
        return f.astype(np.int64) * len(self.vertices) + v

    def _side_key(self, f, a, b):
        nv = len(self.vertices)
        return self._vertex_key(f, np.minimum(a, b)) * nv + np.maximum(a, b)

    @staticmethod
    def _member(keys, q):
        at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return keys[at] == q

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Triangle pairs (i, j), i < j, of different faces whose bounding
        boxes, widened by eps, overlap on every axis.  The boxes are swept
        along the axis that leaves the fewest candidates."""
        lo, hi, eps = self.lo, self.hi, self.eps
        best = None
        for axis in range(3):
            order = np.argsort(lo[:, axis], kind="stable")
            end = np.searchsorted(lo[order, axis], hi[order, axis] + eps,
                                  side="right")
            count = end - np.arange(1, len(order) + 1)
            if best is None or count.sum() < best[1].sum():
                best = (order, count)
        order, count = best
        ends = np.cumsum(count)
        out_i, out_j = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
        for s in range(0, int(ends[-1]), _BLOCK):
            k = np.arange(s, min(s + _BLOCK, int(ends[-1])))
            a = np.searchsorted(ends, k, side="right")
            b = a + 1 + k - (ends[a] - count[a])
            i = np.minimum(order[a], order[b])
            j = np.maximum(order[a], order[b])
            keep = (self.face[i] != self.face[j]) & ~self.degenerate[i] & \
                ~self.degenerate[j]
            for x in range(3):
                keep &= ~(lo[i, x] > hi[j, x] + eps)
                keep &= ~(lo[j, x] > hi[i, x] + eps)
            out_i.append(i[keep].astype(np.int32))
            out_j.append(j[keep].astype(np.int32))
        return np.concatenate(out_i), np.concatenate(out_j)

    def contacts(self, i: np.ndarray, j: np.ndarray):
        """Contact samples of the triangle pairs (i, j), tested as triangle
        i against the plane and the interior of triangle j.  Returns per
        sample its pair's row, its place in that pair's sample sequence,
        whether the contact is a coplanar overlap, and the point."""
        eps = self.eps
        t1 = self.tri[i]
        s1 = (t1 @ self.normal[j][:, :, None])[..., 0] \
            - self.offset[j][:, None]
        live = np.flatnonzero(~_one_side(s1, eps))
        t2 = self.tri[j[live]]
        s2 = (t2 @ self.normal[i[live]][:, :, None])[..., 0] \
            - self.offset[i[live]][:, None]
        live = live[~_one_side(s2, eps)]
        coplanar = (np.abs(s1[live]) <= eps).all(axis=1)
        flat, cross = live[coplanar], live[~coplanar]
        # a triangle that meets the other's plane in fewer than two points
        # only touches it: drop it before the crossing test
        on, cut = _plane_meets(s1[cross], eps)
        cross = cross[np.count_nonzero(on | cut, axis=1) >= 2]
        # a branch with no rows is skipped, not run on empty arrays
        hit_c, pts_c = self._overlap(j[flat], t1[flat]) if flat.size \
            else (np.zeros(0, bool), np.zeros((0, 3)))
        hit_x, pts_x = self._crossing(j[cross], t1[cross], s1[cross]) \
            if cross.size else (np.zeros(0, bool), np.zeros((0, 5, 3)))
        rows = np.concatenate([flat[hit_c], np.repeat(cross[hit_x], 5)])
        place = np.concatenate([np.zeros(hit_c.sum(), np.intp),
                                np.tile(np.arange(5), hit_x.sum())])
        is_flat = np.arange(len(rows)) < hit_c.sum()
        pts = np.concatenate([pts_c[hit_c], pts_x[hit_x].reshape(-1, 3)])
        return rows, place, is_flat, pts

    def _overlap(self, j, tri):
        """Coplanar pairs: overlap of triangle tri with triangle j, in j's
        frame.  A pair is hit when the overlap has area above
        _OVERLAP_AREA; its sample is the overlap's vertex mean."""
        o, u, v = self.tri[j, 0], self.u[j], self.v[j]
        poly, size = _clip_convex(_geom.project_2d(tri, o, u, v), self.ccw[j])
        hit = np.zeros(len(j), bool)
        mean = np.zeros((len(j), 2))
        for k in np.flatnonzero(np.bincount(size)[3:]) + 3:
            rows = np.flatnonzero(size == k)
            pk = poly[rows, :k]
            hit[rows] = np.abs(_geom.polygon_area_2d(pk)) > _OVERLAP_AREA
            mean[rows] = pk.mean(axis=1)
        return hit, o + mean[:, 0, None] * u + mean[:, 1, None] * v

    def _crossing(self, j, tri, s):
        """Transversal pairs: the segment where triangle tri meets triangle
        j's plane, clipped to triangle j (Liang-Barsky).  A pair is hit
        when some of the segment remains; its samples are the clipped
        segment's ends, quarter points and midpoint.  Every row meets the
        plane in at least two points (see _plane_meets)."""
        on, cut = _plane_meets(s, self.eps)
        ends = tri.copy()
        for a in range(3):
            b, side = (a + 1) % 3, cut[:, a]
            sa, sb = s[side, a], s[side, b]
            t = sa / (sa - sb)
            ends[side, a] = tri[side, a] + t[:, None] * (
                tri[side, b] - tri[side, a])
        found = on | cut
        # a triangle not in the plane meets it in at most two such points:
        # its vertices on the plane and its sides crossing the plane
        rows = np.arange(len(j))
        seg = np.stack([ends[rows, np.argmax(found, axis=1)],
                        ends[rows, 2 - np.argmax(found[:, ::-1], axis=1)]],
                       axis=1)
        o, u, v = self.tri[j, 0], self.u[j], self.v[j]
        s2d = _geom.project_2d(seg, o, u, v)
        a, d = s2d[:, 0], s2d[:, 1] - s2d[:, 0]
        t_in, t_out = np.zeros(len(j)), np.ones(len(j))
        alive = np.ones(len(j), bool)
        tri2 = self.ccw[j]
        for k in range(3):
            p0 = tri2[:, k]
            edge = tri2[:, (k + 1) % 3] - p0
            num = _cross2(edge, a - p0)
            den = -_cross2(edge, d)
            parallel = np.abs(den) < _PARALLEL
            alive &= ~(parallel & (num < 0))
            t = num / np.where(parallel, 1.0, den)
            exits = ~parallel & (den > 0)
            enters = ~parallel & ~(den > 0)
            t_out = np.where(exits & (t < t_out), t, t_out)
            t_in = np.where(enters & (t > t_in), t, t_in)
            alive &= ~(t_in > t_out)
        a, b = a + t_in[:, None] * d, a + t_out[:, None] * d
        q = np.stack([a, 0.75 * a + 0.25 * b, 0.5 * (a + b),
                      0.25 * a + 0.75 * b, b], axis=1)
        pts = o[:, None] + q[..., 0, None] * u[:, None] \
            + q[..., 1, None] * v[:, None]
        return alive, pts

    def clearance(self, f1, f2, pts):
        """Distance from each point to the nearest vertex or whole edge
        that its faces f1 and f2 share; inf where they share none."""
        pair, slot = np.unique(f1.astype(np.int64) * self.n_faces + f2,
                               return_inverse=True)
        g1, g2 = pair // self.n_faces, pair % self.n_faces
        # every corner of each pair's first face
        owner, at = _spread(self.face_size[g1])
        corner = self.face_start[g1][owner] + at
        a, b = self.corner_vertex[corner], self.next_vertex[corner]
        other = g2[owner]
        has_a = self._member(self.face_vertex, self._vertex_key(other, a))
        has_b = self._member(self.face_vertex, self._vertex_key(other, b))
        side = has_a & has_b & self._member(
            self.face_side, self._side_key(other, a, b))

        by_pair = np.argsort(slot, kind="stable")
        n_pts = np.bincount(slot, minlength=len(pair))
        first = np.cumsum(n_pts) - n_pts
        out = np.full(len(pts), np.inf)
        for keep, segment in ((has_a, False), (side, True)):
            feat, at = _spread(n_pts[owner[keep]])
            k = by_pair[first[owner[keep]][feat] + at]
            q = pts[k]
            va = self.vertices[a[keep]][feat]
            if segment:
                ab = self.vertices[b[keep]][feat] - va
                denom = _geom.dot(ab, ab)
                t = np.clip(_geom.dot(q - va, ab)
                            / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
                dist = _geom.norm(q - (va + t[:, None] * ab))
            else:
                dist = _geom.norm(q - va)
            np.minimum.at(out, k, dist)
        return out


def _one_side(s: np.ndarray, eps: float) -> np.ndarray:
    return (s > eps).all(axis=1) | (s < -eps).all(axis=1)


def _plane_meets(s: np.ndarray, eps: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Where triangles with signed vertex distances s (n, 3) to a plane
    meet it: per vertex, whether it lies within eps of the plane, and per
    side (vertex a to a + 1), whether its ends lie off the plane on
    opposite sides."""
    on = np.abs(s) <= eps
    pos = s > 0
    nxt = [1, 2, 0]
    return on, ~on & ~on[:, nxt] & (pos != pos[:, nxt])


def _best_per_pair(key, clearance, i, j, place, *rest):
    """Keep, per face-pair key, the sample of largest clearance; ties go to
    the least (i, j, place), the first sample a pair-at-a-time scan meets.
    Every argument is an array over the samples."""
    idx = np.lexsort((place, j, i, -clearance, key))
    idx = idx[np.diff(key[idx], prepend=-1) != 0]
    return tuple(a[idx] for a in (key, clearance, i, j, place, *rest))


def self_intersections(p: Polyhedron) -> list[IntersectionWitness]:
    """Witnesses of genuine face-pair intersections.

    Faces are ear-clipped and every triangle goes into one array.  The
    broad phase sorts the triangles' bounding boxes on one axis and sweeps
    them (sort-and-sweep), then keeps the pairs from different faces whose
    boxes, widened by eps = 1e-12 (relative), overlap on all three axes.
    The narrow phase takes the candidates in blocks of _BLOCK pairs and
    tests each block at once: plane-side rejection, then either the
    coplanar overlap (Sutherland-Hodgman clip, area above 1e-12, sample at
    the overlap's vertex mean) or the segment where one triangle crosses
    the other's plane, clipped to that triangle (Liang-Barsky, samples at
    its ends, quarter points and midpoint).  A sample within 1e-9
    (relative) of a vertex or whole edge the two faces share is a seam,
    not a witness.  Each face pair reports its sample of largest
    clearance, the earliest in triangle order on ties.

    Each dot product and norm is rounded exactly as np.dot rounds a single
    pair, so the result equals that of testing one triangle pair at a
    time, down to the bits of the witness points.
    """
    scan = _TriangleScan(p)
    cand_i, cand_j = scan.candidates()
    found = []
    for s in range(0, len(cand_i), _BLOCK):
        i = cand_i[s:s + _BLOCK].astype(np.intp)
        j = cand_j[s:s + _BLOCK].astype(np.intp)
        rows, place, flat, pts = scan.contacts(i, j)
        i, j = i[rows], j[rows]
        f1, f2 = scan.face[i], scan.face[j]
        clr = scan.clearance(f1, f2, pts)
        keep = clr > scan.seam_tol
        found.append(_best_per_pair(*(a[keep] for a in (
            f1 * p.n_faces + f2, clr, i, j, place, flat, pts))))
    if not found:
        return []
    key, _, _, _, _, flat, pts = _best_per_pair(
        *(np.concatenate(a) for a in zip(*found)))
    kinds = np.where(flat, "coplanar-overlap", "transversal").tolist()
    return [IntersectionWitness(faces, point, kind) for faces, point, kind
            in zip(zip((key // p.n_faces).tolist(),
                       (key % p.n_faces).tolist()), pts, kinds)]


def is_embedded(p: Polyhedron) -> bool:
    return not self_intersections(p)
