"""Metric measurements on a mesh: edge lengths, interior corner angles,
per-vertex angular defects, the closed-surface defect identity, dihedral
angles, and global self-intersection detection."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

# the broad phase emits, and the narrow phase tests, this many candidate
# rows at a time, which bounds the scan's working memory: the scan peaks at
# 0.3 to 0.5 KB per candidate row on the catalog meshes, so a block stays
# within about 4 MB.  Each mesh of the certify-files bench (at most 5,940
# candidates) runs in one block.
_ROWS = 8192
# coplanar triangles whose overlap is no larger than this only touch
_OVERLAP_AREA = 1e-12
# a clip edge this close to parallel to the clipped segment or edge is
# skipped
_PARALLEL = 1e-30
# each vertex's successor around a triangle, and so each side's end
_NEXT = [1, 2, 0]
# the samples of a transversal pair (_samples); a sample's place in its
# pair runs from 0 to _PLACES - 1
_PLACES = 5

# Rows of an array with more than one dimension are gathered with take and
# masked with compress, never by fancy indexing: on numpy 2.x `a[idx]`,
# `a[mask]` and `s[:, idx]` cost 3 to 5 times as much for the same copy.
# One-dimensional arrays keep plain indexing, which is as fast below about
# 1,000 entries.  take reads a boolean mask as rows 0 and 1, and compress
# truncates to a shorter mask, so each is handed only its own kind.


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts c: the owner of each of sum(c) slots, and the slot's
    position within its owner's run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _clip_convex(subject: np.ndarray, clipper: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of (n, 3, 2) triangles by counterclockwise
    (n, 3, 2) triangles, row by row.  Returns the rows whose clipped
    polygon keeps at least two vertices, those polygons padded to a common
    length, and their vertex counts."""
    rows = np.arange(len(subject))
    # each cycle is closed: the slot after a polygon's last vertex repeats
    # its first, so every live vertex's successor is the next slot
    poly = np.concatenate([subject, subject[:, :1]], axis=1)
    size = np.full(len(subject), 3)
    for e in range(3):
        c = clipper.take(rows, axis=0)
        a = c[:, e, None]
        ab = c[:, (e + 1) % 3, None] - a
        inside = _cross2(ab, poly - a) >= 0
        cur, step = poly[:, :-1], poly[:, 1:] - poly[:, :-1]
        denom = _cross2(ab, step)
        crosses = np.abs(denom) > _PARALLEL
        t = _cross2(ab, a - cur) / np.where(crosses, denom, 1.0)
        live = np.arange(cur.shape[1]) < size[:, None]
        # each live vertex emits itself if inside, then the crossing of
        # its outgoing side if that side leaves or enters the half-plane;
        # a row's k-th emitted point goes to its slot k - 1 and the rest
        # to a spare last slot
        n, width = len(rows), 2 * cur.shape[1]
        emit = np.stack([live & inside[:, :-1],
                         live & (inside[:, :-1] != inside[:, 1:]) & crosses],
                        axis=2).reshape(n, width).T
        at = np.cumsum(emit, axis=0, dtype=np.int8)
        size = at[-1].astype(np.intp)
        at = np.where(emit, at - 1, width)
        r = np.arange(n)
        out = np.zeros((n, width + 1, 2))
        out[r, at[0::2]] = cur.transpose(1, 0, 2)
        out[r, at[1::2]] = (cur + t[..., None] * step).transpose(1, 0, 2)
        out[r, size] = out[:, 0]
        # a polygon left with one vertex or none keeps that count through
        # the remaining edges, so its row is dropped
        keep = np.flatnonzero(size >= 2)
        rows, size = rows[keep], size[keep]
        poly = out[:, :size.max(initial=0) + 1].take(keep, axis=0)
        if not rows.size:
            break
    return rows, poly[:, :-1], size


def _clip_segments(a: np.ndarray, d: np.ndarray, tri: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Liang-Barsky clip of the (n, 2) segments a + t d, t in [0, 1], by
    counterclockwise (n, 3, 2) triangles, row by row.  Returns the rows
    where some of a segment remains and that piece's two ends, as (n, 2)
    arrays.

    The three edges are (3, n) columns of one pass, each coordinate apart
    (the products of _cross2, in its order).  Edge by edge, the clip
    raises t_in from 0 to an entering edge's larger t and lowers t_out
    from 1 to an exiting edge's smaller t; both only move one way, so
    t_in is the largest of 0 and the entering t, and t_out the first
    least of 1 and the exiting t.  "First" matters only for zeros of
    either sign, which compare equal: two strict comparisons in edge
    order keep the one the loop kept, where a min may return either.  A
    segment is dropped when it lies outside a parallel edge or t_in
    passes t_out."""
    x, y = tri[..., 0].T, tri[..., 1].T
    ex, ey = x.take(_NEXT, axis=0) - x, y.take(_NEXT, axis=0) - y
    num = ex * (a[:, 1] - y) - ey * (a[:, 0] - x)
    den = -(ex * d[:, 1] - ey * d[:, 0])
    parallel = np.abs(den) < _PARALLEL
    t = num / np.where(parallel, 1.0, den)
    exits = ~parallel & (den > 0)
    t_in = np.where(~parallel & ~exits & (t > 0.0), t, 0.0).max(axis=0)
    out = np.where(exits, t, 1.0)
    t_out = np.where(out[1] < out[0], out[1], out[0])
    t_out = np.minimum(np.where(out[2] < t_out, out[2], t_out), 1.0)
    hit = np.flatnonzero(~(parallel & (num < 0)).any(axis=0)
                         & ~(t_in > t_out))
    a, d = a.take(hit, axis=0), d.take(hit, axis=0)
    return hit, a + t_in[hit][:, None] * d, a + t_out[hit][:, None] * d


class _TriangleScan:
    """The batched scan of one mesh: every ear-clip triangle in one array,
    with the per-triangle halves of the pair test (unit plane normal and
    offset, the _geom.plane_basis frame, the triangle's own cycle in that
    frame turned counterclockwise, and its bounding box).  The triangles'
    first vertices, their origins, are kept as one (T, 3) array and the
    box bounds as contiguous (3, T) rows, one per axis, so that every pick
    is a gather of whole rows."""

    def __init__(self, p: Polyhedron):
        geo = p.geometry
        self.vertices = p.vertices
        self.n_faces = p.n_faces
        self.eps = 1e-12 * geo.scale
        self.seam_tol = 1e-9 * geo.scale
        self.tri_vertex, self.face = geo.triangulation
        tri = p.vertices.take(self.tri_vertex, axis=0)
        self.tri = tri
        self.origin = tri[:, 0].copy()
        self.lo = np.ascontiguousarray(tri.min(axis=1).T)
        self.hi = np.ascontiguousarray(tri.max(axis=1).T)

        # a degenerate triangle has a zero normal and touches nothing
        self.normal, self.degenerate = geo.triangle_normals
        with np.errstate(divide="ignore", invalid="ignore"):
            self.offset = _geom.dot(self.normal, self.origin)
            self.u, self.v = _geom.plane_basis(self.normal)
            own = _geom.project_2d(tri, self.origin, self.u, self.v)
            cw = _geom.polygon_area_2d(own) < 0
            self.ccw = np.where(cw[:, None, None], own[:, ::-1], own)
        # the vertex ids of each ccw cycle
        self.ccw_vertex = np.where(cw[:, None], self.tri_vertex[:, ::-1],
                                   self.tri_vertex)

        # shared-feature lookups: (face, vertex) and (face, side) keys
        self.corner_face = geo.corner_face
        self.corner_vertex = geo.corner_vertex
        self.next_vertex = geo.corner_vertex[geo.next_corner]
        self.face_start = geo.face_start
        self.face_size = geo.face_size
        self.face_side = np.sort(self._side_key(
            geo.corner_face, self.corner_vertex, self.next_vertex))

    @cached_property
    def face_vertex(self):
        """The sorted (face, vertex) keys; only clearance reads them."""
        return np.sort(self._vertex_key(self.corner_face, self.corner_vertex))

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
            order = np.argsort(lo[axis], kind="stable")
            end = np.searchsorted(lo[axis][order], hi[axis][order] + eps,
                                  side="right")
            count = end - np.arange(1, len(order) + 1)
            if best is None or count.sum() < best[1].sum():
                best = (order, count)
        order, count = best
        ends = np.cumsum(count)
        out_i, out_j = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
        for s in range(0, int(ends[-1]), _ROWS):
            k = np.arange(s, min(s + _ROWS, int(ends[-1])))
            a = np.searchsorted(ends, k, side="right")
            b = a + 1 + k - (ends[a] - count[a])
            i = np.minimum(order[a], order[b])
            j = np.maximum(order[a], order[b])
            keep = (self.face[i] != self.face[j]) & ~self.degenerate[i] & \
                ~self.degenerate[j]
            for x in range(3):
                keep &= ~(lo[x][i] > hi[x][j] + eps)
                keep &= ~(lo[x][j] > hi[x][i] + eps)
            out_i.append(i[keep].astype(np.int32))
            out_j.append(j[keep].astype(np.int32))
        return np.concatenate(out_i), np.concatenate(out_j)

    def _frame(self, j):
        """The (origin, u, v) frames of triangles j, as (n, 3) rows."""
        return tuple(a.take(j, axis=0) for a in (self.origin, self.u, self.v))

    def _distances(self, i, j):
        """Signed distances of triangle i's vertices to triangle j's plane,
        as (3, n) columns, one per vertex."""
        d = (self.tri.take(i, axis=0)
             @ self.normal.take(j, axis=0)[:, :, None])[..., 0]
        return np.subtract(d.T, self.offset[j], out=np.empty((3, len(i))))

    def contacts(self, i: np.ndarray, j: np.ndarray):
        """Contact samples of the triangle pairs (i, j), tested as triangle
        i against the plane and the interior of triangle j.  Returns per
        sample its pair (i, j), its place in that pair's sample sequence,
        whether the contact is a coplanar overlap, and the point.  Each
        test gathers triangle data only for the pairs still live.  A
        clipped crossing whose two ends both lie within seam_tol / 2 of a
        vertex both triangles share is dropped before it is sampled: its
        samples are convex combinations of the ends, lifted to 3D with
        only rounding added, so each would be a seam (_at_shared_vertex).
        A block that keeps no contact returns at once."""
        eps = self.eps
        s = self._distances(i, j)
        keep = ~_one_side(s, eps)
        i, j, s = i[keep], j[keep], s.compress(keep, axis=1)
        keep = ~_one_side(self._distances(j, i), eps)
        i, j, s = i[keep], j[keep], s.compress(keep, axis=1)
        on, cut = _plane_meets(s, eps)
        coplanar = _each(on)
        # a triangle that meets the other's plane in fewer than two points
        # only touches it, and one that meets it in a side of both faces
        # only touches it along their seam: drop both before the crossing
        # test
        met = on | cut
        cross = np.flatnonzero(~coplanar & _two_of(met))
        cross = cross[~self._on_shared_side(i[cross], j[cross],
                                            on.take(cross, axis=1))]
        flat = np.flatnonzero(coplanar)
        # a branch with no rows is skipped, not run on empty arrays; a
        # coplanar pair that a side separates has no overlap to clip
        if flat.size:
            flat = flat[~self._separated(i[flat], j[flat])]
        hit_c, pts_c = self._overlap(i[flat], j[flat]) if flat.size \
            else (np.zeros(0, np.intp), np.zeros((0, 3)))
        flat = flat[hit_c]
        if cross.size:
            hit_x, a, b = self._crossing(j[cross], self._segment(
                i[cross], *(m.take(cross, axis=1) for m in (s, met, cut))))
            cross = cross[hit_x]
            live = ~self._at_shared_vertex(i[cross], j[cross], a, b)
            cross = cross[live]
            a, b = a.compress(live, axis=0), b.compress(live, axis=0)
        if not (flat.size or cross.size):
            none = np.zeros(0, np.intp)
            return none, none, none, np.zeros(0, bool), np.zeros((0, 3))
        pts_x = self._samples(j[cross], a, b) if cross.size \
            else np.zeros((0, _PLACES, 3))
        rows = np.concatenate([flat, np.repeat(cross, _PLACES)])
        place = np.concatenate([np.zeros(len(flat), np.intp),
                                np.tile(np.arange(_PLACES), len(cross))])
        is_flat = np.arange(len(rows)) < len(flat)
        pts = np.concatenate([pts_c, pts_x.reshape(-1, 3)])
        return i[rows], j[rows], place, is_flat, pts

    def _on_shared_side(self, i, j, on):
        """Transversal pairs whose triangle i meets triangle j's plane at
        exactly two of its vertices, where those two are the ends of a
        side of both faces.  The segment _crossing would sample is then
        part of an edge the two faces share, so every sample lies within
        rounding (about eps) of that edge, far inside seam_tol: a seam,
        never a witness.  A pair of vertices that is a side of one face
        only (a diagonal of the other) is not dropped."""
        v = self.tri_vertex.take(i, axis=0).T
        a = np.where(on[0], v[0], v[1])
        b = np.where(on[2], v[2], v[1])
        return _two_of(on) & \
            self._member(self.face_side, self._side_key(self.face[i], a, b)) \
            & self._member(self.face_side, self._side_key(self.face[j], a, b))

    def _separated(self, i, j):
        """Coplanar pairs that the line of a side separates (see
        _side_separates), tested in triangle j's frame, where _overlap
        would clip them."""
        own = _geom.project_2d(self.tri.take(i, axis=0), *self._frame(j))
        cw = _geom.polygon_area_2d(own) < 0
        own = np.where(cw[:, None, None], own[:, ::-1], own)
        return _side_separates(own, self.ccw.take(j, axis=0))

    def _overlap(self, i, j):
        """Coplanar pairs: overlap of triangle i with triangle j, in j's
        frame.  A pair is hit when the overlap has area above
        _OVERLAP_AREA; its sample is the overlap's vertex mean.  Returns
        the hit rows and their samples."""
        o, u, v = self._frame(j)
        rows, poly, size = _clip_convex(
            _geom.project_2d(self.tri.take(i, axis=0), o, u, v),
            self.ccw.take(j, axis=0))
        hit = np.zeros(len(rows), bool)
        mean = np.zeros((len(rows), 2))
        for k in np.flatnonzero(np.bincount(size)[3:]) + 3:
            at = np.flatnonzero(size == k)
            pk = poly[:, :k].take(at, axis=0)
            hit[at] = np.abs(_geom.polygon_area_2d(pk)) > _OVERLAP_AREA
            mean[at] = pk.mean(axis=1)
        rows, mean = rows[hit], mean.compress(hit, axis=0)
        o, u, v = (a.take(rows, axis=0) for a in (o, u, v))
        return rows, o + mean[:, 0, None] * u + mean[:, 1, None] * v

    def _segment(self, i, s, met, cut):
        """The segment where triangle i meets the plane its signed vertex
        distances s are measured to, as (n, 2, 3) ends.  s, met and cut
        are (3, n) columns (see _plane_meets): met marks the vertices on
        the plane and the sides crossing it, and every row has at least
        two.  The cut sides of every row are crossed in one pass, each
        (side, row) pick a gather from the flat (3n,) s and the (3n, 3)
        vertex rows."""
        n = len(i)
        at = np.flatnonzero(cut)
        side, row = np.divmod(at, n)
        after = (side + 1) % 3
        s = s.ravel()
        sa = s[at]
        t = sa / (sa - s[after * n + row])
        ends = self.tri.take(i, axis=0).reshape(-1, 3)
        start, stop = 3 * row + side, 3 * row + after
        a = ends.take(start, axis=0)
        ends[start] = a + t[:, None] * (ends.take(stop, axis=0) - a)
        # a triangle not in the plane meets it in at most two such points:
        # its vertices on the plane and its sides crossing the plane
        first = np.where(met[0], 0, np.where(met[1], 1, 2))
        last = np.where(met[2], 2, np.where(met[1], 1, 0))
        row = 3 * np.arange(n)
        return ends.take(np.stack([row + first, row + last], 1), axis=0)

    def _crossing(self, j, seg):
        """Transversal pairs: the segments seg, in triangle j's plane,
        clipped to triangle j in j's frame (_clip_segments).  A pair is
        hit when some of its segment remains.  Returns the hit rows and
        the clipped segment's two ends in j's frame, as (n, 2) arrays.
        contacts then drops the rows whose ends both lie within
        seam_tol / 2 of a vertex both triangles share, since every sample
        between such ends is a seam (_at_shared_vertex), and samples the
        rest (_samples)."""
        s2d = _geom.project_2d(seg, *self._frame(j))
        return _clip_segments(s2d[:, 0], s2d[:, 1] - s2d[:, 0],
                              self.ccw.take(j, axis=0))

    def _at_shared_vertex(self, i, j, a, b):
        """Clipped crossings whose ends a and b, in triangle j's frame,
        both lie within seam_tol / 2 of the image of a vertex that
        triangles i and j share.  Each of the segment's samples is a
        convex combination of its ends, so it lies that close to the
        image too; the image is a vertex of triangle j in j's own plane,
        so lifting a sample to 3D adds only rounding.  The vertex belongs
        to both faces, so every sample's clearance is below seam_tol:
        the row holds seams only and can be dropped unsampled."""
        tol2 = (0.5 * self.seam_tol) ** 2
        own = self.tri_vertex.take(i, axis=0)
        ccw_vertex = self.ccw_vertex.take(j, axis=0)
        ccw = self.ccw.take(j, axis=0)
        out = np.zeros(len(i), bool)
        for k in range(3):
            w = ccw_vertex[:, k]
            at = ccw[:, k]
            da, db = a - at, b - at
            out |= ((own[:, 0] == w) | (own[:, 1] == w) | (own[:, 2] == w)) \
                & (da[:, 0] * da[:, 0] + da[:, 1] * da[:, 1] <= tol2) \
                & (db[:, 0] * db[:, 0] + db[:, 1] * db[:, 1] <= tol2)
        return out

    def _samples(self, j, a, b):
        """The samples of clipped crossings in triangle j's plane, from
        their ends a and b in j's frame: the ends, quarter points and
        midpoint, as (n, 5, 3).  Each sum is formed in place, in the order
        o + x u + y v."""
        o, u, v = self._frame(j)
        q = np.stack([a, 0.75 * a + 0.25 * b, 0.5 * (a + b),
                      0.25 * a + 0.75 * b, b], axis=1)
        pts = q[..., 0, None] * u[:, None]
        pts += o[:, None]
        pts += q[..., 1, None] * v[:, None]
        return pts

    def clearance(self, key, pts):
        """Distance from each point to the nearest vertex or whole edge
        that its faces f1 and f2, given as key = f1 * n_faces + f2, share;
        inf where they share none."""
        pair, slot = np.unique(key, return_inverse=True)
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
            q = pts.take(k, axis=0)
            va = self.vertices.take(a[keep], axis=0)
            if segment:
                ab = (self.vertices.take(b[keep], axis=0) - va).take(
                    feat, axis=0)
                va = va.take(feat, axis=0)
                denom = _geom.dot(ab, ab)
                t = np.clip(_geom.dot(q - va, ab)
                            / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
                va += t[:, None] * ab       # the nearest point of the side
            else:
                va = va.take(feat, axis=0)
            q -= va
            np.minimum.at(out, k, _geom.norm(q))
        return out


# Per-triangle predicates work on (3, n) columns, one per vertex or side,
# so that each test across a row is two elementwise operations on (n,)
# arrays instead of a reduction along a short axis.

def _each(m: np.ndarray) -> np.ndarray:
    """Rows where all three (3, n) columns of m hold."""
    return m[0] & m[1] & m[2]


def _two_of(m: np.ndarray) -> np.ndarray:
    """Rows where at least two of the three (3, n) columns of m hold."""
    return (m[0] & m[1]) | (m[1] & m[2]) | (m[2] & m[0])


def _one_side(s: np.ndarray, eps: float) -> np.ndarray:
    """Rows whose three signed distances, the (3, n) columns s, all exceed
    eps or all fall below -eps."""
    return _each(s > eps) | _each(s < -eps)


def _plane_meets(s: np.ndarray, eps: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Where triangles with signed vertex distances s to a plane meet it,
    given and returned as (3, n) columns: per vertex, whether it lies
    within eps of the plane, and per side (vertex a to a + 1), whether its
    ends lie off the plane on opposite sides."""
    on = np.abs(s) <= eps
    off, pos = ~on, s > 0
    return on, off & off[_NEXT] & (pos != pos[_NEXT])


def _side_separates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of the counterclockwise (n, 3, 2) triangles a and b where all
    three vertices of one lie on or right of the line of a side of the
    other.  Two convex polygons whose interiors are disjoint are always
    separated so (the separating-axis lemma), so these are exactly the
    rows whose overlap has zero area, up to the rounding of the side
    products."""
    out = np.zeros(len(a), bool)
    for p, q in ((a, b), (b, a)):
        for e in range(3):
            start = p[:, e, None]
            side = p[:, (e + 1) % 3, None] - start
            out |= _each((_cross2(side, q - start) <= 0).T)
    return out


def _best_per_pair(n_tri, key, clearance, i, j, place, *rest):
    """Keep, per face-pair key, the sample of largest clearance; ties go to
    the least (i, j, place), the first sample a pair-at-a-time scan meets.
    i and j are triangles, in range(n_tri); every argument but n_tri is an
    array over the samples.  The sort is np.lexsort((place, j, i,
    -clearance, key)) with its first three keys packed into one int64,
    (i * n_tri + j) * _PLACES + place, which orders as they do.  The
    largest packed key is _PLACES * n_tri**2 - 1, within int64 for up to
    isqrt(2**63 // _PLACES) = 1,358,187,913 triangles."""
    tie = (i.astype(np.int64) * n_tri + j) * _PLACES + place
    idx = np.lexsort((tie, -clearance, key))
    idx = idx[np.diff(key[idx], prepend=-1) != 0]
    return tuple(a.take(idx, axis=0)
                 for a in (key, clearance, i, j, place, *rest))


def self_intersections(p: Polyhedron) -> list[IntersectionWitness]:
    """Witnesses of genuine face-pair intersections.

    Faces are ear-clipped and every triangle goes into one array.  The
    broad phase sorts the triangles' bounding boxes on one axis and sweeps
    them (sort-and-sweep), then keeps the pairs from different faces whose
    boxes, widened by eps = 1e-12 (relative), overlap on all three axes.
    The narrow phase takes the candidates in blocks of up to _ROWS pairs
    and tests each block at once: plane-side rejection, then either the
    coplanar overlap (Sutherland-Hodgman clip, area above 1e-12, sample at
    the overlap's vertex mean; a pair that the line of a side separates is
    dropped before the clip) or the segment where one triangle crosses
    the other's plane, clipped to that triangle (Liang-Barsky, samples at
    its ends, quarter points and midpoint).  A sample within 1e-9
    (relative) of a vertex or whole edge the two faces share is a seam,
    not a witness; a crossing that runs along a side of both faces is
    dropped before it is sampled, since all its samples are seams.  So is
    a clipped crossing whose two ends both lie within seam_tol / 2 of the
    image, in the second triangle's frame, of a vertex both triangles
    share: every sample is a convex combination of the ends, lifting it
    to 3D adds only rounding, and the vertex is shared by both faces, so
    every sample would be a seam.  A block left with no sample skips the
    clearance and the per-pair selection.  Each face pair reports its
    sample of largest clearance, the earliest in triangle order on ties;
    the selection runs per block and, when more than one block kept
    samples, once more over their winners (it is idempotent, so a single
    block's winners stand).

    Each dot product and norm is rounded exactly as np.dot rounds a single
    pair, so the result equals that of testing one triangle pair at a
    time, down to the bits of the witness points.
    """
    scan = _TriangleScan(p)
    n_tri = len(scan.face)
    cand_i, cand_j = scan.candidates()
    found = []
    for s in range(0, len(cand_i), _ROWS):
        i, j, place, flat, pts = scan.contacts(
            cand_i[s:s + _ROWS].astype(np.intp),
            cand_j[s:s + _ROWS].astype(np.intp))
        if not i.size:
            continue
        key = scan.face[i] * p.n_faces + scan.face[j]
        clr = scan.clearance(key, pts)
        keep = clr > scan.seam_tol
        found.append(_best_per_pair(
            n_tri, *(a[keep] for a in (key, clr, i, j, place, flat)),
            pts.compress(keep, axis=0)))
    if not found:
        return []
    key, _, _, _, _, flat, pts = found[0] if len(found) == 1 else \
        _best_per_pair(n_tri, *(np.concatenate(a) for a in zip(*found)))
    kinds = ("transversal", "coplanar-overlap")
    return [IntersectionWitness((f1, f2), point, kinds[f])
            for f1, f2, point, f in zip((key // p.n_faces).tolist(),
                                        (key % p.n_faces).tolist(),
                                        list(pts), flat.tolist())]


def is_embedded(p: Polyhedron) -> bool:
    return not self_intersections(p)
