"""The scalar self-intersection scan, kept as the reference the batched
scan in ``ccpforge.metrics`` must reproduce exactly.

It tests face pair after face pair and triangle pair after triangle pair
with small numpy calls, so it is slow; the tests run it on a few dozen
meshes only.  The two clipping helpers came from ``ccpforge._geom`` with
it.
"""

from __future__ import annotations

import numpy as np

from ccpforge import _geom
from ccpforge.metrics import IntersectionWitness
from ccpforge.mesh import Polyhedron

from conftest import face_triangles
from scalar_polygon import _cross2, dist_point_segment


def _shared_features(p: Polyhedron, f1: int, f2: int):
    """Shared vertices (as points) and shared whole edges between two faces."""
    s1, s2 = set(p.faces[f1]), set(p.faces[f2])
    shared_v = s1 & s2
    pts = [p.vertices[v] for v in shared_v]
    segs = []
    c1 = p.faces[f1]
    k = len(c1)
    for i in range(k):
        u, v = c1[i], c1[(i + 1) % k]
        if u in shared_v and v in shared_v:
            c2 = p.faces[f2]
            m = len(c2)
            for j in range(m):
                if {c2[j], c2[(j + 1) % m]} == {u, v}:
                    segs.append((p.vertices[u], p.vertices[v]))
                    break
    return pts, segs


def _clearance(point, shared_pts, shared_segs):
    d = np.inf
    for q in shared_pts:
        d = min(d, float(np.linalg.norm(point - q)))
    for a, b in shared_segs:
        d = min(d, dist_point_segment(point, a, b))
    return d


def _tri_pair_contact(t1: np.ndarray, t2: np.ndarray, eps: float):
    """Contact between two triangles.

    Returns (kind, candidate points) or None.  Coplanar overlap reports the
    overlap centroid; transversal crossings report samples along the
    intersection segment.
    """
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    nn2 = np.linalg.norm(n2)
    if nn2 == 0:
        return None
    n2 /= nn2
    d2 = float(n2 @ t2[0])
    s1 = t1 @ n2 - d2
    if (s1 > eps).all() or (s1 < -eps).all():
        return None

    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    nn1 = np.linalg.norm(n1)
    if nn1 == 0:
        return None
    n1 /= nn1
    d1 = float(n1 @ t1[0])
    s2 = t2 @ n1 - d1
    if (s2 > eps).all() or (s2 < -eps).all():
        return None

    if (np.abs(s1) <= eps).all():
        # coplanar: 2D polygon overlap area test
        u, v = _geom.plane_basis(n2)
        o = t2[0]
        a2 = _geom.project_2d(t1, o, u, v)
        b2 = _geom.project_2d(t2, o, u, v)
        inter = clip_polygon_2d(a2, b2)
        if len(inter) >= 3 and abs(_geom.polygon_area_2d(inter)) > 1e-12:
            c = inter.mean(axis=0)
            return "coplanar-overlap", [o + c[0] * u + c[1] * v]
        return None

    seg = segment_plane_clip(t1, n2, d2, eps)
    if seg is None:
        return None
    # restrict the segment to triangle t2 (2D clip in t2's plane)
    u, v = _geom.plane_basis(n2)
    o = t2[0]
    s2d = _geom.project_2d(seg, o, u, v)
    t2d = _geom.project_2d(t2, o, u, v)
    clipped = _clip_segment_to_triangle(s2d, t2d)
    if clipped is None:
        return None
    a, b = clipped
    pts3 = [o + q[0] * u + q[1] * v for q in
            (a, 0.75 * a + 0.25 * b, 0.5 * (a + b), 0.25 * a + 0.75 * b, b)]
    return "transversal", pts3


def _clip_segment_to_triangle(seg2d, tri2d):
    if _geom.polygon_area_2d(tri2d) < 0:
        tri2d = tri2d[::-1]
    a, b = seg2d[0], seg2d[1]
    t0, t1 = 0.0, 1.0
    d = b - a
    for i in range(3):
        p0, p1 = tri2d[i], tri2d[(i + 1) % 3]
        edge = p1 - p0
        num = _cross2(edge, a - p0)
        den = -_cross2(edge, d)
        if abs(den) < 1e-30:
            if num < 0:
                return None
            continue
        t = num / den
        if den > 0:
            t1 = min(t1, t)
        else:
            t0 = max(t0, t)
        if t0 > t1:
            return None
    return a + t0 * d, a + t1 * d


def self_intersections(p: Polyhedron) -> list[IntersectionWitness]:
    """Witnesses of genuine face-pair intersections.

    Faces are ear-clipped; triangle pairs from distinct faces are tested
    with plane-clipping predicates behind an axis-aligned bounding-box
    broad phase.  Contact within 1e-9 (relative) of a shared vertex or
    shared edge is a legitimate seam, not a witness.
    """
    tris = face_triangles(p)
    scale = max(1.0, float(np.abs(p.vertices).max()))
    eps = 1e-12 * scale
    seam_tol = 1e-9 * scale

    fmin = np.array([ts.min(axis=(0, 1)) for ts in tris])
    fmax = np.array([ts.max(axis=(0, 1)) for ts in tris])

    witnesses: list[IntersectionWitness] = []
    nf = p.n_faces
    for f1 in range(nf):
        for f2 in range(f1 + 1, nf):
            if (fmin[f1] > fmax[f2] + eps).any() or \
               (fmin[f2] > fmax[f1] + eps).any():
                continue
            shared_pts, shared_segs = _shared_features(p, f1, f2)
            best = None
            for t1 in tris[f1]:
                for t2 in tris[f2]:
                    if (t1.min(axis=0) > t2.max(axis=0) + eps).any() or \
                       (t2.min(axis=0) > t1.max(axis=0) + eps).any():
                        continue
                    hit = _tri_pair_contact(t1, t2, eps)
                    if hit is None:
                        continue
                    kind, pts = hit
                    for q in pts:
                        clr = _clearance(q, shared_pts, shared_segs)
                        if clr > seam_tol and (best is None or clr > best[0]):
                            best = (clr, kind, q)
            if best is not None:
                witnesses.append(IntersectionWitness(
                    (f1, f2), np.asarray(best[2]), best[1]))
    witnesses.sort(key=lambda w: w.faces)
    return witnesses


def clip_polygon_2d(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon by a convex polygon; both 2D.
    The clipper is reoriented counterclockwise internally."""
    if _geom.polygon_area_2d(clipper) < 0:
        clipper = clipper[::-1]
    out = [p for p in subject]
    k = len(clipper)
    for i in range(k):
        a, b = clipper[i], clipper[(i + 1) % k]
        if not out:
            break
        inp = out
        out = []
        for j in range(len(inp)):
            cur, nxt = inp[j], inp[(j + 1) % len(inp)]
            cur_in = _cross2(b - a, cur - a) >= 0
            nxt_in = _cross2(b - a, nxt - a) >= 0
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                d = nxt - cur
                denom = _cross2(b - a, d)
                if abs(denom) > 1e-30:
                    t = _cross2(b - a, a - cur) / denom
                    out.append(cur + t * d)
    return np.array(out) if out else np.zeros((0, 2))


def segment_plane_clip(tri: np.ndarray, n: np.ndarray, d0: float,
                       eps: float) -> np.ndarray | None:
    """Intersect a 3D triangle with the plane n.x = d0.

    Returns a 2-point segment, or None when the triangle lies strictly on
    one side.  A vertex exactly on the plane counts as a degenerate crossing.
    """
    s = tri @ n - d0
    pos = s > eps
    neg = s < -eps
    if pos.all() or neg.all():
        return None
    pts = []
    for i in range(3):
        j = (i + 1) % 3
        si, sj = s[i], s[j]
        if abs(si) <= eps:
            pts.append(tri[i])
            continue
        if (si > 0) != (sj > 0) and abs(sj) > eps:
            t = si / (si - sj)
            pts.append(tri[i] + t * (tri[j] - tri[i]))
    if len(pts) < 2:
        return None
    arr = np.array(pts)
    # keep the two farthest-apart points (duplicates collapse)
    if len(arr) > 2:
        best, pair = -1.0, (0, 1)
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                dd = float(np.linalg.norm(arr[i] - arr[j]))
                if dd > best:
                    best, pair = dd, (i, j)
        arr = arr[[pair[0], pair[1]]]
    return arr
