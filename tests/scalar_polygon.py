"""The numpy-scalar polygon routines, kept as the reference that
``ccpforge._geom.polygon_is_simple`` and ``ccpforge._geom.ear_clip`` must
reproduce exactly: the same booleans, the same index triples and the same
errors.

They index numpy arrays point by point and do their arithmetic on numpy
scalars, so they are slow; the tests run them on a few thousand small
polygons only.  The two helpers below are shared with the scalar scan
(``scalar_scan``), and dist_point_segment is also the reference of
``ccpforge._geom.dist_point_polygon_boundary``.
"""

from __future__ import annotations

import numpy as np

from ccpforge._geom import polygon_area_2d
from ccpforge.errors import DegenerateFace


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dist_point_segment(pt, a, b) -> float:
    """Distance from a point to the segment ab, in any dimension."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(pt - a))
    t = np.clip(float((pt - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(pt - (a + t * ab)))


def _segments_cross(a, b, c, d, eps=1e-12):
    """Proper or touching intersection of open segments ab and cd."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if ((o1 > eps and o2 < -eps) or (o1 < -eps and o2 > eps)) and \
       ((o3 > eps and o4 < -eps) or (o3 < -eps and o4 > eps)):
        return True
    return False


def polygon_is_simple(p: np.ndarray, eps=1e-12) -> bool:
    """Check that no two non-adjacent edges of the 2D cycle cross."""
    k = len(p)
    for i in range(k):
        a, b = p[i], p[(i + 1) % k]
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue
            c, d = p[j], p[(j + 1) % k]
            if _segments_cross(a, b, c, d, eps):
                return False
    return True


def ear_clip(poly2d: np.ndarray, eps: float = 1e-12) -> list[tuple[int, int, int]]:
    """Triangulate a simple 2D polygon (reflex vertices allowed) by ear
    clipping.  Returns index triples into the input cycle."""
    k = len(poly2d)
    if k < 3:
        raise DegenerateFace("polygon with fewer than 3 vertices")
    if k == 3:
        return [(0, 1, 2)]
    idx = list(range(k))
    pts = poly2d
    ccw = polygon_area_2d(pts) > 0
    tris: list[tuple[int, int, int]] = []
    scale = max(1.0, float(np.abs(pts).max()))
    area_eps = eps * scale * scale
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * k * k:
            raise DegenerateFace("ear clipping failed to converge")
        clipped = False
        m = len(idx)
        for ii in range(m):
            i0, i1, i2 = idx[(ii - 1) % m], idx[ii], idx[(ii + 1) % m]
            a, b, c = pts[i0], pts[i1], pts[i2]
            cross = _cross2(b - a, c - a)
            if not ccw:
                cross = -cross
            if cross <= area_eps:
                continue  # reflex or collinear corner
            # no other remaining vertex inside the candidate ear
            ok = True
            for jj in idx:
                if jj in (i0, i1, i2):
                    continue
                if _tri_contains(a, b, c, pts[jj], ccw, area_eps):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(ii)
                clipped = True
                break
        if not clipped:
            raise DegenerateFace("no ear found; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def _tri_contains(a, b, c, p, ccw, eps):
    s = 1.0 if ccw else -1.0
    return (s * _cross2(b - a, p - a) >= -eps and
            s * _cross2(c - b, p - b) >= -eps and
            s * _cross2(a - c, p - c) >= -eps)
