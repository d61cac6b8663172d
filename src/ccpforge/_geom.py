"""Low-level planar/3D geometry helpers shared by the mesh, metrics and
surgery layers.  Everything operates on float64 numpy arrays."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFace


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis.  Each is a stacked matmul, which
    hands a single pair of vectors to the BLAS ddot that np.dot uses, so
    a stack rounds row by row as one pair does."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(a: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis, rounded as np.linalg.norm
    rounds one vector."""
    return np.sqrt(dot(a, a))


def _succ(a: np.ndarray, axis: int = -2) -> np.ndarray:
    """Each entry's successor along a cyclic axis: np.roll(a, -1, axis)
    for axis -1 or -2, without np.roll's per-call overhead."""
    if axis == -1:
        return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)
    return np.concatenate((a[..., 1:, :], a[..., :1, :]), axis=-2)


def plane_fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-fit planes of (..., k, 3) point sets.

    Returns the centroids (..., 3), the unit normals (..., 3) and the
    largest distances of a point to its plane (...).  Each normal is the
    smallest principal direction, turned to agree with the Newell normal
    (right-hand rule over the cycle order) of its own points.
    """
    c = pts.mean(axis=-2)
    d = pts - c[..., None, :]
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    n = vt[..., -1, :]
    newell = np.cross(pts, _succ(pts)).sum(axis=-2)
    n = np.where((dot(n, newell) < 0)[..., None], -n, n)
    resid = np.abs((d @ n[..., :, None])[..., 0]).max(axis=-1)
    return c, n, resid


def plane_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane bases (u, v), u x v = n, of
    (..., 3) normals: u is the axis of n's smallest component made
    orthogonal to n."""
    n = n / norm(n)[..., None]
    e = (np.arange(3) == np.argmin(np.abs(n), axis=-1)[..., None]) * 1.0
    w = e - dot(e, n)[..., None] * n
    u = w / norm(w)[..., None]
    return u, np.cross(n, u)


def project_2d(pts: np.ndarray, origin: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """(..., k, 3) points in the frames (origin, u, v), each (..., 3):
    their (..., k, 2) in-plane coordinates."""
    d = pts - origin[..., None, :]
    return np.stack([(d @ u[..., :, None])[..., 0],
                     (d @ v[..., :, None])[..., 0]], axis=-1)


def polygon_area_2d(p: np.ndarray) -> np.ndarray:
    """Signed areas of (..., k, 2) polygons; positive for counterclockwise
    cycles."""
    x, y = p[..., 0], p[..., 1]
    return 0.5 * (dot(x, _succ(y, -1)) - dot(y, _succ(x, -1)))


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


def point_in_polygon(pt: np.ndarray, poly: np.ndarray) -> bool:
    """Winding-number test for a point strictly inside a simple 2D polygon.
    Points on the boundary are reported as outside."""
    return bool(dist_point_polygon_boundary(pt, poly) >= 1e-14
                and winds_around(pt, poly))


def winds_around(pt: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Whether (..., k, 2) cycles have a non-zero winding number about
    (..., 2) points off their boundaries."""
    nxt = _succ(poly)
    ab, ap = nxt - poly, pt[..., None, :] - poly
    side = ab[..., 0] * ap[..., 1] - ab[..., 1] * ap[..., 0]
    below = poly[..., 1] <= pt[..., None, 1]
    above = nxt[..., 1] > pt[..., None, 1]
    up = below & above & (side > 0)         # upward crossings, point left
    down = ~below & ~above & (side < 0)     # downward crossings, point right
    return np.count_nonzero(up, axis=-1) != np.count_nonzero(down, axis=-1)


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


def dist_point_polygon_boundary(pt: np.ndarray, poly: np.ndarray
                                ) -> np.ndarray:
    """Distances from (..., 2) points to the boundaries of (..., k, 2)
    polygons: dist_point_segment over every side at once, rounded side by
    side as that function rounds (a zero-length side measures to its
    endpoint)."""
    ab = _succ(poly) - poly
    ap = pt[..., None, :] - poly
    denom = dot(ab, ab)
    t = np.divide(dot(ap, ab), denom, out=np.zeros(denom.shape),
                  where=denom != 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return norm(pt[..., None, :] - (poly + t[..., None] * ab)).min(axis=-1)


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


def kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proper rigid motion (R, t) minimizing |R @ src + t - dst|."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    f = np.diag([1.0, 1.0, d])
    r = vt.T @ f @ u.T
    t = cd - r @ cs
    return r, t
