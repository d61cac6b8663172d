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


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis, componentwise as np.cross
    computes them (a1*b2 - a2*b1, ...), so with its bits, but without its
    axis moves."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    parts = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    return np.concatenate([c[..., None] for c in parts], axis=-1)


def _succ(a: np.ndarray, axis: int = -2) -> np.ndarray:
    """Each entry's successor along a cyclic axis: np.roll(a, -1, axis)
    for axis -1 or -2, without np.roll's per-call overhead."""
    if axis == -1:
        return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)
    return np.concatenate((a[..., 1:, :], a[..., :1, :]), axis=-2)


def tolerance_scale(points: np.ndarray, axis=None):
    """The scale of every length tolerance: the largest absolute coordinate
    of `points`, at least 1, or 1 if one is NaN; with `axis`, one per row
    taken over that axis, NaN for a row with a NaN."""
    top = np.abs(points).max(axis=axis)
    return max(1.0, float(top)) if axis is None else np.maximum(1.0, top)


def plane_fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-fit planes of (..., k, 3) point sets.

    Returns the centroids (..., 3), the unit normals (..., 3) and the
    largest distances of a point to its plane (...).  Each normal is the
    smallest principal direction, turned to agree with the Newell normal
    (right-hand rule over the cycle order) of its own points taken about
    their centroid, so that where the points lie does not sway the sign.
    """
    c = pts.mean(axis=-2)
    d = pts - c[..., None, :]
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    n = vt[..., -1, :]
    newell = cross(d, _succ(d)).sum(axis=-2)
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
    return u, cross(n, u)


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


def polygon_is_simple(p: np.ndarray | list, eps=1e-12) -> bool:
    """Check that no two non-adjacent edges of the 2D cycle, a (k, 2)
    array or a list of k pairs, cross properly: each endpoint of one lies
    more than eps to a strict side of the other's line.  The loop runs on
    Python floats, which round each orientation product exactly as numpy
    scalars do."""
    pts = p if isinstance(p, list) else p.tolist()
    k = len(pts)
    neps = -eps
    # per side: its two ends and its direction
    sides = [(ax, ay, bx, by, bx - ax, by - ay)
             for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
    for i in range(k - 2):
        ax, ay, bx, by, ux, uy = sides[i]
        # side i meets side i + 1 and, for i = 0, side k - 1 at a corner
        for cx, cy, dx, dy, vx, vy in sides[i + 2:k if i else k - 1]:
            o1 = ux * (cy - ay) - uy * (cx - ax)
            o2 = ux * (dy - ay) - uy * (dx - ax)
            if not (o1 > eps and o2 < neps or o1 < neps and o2 > eps):
                continue
            o3 = vx * (ay - cy) - vy * (ax - cx)
            o4 = vx * (by - cy) - vy * (bx - cx)
            if o3 > eps and o4 < neps or o3 < neps and o4 > eps:
                return False
    return True


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


def dist_point_polygon_boundary(pt: np.ndarray, poly: np.ndarray
                                ) -> np.ndarray:
    """Distances from (..., 2) points to the boundaries of (..., k, 2)
    polygons, the two broadcast against each other: every side at once,
    each rounded as the scalar distance to one segment rounds it
    (dist_point_segment in tests/scalar_polygon.py); a zero-length side
    measures to its endpoint."""
    ab = _succ(poly) - poly
    ap = pt[..., None, :] - poly
    num, denom = dot(ap, ab), dot(ab, ab)
    t = np.divide(num, denom, out=np.zeros(num.shape), where=denom != 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return norm(pt[..., None, :] - (poly + t[..., None] * ab)).min(axis=-1)


def inside_clearance(pt: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """How far (..., 2) points lie inside (..., k, 2) polygons, the two
    broadcast as in dist_point_polygon_boundary: the distance to the
    boundary where the polygon winds around the point, else 0."""
    return np.where(winds_around(pt, poly),
                    dist_point_polygon_boundary(pt, poly), 0.0)


def ear_clip(poly2d: np.ndarray | list, eps: float = 1e-12,
             scale: float | None = None) -> list[tuple[int, int, int]]:
    """Triangulate a simple 2D polygon (reflex vertices allowed), a (k, 2)
    array or a list of k pairs, by ear clipping.  Returns index triples
    into the input cycle.  The area tolerance is eps times the square of
    `scale`, the polygon's tolerance_scale when None.  The loops run on
    Python floats, which round each corner and containment product
    exactly as numpy scalars do; the orientation is the sign of the
    shoelace sum."""
    k = len(poly2d)
    if k < 3:
        raise DegenerateFace("polygon with fewer than 3 vertices")
    if k == 3:
        return [(0, 1, 2)]
    pts = poly2d if isinstance(poly2d, list) else poly2d.tolist()
    twice_area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                     in zip(pts, pts[1:] + pts[:1]))
    s = 1.0 if twice_area > 0 else -1.0
    if scale is None:
        scale = tolerance_scale(poly2d)
    area_eps = eps * scale * scale
    neps = -area_eps
    idx = list(range(k))
    tris: list[tuple[int, int, int]] = []
    # each pass clips one ear or raises
    while len(idx) > 3:
        m = len(idx)
        for ii in range(m):
            i0, i1, i2 = idx[ii - 1], idx[ii], idx[(ii + 1) % m]
            (ax, ay), (bx, by), (cx, cy) = pts[i0], pts[i1], pts[i2]
            abx, aby = bx - ax, by - ay
            if s * (abx * (cy - ay) - aby * (cx - ax)) <= area_eps:
                continue  # reflex or collinear corner
            bcx, bcy = cx - bx, cy - by
            cax, cay = ax - cx, ay - cy
            # no other remaining vertex inside the candidate ear
            for j in idx:
                if j == i0 or j == i1 or j == i2:
                    continue
                px, py = pts[j]
                if s * (abx * (py - ay) - aby * (px - ax)) >= neps and \
                   s * (bcx * (py - by) - bcy * (px - bx)) >= neps and \
                   s * (cax * (py - cy) - cay * (px - cx)) >= neps:
                    break
            else:
                tris.append((i0, i1, i2))
                del idx[ii]
                break
        else:
            raise DegenerateFace("no ear found; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


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
