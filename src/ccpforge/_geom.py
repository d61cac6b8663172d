"""Low-level planar/3D geometry helpers shared by the mesh, metrics and
surgery layers.  Everything operates on float64 numpy arrays."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFace


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the others.
    np.vecdot hands each pair of vectors to the BLAS ddot that np.dot
    uses, so a stack rounds row by row as one pair does."""
    return np.vecdot(a, b)


def norm(a: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis, rounded as np.linalg.norm
    rounds one vector."""
    return np.sqrt(dot(a, a))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis, componentwise as np.cross
    computes them (a1*b2 - a2*b1, ...), so with its bits, but without its
    axis moves: each component is written into one new array."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x = a1 * b2 - a2 * b1
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def linalg_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis with the bits of
    np.linalg.norm(a, axis=-1), which for real input sums the squares by
    np.add.reduce; they differ from norm's, whose sums are BLAS ddot's."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


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
    top = np.maximum.reduce(np.abs(points), axis=axis)
    return max(1.0, float(top)) if axis is None else np.maximum(1.0, top)


def plane_fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newell planes of (..., k, 3) point cycles, as MeshGeometry fits a
    face, for retile_pierced_face's annuli: the centroids (..., 3), the
    unit normals (..., 3), each the Newell vector of its cycle about its
    centroid over its length (NaN where it is zero), and the largest
    distances of a point to its plane (...)."""
    c = np.add.reduce(pts, axis=-2) / pts.shape[-2]
    d = pts - c[..., None, :]
    newell = np.add.reduce(cross(d, _succ(d)), axis=-2)
    with np.errstate(invalid="ignore"):
        n = newell / norm(newell)[..., None]
    resid = np.maximum.reduce(np.abs(np.matvec(d, n)), axis=-1)
    return c, n, resid


# the coordinate axes' ids, 0, 1 and 2, made once
_AXES = np.arange(3)


def plane_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane bases (u, v), u x v = n, of
    (..., 3) normals: u is the first axis whose |n_i| lies within 1e-12
    of n's smallest component, made orthogonal to n, so that rounding
    noise does not pick it: a z-facing face gets e_x."""
    n = n / norm(n)[..., None]
    a = np.abs(n)
    tied = a <= np.minimum.reduce(a, axis=-1)[..., None] + 1e-12
    e = (_AXES == tied.argmax(axis=-1)[..., None]) * 1.0
    w = e - dot(e, n)[..., None] * n
    u = w / norm(w)[..., None]
    return u, cross(n, u)


def project_2d(pts: np.ndarray, origin: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """(..., k, 3) points in the frames (origin, u, v), each (..., 3):
    their (..., k, 2) in-plane coordinates.  Each coordinate column is
    one np.matvec of the fresh, C-ordered offsets, which hands every
    matrix to BLAS gemv, so a stack rounds as one frame alone does."""
    d = pts - origin[..., None, :]
    out = np.empty(d.shape[:-1] + (2,))
    out[..., 0] = np.matvec(d, u)
    out[..., 1] = np.matvec(d, v)
    return out


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
    scalars do.  build_polyhedron asks it only about faces with a reflex
    corner or that do not turn once: any other face is convex, and a
    crossed quad, a bowtie, turns 0."""
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
    # per cycle the count of each, as np.count_nonzero(axis=-1) takes it
    return np.add.reduce(up, axis=-1, dtype=np.intp) != \
        np.add.reduce(down, axis=-1, dtype=np.intp)


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
    return np.minimum.reduce(
        norm(pt[..., None, :] - (poly + t[..., None] * ab)), axis=-1)


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
    if scale is None:
        scale = tolerance_scale(poly2d)
    area_eps = eps * scale * scale
    if k == 4:
        return _clip_quad(pts, area_eps)
    twice_area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                     in zip(pts, pts[1:] + pts[:1]))
    s = 1.0 if twice_area > 0 else -1.0
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


# per corner of a quad, as ear_clip tries them: the ear (i0, i1, i2), the
# fourth vertex, and the triangle left once the ear is clipped
_QUAD_EARS = (((3, 0, 1), 2, (1, 2, 3)), ((0, 1, 2), 3, (0, 2, 3)),
              ((1, 2, 3), 0, (0, 1, 3)), ((2, 3, 0), 1, (0, 1, 2)))


# measured gain, alone: p2-sweep +1.7%, certify-files +1.6% without it
def _clip_quad(pts: list, area_eps: float) -> list[tuple[int, int, int]]:
    """ear_clip of a quad, a list of four pairs, with the same products
    and sums: the orientation, then the first corner, in ear_clip's
    order, that is convex by more than area_eps and whose triangle does
    not hold the fourth vertex, then the triangle left."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    # the shoelace sum in ear_clip's order; its leading 0 + changes no sign
    s = 1.0 if (x0 * y1 - x1 * y0 + (x1 * y2 - x2 * y1)
                + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3)) > 0 else -1.0
    neps = -area_eps
    for (i0, i1, i2), j, rest in _QUAD_EARS:
        (ax, ay), (bx, by), (cx, cy) = pts[i0], pts[i1], pts[i2]
        abx, aby = bx - ax, by - ay
        if s * (abx * (cy - ay) - aby * (cx - ax)) <= area_eps:
            continue  # reflex or collinear corner
        px, py = pts[j]
        if s * (abx * (py - ay) - aby * (px - ax)) >= neps and \
           s * ((cx - bx) * (py - by) - (cy - by) * (px - bx)) >= neps and \
           s * ((ax - cx) * (py - cy) - (ay - cy) * (px - cx)) >= neps:
            continue  # the fourth vertex lies in the ear
        return [(i0, i1, i2), rest]
    raise DegenerateFace("no ear found; polygon may be non-simple")


def _det3(m: np.ndarray) -> float:
    """The determinant of a 3 x 3 matrix by cofactors, on Python floats."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proper rigid motion (R, t) minimizing |R @ src + t - dst|.  R is
    V diag(1, 1, d) U^T of the SVD U S V^T of the cross-covariance, with
    d the sign of det(V U^T): both factors are orthogonal, so the sign is
    that of the product of their cofactor determinants, each 1 or -1 to
    within rounding, and d = -1 negates V's last column."""
    cs = np.add.reduce(src, axis=0) / len(src)
    cd = np.add.reduce(dst, axis=0) / len(dst)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    if _det3(u) * _det3(vt) < 0:
        np.negative(vt[2], out=vt[2])
    r = vt.T @ u.T
    t = cd - r @ cs
    return r, t
