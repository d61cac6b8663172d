"""The numpy-call versions of two routines on the ``ccp generate`` path,
kept as the reference that ``ccpforge.generators.f_angle_sum`` and
``ccpforge.surgery.retile_pierced_face`` must reproduce exactly: the same
floats, the same partitions and the same errors.

``f_angle_sum`` clamps with np.clip on Python floats;
``retile_pierced_face`` tests each hole vertex with its own numpy calls and
takes each sub-face's area with its own polygon_area_2d call.
"""

from __future__ import annotations

import math

import numpy as np

from ccpforge import _geom
from ccpforge.errors import (DomainError, HoleNotInside,
                             SelfCrossingPartition)

TAU = 2.0 * math.pi


def f_angle_sum(l: float, d: float) -> float:
    """Sum of the three triangle angles at a T(l, d) apex vertex:
    2*arccos((2l^2-d^2)/(2l sqrt(l^2+1))) + arccos((2(l^2+1)-d^2)/(2(l^2+1))).

    Strictly increasing in d on [0, 2l], with f(0) = pi - 2*arctan(l),
    f(l) = pi and f(2l) = pi + 4*arctan(l).
    """
    if l <= 0:
        raise DomainError("l must be positive")
    if not 0.0 <= d <= 2.0 * l:
        raise DomainError(f"d = {d} outside [0, {2 * l}]")
    u = np.clip((2 * l * l - d * d) / (2 * l * math.sqrt(l * l + 1)), -1, 1)
    w = np.clip((2 * (l * l + 1) - d * d) / (2 * (l * l + 1)), -1, 1)
    return 2 * math.acos(float(u)) + math.acos(float(w))


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
    outer = np.asarray(outer, float)
    hole = np.asarray(hole, float)
    ko, kh = len(outer), len(hole)
    c, n, resid = _geom.plane_fit(np.vstack([outer, hole]))
    scale = max(1.0, float(np.abs(outer).max()))
    if resid > 1e-9 * scale:
        raise HoleNotInside("hole is not coplanar with the outer face")
    u, v = _geom.plane_basis(n)
    o2 = _geom.project_2d(outer, c, u, v)
    h2 = _geom.project_2d(hole, c, u, v)
    for q in h2:
        if not _geom.point_in_polygon(q, o2) or \
           _geom.dist_point_polygon_boundary(q, o2) < 1e-12 * scale:
            raise HoleNotInside("hole not strictly inside the outer polygon")

    # counterclockwise index sequences over the original cycles
    o_seq = list(range(ko)) if _geom.polygon_area_2d(o2) > 0 \
        else list(reversed(range(ko)))
    h_seq = list(range(kh)) if _geom.polygon_area_2d(h2) > 0 \
        else list(reversed(range(kh)))
    centre = h2.mean(axis=0)
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
    annulus_area = abs(_geom.polygon_area_2d(o2)) - abs(_geom.polygon_area_2d(h2))

    def valid(faces_local):
        total = 0.0
        for cyc in faces_local:
            pts = all2[cyc]
            area = abs(_geom.polygon_area_2d(pts))
            if area < 1e-12 * scale * scale or \
               not _geom.polygon_is_simple(pts):
                return False
            total += area
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
