"""Reference versions of routines on the ``ccp generate`` path, which the
library must reproduce exactly: the same floats, partitions, meshes and
errors.

``f_angle_sum`` clamps with np.clip on Python floats;
``retile_pierced_face`` tests each hole vertex with its own numpy calls and
takes each sub-face's area with its own polygon_area_2d call.  ``glue``
is one connected sum as data, with a renumbered copy of every face and
mask passes over every cell.  The chain builders ``gen_minimal``,
``gen_n5g_odd``, ``gen_q2_9`` and ``gen_q3_18`` glue one validated block
at a time with it and validate each step with ``build_glued``, so every
step of a chain is a validated mesh.  ``drill_repeat`` builds raw input
first and then drills one validated mesh at a time, so every intermediate
mesh of a multiple drill is validated in full, and locates each pierced
face with its own ``_locate_face`` call on that mesh's full geometry.
"""

from __future__ import annotations

import math

import numpy as np

from ccpforge import (DrillSpec, FaceCorrespondence, build_polyhedron,
                      drill, gen_r_block, gen_s_base, gen_t_block,
                      solve_block_params)
from ccpforge import _geom
from ccpforge.errors import (AxisObstructed, BadOrder, DomainError,
                             FootprintTooLarge, HoleNotInside, NotIsometric,
                             SelfCrossingPartition)
from ccpforge.generators import (_MAP_A, _MAP_A_FIRST, _MAP_B, _n5g_params,
                                 _orbit)
from ccpforge.mesh import MeshData, MeshMetadata, Polyhedron, replace_meta
from ccpforge.surgery import build_glued, resolve_correspondence

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
        if _geom.interior_clearance(q, o2) is None or \
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


def _parts(p):
    """p's parts with their edge cells."""
    if isinstance(p, Polyhedron):
        return MeshData(p.vertices, p.faces, p.metadata, p.geometry.cells)
    return p.paired()


def glue(p1, p2, corr: FaceCorrespondence) -> MeshData:
    """The parts of the connected sum of p1 and p2, not yet validated:
    remove the two corresponding faces, rigidly move p2 so the cycles
    coincide, and identify them vertex by vertex."""
    a, b = _parts(p1), _parts(p2)
    mapping = resolve_correspondence(a, b, corr)
    c1 = a.faces[corr.face1]
    k = len(c1)
    src = b.vertices[list(mapping)]
    dst = a.vertices[list(c1)]
    rot, tr = _geom.kabsch(src, dst)
    scale = max(1.0, float(np.abs(dst).max()))
    resid = float(np.abs(rot @ src.T + tr[:, None] - dst.T).max())
    if resid > 1e-9 * scale:
        raise NotIsometric(
            f"cycles are not congruent (rigid-fit residual {resid:.2e})")
    moved = (rot @ b.vertices.T).T + tr

    # b's vertices: the seam ones become face1's, the rest are appended
    n1 = len(a.vertices)
    new_id = np.full(len(b.vertices), -1, dtype=np.intp)
    new_id[list(mapping)] = c1
    fresh = new_id < 0
    new_id[fresh] = n1 + np.arange(np.count_nonzero(fresh))
    verts = np.vstack([a.vertices, moved[fresh]])
    new_id = new_id.tolist()

    faces = [cyc for i, cyc in enumerate(a.faces) if i != corr.face1]
    faces += [tuple(new_id[v] for v in cyc)
              for i, cyc in enumerate(b.faces) if i != corr.face2]

    # Every cell through face1 or face2 leaves one half-edge beyond the seam;
    # the two left at position i of face1's cycle form that seam's cell.
    # Side s of face2 sits at the position whose mapped segment it is.
    cyc2 = b.faces[corr.face2]
    seam_pos = {frozenset((mapping[i], mapping[(i + 1) % k])): i
                for i in range(k)}
    pos2 = np.array([seam_pos[frozenset((cyc2[s], cyc2[(s + 1) % k]))]
                     for s in range(k)])
    cells, halves = [], []
    for p, face, pos, offset in ((a, corr.face1, np.arange(k), 0),
                                 (b, corr.face2, pos2, len(a.faces) - 1)):
        rows = p.cells
        half = np.full((k, 2), -1, dtype=np.intp)
        for side, beyond in ((0, [2, 3]), (2, [0, 1])):
            on = rows[:, side] == face
            half[pos[rows[on, side + 1]]] = rows[on][:, beyond]
        if (half < 0).any():
            raise NotIsometric("seam pairing incomplete")
        rest = rows[(rows[:, [0, 2]] != face).all(axis=1)]
        for f in (rest[:, 0::2], half[:, :1]):    # face ids in the result
            f += offset - (f > face)
        cells.append(rest)
        halves.append(half)
    cells.append(np.hstack(halves))

    seams = set(a.metadata.seam_edges)
    for (u, w) in b.metadata.seam_edges:
        u, w = new_id[u], new_id[w]
        seams.add((u, w) if u < w else (w, u))
    meta = replace_meta(a.metadata, seam_edges=seams)
    meta.provenance.append(
        f"connect_sum(face {corr.face1} ~ face {corr.face2})")
    meta.genus = None
    meta.orientable = None
    return MeshData(verts, faces, meta, np.vstack(cells))


def connect_sum(p1, p2, corr: FaceCorrespondence):
    """glue, validated in full."""
    return build_glued(glue(p1, p2, corr))


def _chain_half(params: list[tuple[float, float]]):
    """Assemble T(l_1,d_1) # ... # T(l_m,d_m) along the zigzag rectangle
    chain.  Returns (mesh, giving face id, giving cycle vertex ids)."""
    mesh = gen_t_block(*params[0])
    give_face = 2
    give_cycle = (1, 2, 5, 4)    # (v2, v3, v6, v5)
    for i, (l, d) in enumerate(params[1:], start=2):
        block = gen_t_block(l, d)
        n_faces, n_verts = mesh.n_faces, mesh.n_vertices
        h = give_cycle
        if i % 2 == 0:           # receive on rect A
            mapping = _MAP_A_FIRST if i == 2 else _MAP_A
            face2 = 0
            give_cycle = ((h[1], n_verts, n_verts + 1, h[2])
                          if i == 2 else
                          (h[0], n_verts, n_verts + 1, h[3]))
        else:                    # receive on rect B
            mapping = _MAP_B
            face2 = 1
            give_cycle = (n_verts, h[1], h[2], n_verts + 1)
        mesh = connect_sum(mesh, block,
                           FaceCorrespondence(give_face, face2,
                                              mapping=mapping))
        give_face = n_faces
    return mesh, give_face, give_cycle


def gen_minimal(g: int):
    params = solve_block_params(g)
    defect = -(2 * g - 2) * math.pi / (g + 2)
    if g == 1:
        out = gen_t_block(*params.terminal)
    elif g % 2 == 0:
        mesh, gf, gc = _chain_half(list(params.pairs))
        mapping = (gc[1], gc[0], gc[3], gc[2])
        out = connect_sum(mesh, mesh, FaceCorrespondence(gf, gf,
                                                         mapping=mapping))
    else:
        m = len(params.pairs)
        half, gf, _ = _chain_half(list(params.pairs))
        centre = gen_t_block(*params.terminal)
        mapping = _MAP_A if m % 2 == 0 and m >= 2 else _MAP_A_FIRST
        mesh = connect_sum(half, centre,
                           FaceCorrespondence(gf, 0, mapping=mapping))
        rb_face = half.n_faces - 1
        h2 = half.faces[gf]
        if m % 2 == 0 and m >= 2:
            mapping2 = (h2[2], h2[3], h2[0], h2[1])
        else:
            mapping2 = (h2[3], h2[2], h2[1], h2[0])
        out = connect_sum(mesh, half,
                          FaceCorrespondence(rb_face, gf, mapping=mapping2))
    return out.with_metadata(family="minimal", genus=g, orientable=True,
                             expected_defect=defect)


def gen_n5g_odd(g: int):
    if g > 11:
        out = drill_repeat(gen_n5g_odd(7), DrillSpec(0, 1, 7), (g - 7) // 2)
        chi = out.n_vertices - out.n_edges + out.n_faces
        return out.with_metadata(family="n5g", genus=g, orientable=False,
                                 expected_defect=TAU * chi / out.n_vertices)
    a, h2, r = _n5g_params(g)
    t = math.tan(5 * a / 4)
    s = math.sqrt(9 / 4 - h2 * h2)
    rho_top = math.sqrt(3) / 2 * t - s
    verts = _orbit([np.array([rho_top, 0.0, h2]),
                    np.array([math.sqrt(3) / 2 * t,
                              -math.sqrt(3) / 2, 0.0])], g)

    def v1(k):
        return 2 * (k % g)

    def v2(k):
        return 2 * (k % g) + 1

    faces = [tuple(v1(k) for k in range(g)),
             tuple(v2(k) for k in range(g))]
    for k in range(g):
        faces.append((v1(k), v2(k), v2(k + 1)))
    for k in range(g):
        faces.append((v1(k), v2(k + 1), v1(k + 1)))
    out = build_polyhedron(np.array(verts), faces,
                           metadata=MeshMetadata(family="n5g-drum"))
    block = gen_r_block(r, 1.0)
    for _ in range(g):
        out = connect_sum(out, block,
                          FaceCorrespondence(2, 0, mapping=(0, 2, 1)))
    return out.with_metadata(family="n5g", genus=g, orientable=False,
                             expected_defect=-a)


def gen_q2_9():
    r = 0.5
    h = 0.5 * math.sqrt(3 * (1 + math.sqrt(3)))
    r1, r2 = gen_r_block(r, h), gen_r_block(r, h)
    out = connect_sum(r1, r2, FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
    return out.with_metadata(family="q2-9", genus=2, orientable=False,
                             expected_defect=0.0)


def gen_q3_18():
    sp9 = math.sin(math.pi / 9)
    r = 2 * sp9 / (1 + 2 * sp9)
    h = math.sqrt(-4 * sp9 * sp9 - 2 * sp9 + 2) / (1 + 2 * sp9)
    out = gen_s_base()
    block = gen_r_block(r, h)
    for _ in range(3):
        out = connect_sum(out, block, FaceCorrespondence(2, 0,
                                                         mapping=(0, 2, 1)))
    return out.with_metadata(family="q3-18", genus=3, orientable=False,
                             expected_defect=-math.pi / 9)


def _locate_face(geo, point: np.ndarray, plane) -> tuple[int | None, float]:
    """First face whose plane matches `plane` and whose polygon strictly
    contains the point, plus the point's clearance to that polygon's
    boundary.  The candidates are the faces whose corners all lie near the
    plane; those of one length are tested together."""
    d0, n = plane
    scale = geo.scale
    offset = np.abs(geo.vertices[geo.corner_vertex] @ n - d0)
    faces = np.flatnonzero(
        np.maximum.reduceat(offset, geo.face_start) <= 1e-7 * scale)
    geo.fit(faces)
    clearance = np.zeros(len(faces))
    inside = np.zeros(len(faces), dtype=bool)
    sizes = geo.face_size[faces]
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == k)
        f = faces[rows]
        q = _geom.project_2d(np.broadcast_to(point, (len(rows), 1, 3)),
                             geo.centroid[f], geo.u[f], geo.v[f])[:, 0]
        poly = geo.uv[geo.face_start[f, None] + np.arange(k)]
        clearance[rows] = _geom.dist_point_polygon_boundary(q, poly)
        inside[rows] = _geom.winds_around(q, poly)
    hits = np.flatnonzero(inside & (clearance > 1e-9 * scale))
    if hits.size == 0:
        return None, 0.0
    return int(faces[hits[0]]), float(clearance[hits[0]])


def drill_repeat(p, spec: DrillSpec, k: int):
    """k parallel drills along offset copies of the axis, each a validated
    drill of the mesh the one before returned; raw input is built first."""
    if isinstance(p, MeshData):
        p = build_glued(p)
    if k < 1:
        raise BadOrder("k must be >= 1")
    if k == 1:
        return drill(p, spec)
    geo = p.geometry
    c1, n1, u1, v1 = (a[spec.face1] for a in (geo.centroid, geo.normal,
                                              geo.u, geo.v))
    p1pt = c1 if spec.point is None else np.asarray(spec.point, float)
    q1 = _geom.project_2d(p1pt[None, :], c1, u1, v1)[0]
    d0 = _geom.dist_point_polygon_boundary(q1, geo.polygons[spec.face1])
    delta = d0 / (2 * k)
    plane1 = (float(n1 @ c1), n1)
    plane2 = (float(n1 @ geo.centroid[spec.face2]), n1)

    last_err: Exception | None = None
    for theta in (t * math.pi / 7 for t in range(7)):
        u_dir = math.cos(theta) * u1 + math.sin(theta) * v1
        out = p
        try:
            for j in range(k):
                axis_pt = p1pt + (j - (k - 1) / 2) * delta * u_dir
                f1, clr1 = _locate_face(out.geometry, axis_pt, plane1)
                exit_pt = axis_pt - (float(axis_pt @ n1) - plane2[0]) * n1
                f2, clr2 = _locate_face(out.geometry, exit_pt, plane2)
                if f1 is None or f2 is None:
                    raise FootprintTooLarge(
                        f"drill {j + 1}/{k}: axis offset leaves the "
                        f"pierced faces")
                radius = spec.radius if spec.radius is not None else \
                    0.25 * min(clr1, clr2, delta / 2)
                out = drill(out, DrillSpec(f1, f2, spec.n, tuple(axis_pt),
                                           radius, spec.phase))
            return out
        except (FootprintTooLarge, AxisObstructed,
                SelfCrossingPartition) as exc:
            last_err = exc
    raise FootprintTooLarge(
        f"no workable offset direction for {k} parallel drills: {last_err}")
