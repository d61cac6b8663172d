"""The per-mesh path calls numpy's ufuncs, ufunc reductions and ndarray
methods, not the Python wrappers that end in them (README, "Geometry
notes").  An ast scan of the per-mesh modules, the generators and file
I/O fails on a wrapper the rule removed; the other tests compare each
rewritten helper with the wrapper form it replaced, byte for byte, on
seeded random stacks and on the catalog's small genera, and the dot
products of np.vecdot and np.matvec with the stacked matmuls they
replaced."""

import ast
import operator
from pathlib import Path

import numpy as np
import pytest

from ccpforge import _geom
from ccpforge.errors import DegenerateFace, IndexOutOfRange, NonManifoldEdge
from ccpforge.mesh import (_Corners, _checked_corners, _corner_layout,
                           _derived_cells, _intp_entries)
from ccpforge.metrics import _TriangleScan

from test_self_intersection_oracle import SMALL_GENERA, family

SRC = Path(__file__).resolve().parent.parent / "src" / "ccpforge"
MODULES = ("_geom.py", "mesh.py", "metrics.py", "surgery.py",
           "generators.py", "fileio.py")
# np.<name> wrappers the rule replaced; np.r_ is indexed, not called
FUNCTIONS = {"flatnonzero", "stack", "vstack", "hstack", "r_", "tile",
             "diff", "array_equal", "roll", "cross", "argsort",
             "searchsorted", "cumsum", "repeat", "sort", "argmin", "argmax",
             "mean", "sum", "max", "min", "all", "any"}
# ndarray methods that forward to Python code (numpy._core._methods)
METHODS = {"mean", "sum", "max", "min", "all", "any"}


def wrapper_uses(source: str) -> list[tuple[int, str]]:
    """(line, text) of each use of a wrapper the rule removed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            text = ast.unparse(node)
            if text == "np.linalg.norm" or (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "np" and node.attr in FUNCTIONS):
                out.append((node.lineno, text))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in METHODS:
            out.append((node.lineno, ast.unparse(node.func)))
    return sorted(set(out))


@pytest.mark.parametrize("module", MODULES)
def test_per_mesh_modules_call_no_removed_wrapper(module):
    assert wrapper_uses((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_each_kind_of_wrapper():
    source = "\n".join([
        "np.flatnonzero(m)", "np.r_[first, n]", "np.linalg.norm(x, axis=1)",
        "x.mean(axis=-2)", "m.all()", "np.argsort(a, kind='stable')",
        "np.add.reduce(x, axis=-2)", "np.iinfo(np.intp).min", "max(a, b)",
        "m.nonzero()[0]", "a.argsort()"])
    assert [line for line, _ in wrapper_uses(source)] == [1, 2, 3, 4, 5, 6]


def stacks(seed):
    """Seeded (n, 3) and (n, k, 3) float stacks, k = 3..8, with entries
    across twelve decades, a tenth of them +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    for shape in [(300, 3)] + [(80, k, 3) for k in range(3, 9)]:
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        zero = rng.random(shape) < 0.1
        x[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5,
                           0.0, -0.0)
        yield x


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cross_is_np_cross(seed):
    for a, b in zip(stacks(seed), stacks(seed + 10)):
        same_bytes(_geom.cross(a, b), np.cross(a, b))
        same_bytes(_geom.cross(a, b[:1]), np.cross(a, b[:1]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linalg_norm_is_np_linalg_norm(seed):
    for x in stacks(seed):
        same_bytes(_geom.linalg_norm(x), np.linalg.norm(x, axis=-1))
    # the BLAS norm rounds other rows otherwise, so the two are not one
    x = next(stacks(seed))
    assert np.count_nonzero(_geom.norm(x) != _geom.linalg_norm(x)) > 10


def plane_fit_wrappers(pts):
    """_geom.plane_fit, Newell's planes, with numpy's wrappers."""
    c = pts.mean(axis=-2)
    d = pts - c[..., None, :]
    newell = np.cross(d, np.roll(d, -1, axis=-2)).sum(axis=-2)
    n = newell / _geom.norm(newell)[..., None]
    resid = np.abs((d @ n[..., :, None])[..., 0]).max(axis=-1)
    return c, n, resid


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plane_fit_centroid_is_the_mean(seed):
    """The centroid is ndarray.mean's, and with it the Newell normal and
    the residual keep their bits."""
    for pts in stacks(seed):
        got = _geom.plane_fit(pts)
        same_bytes(got[0], pts.mean(axis=-2))
        for g, w in zip(got, plane_fit_wrappers(pts)):
            same_bytes(g, w)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_project_2d_is_the_stack_form(seed):
    for pts in stacks(seed):
        o = pts[..., 0, :]
        u, v = _geom.plane_basis(_geom.cross(pts[..., 1, :] - o,
                                             pts[..., 2, :] - o))
        d = pts - o[..., None, :]
        want = np.stack([(d @ u[..., :, None])[..., 0],
                         (d @ v[..., :, None])[..., 0]], axis=-1)
        same_bytes(_geom.project_2d(pts, o, u, v), want)


def test_tolerance_scale_is_the_max():
    for x in stacks(4):
        assert _geom.tolerance_scale(x) == max(1.0, float(np.abs(x).max()))
        same_bytes(_geom.tolerance_scale(x, axis=-1),
                   np.maximum(1.0, np.abs(x).max(axis=-1)))


def matmul_dot(a, b):
    """_geom.dot as a stacked matmul of rows by columns."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matmul_matvec(m, x):
    """np.matvec as a stacked matmul by columns."""
    return (m @ x[..., :, None])[..., 0]


def views(x):
    """x and strided views of it: a column of coordinates, every other
    row, rows reversed, and a transposed copy's transpose."""
    out = [x, x[..., ::2, :], x[..., ::-1, :], np.ascontiguousarray(
        np.swapaxes(x, -1, -2)).swapaxes(-1, -2)]
    if x.ndim == 3:
        out += [x[..., 0], x[:, ::2]]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vecdot_is_the_stacked_matmul(seed):
    """_geom.dot (np.vecdot) rounds each pair as the stacked matmul did,
    on contiguous and strided stacks and broadcast against one row."""
    for a, b in zip(stacks(seed), stacks(seed + 10)):
        for x, y in zip(views(a), views(b)):
            same_bytes(_geom.dot(x, y), matmul_dot(x, y))
            same_bytes(_geom.dot(x, y[..., :1, :]),
                       matmul_dot(x, y[..., :1, :]))
        same_bytes(_geom.norm(a), np.sqrt(matmul_dot(a, a)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matvec_is_the_stacked_matmul(seed):
    """np.matvec, by which plane_fit, project_2d and the scan's plane
    distances take a stack of matrix-by-vector products, rounds each as
    the stacked matmul did: C-ordered, F-ordered, every-other-row and
    one-row matrices, and vectors per matrix, strided or one for all.
    Rows at a negative stride are left out: BLAS does not take them, and
    then matmul sums each product in a loop of its own and matvec by
    ddot, which round apart on these stacks.  Each library caller hands
    np.matvec a fresh difference or gather, which is C-ordered."""
    for pts, other in zip(list(stacks(seed))[1:], list(stacks(seed + 10))[1:]):
        vec = other[:, 0, :]                    # strided rows, one per set
        for m in views(pts)[:2] + views(pts)[3:4] + [pts[:, :1]]:
            for x in (vec, np.ascontiguousarray(vec), vec[:1], vec[0]):
                same_bytes(np.matvec(m, x), matmul_matvec(m, x))


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA[:8])
def test_scan_distances_are_the_stacked_matmul(name, genus, params):
    """_TriangleScan._distances takes each triangle's vertices against
    another's plane by np.matvec, with the stacked matmul's bytes."""
    scan = _TriangleScan(family(name, genus, **params))
    n = len(scan.tri)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
    d = matmul_matvec(scan.tri.take(i, axis=0), scan.normal.take(j, axis=0))
    same_bytes(scan._distances(i, j), d.T - scan.offset[j])


def corners_wrappers(sizes, vertex):
    """mesh._corners as it read with numpy's wrappers."""
    ends = np.cumsum(sizes)
    start = ends - sizes
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = start
    return _Corners(sizes, start, vertex,
                    np.repeat(np.arange(len(sizes)), sizes), nxt)


def derived_cells_wrappers(corners):
    """mesh._derived_cells as it read with numpy's wrappers."""
    u, v = corners.vertex, corners.vertex[corners.next]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((np.arange(len(u)), hi, lo))
    lo, hi = lo[order], hi[order]
    key_starts = np.ones(len(lo), dtype=bool)
    key_starts[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(key_starts)
    uses = np.diff(np.r_[first, len(lo)])
    bad = np.flatnonzero(uses != 2)
    if bad.size:
        i = first[bad[0]]
        raise NonManifoldEdge(
            f"edge {(int(lo[i]), int(hi[i]))} used {uses[bad[0]]} times; "
            f"meshes with doubled segments need explicit edge_slots")
    slot = order - corners.start[corners.face[order]]
    cells = np.stack([corners.face[order], slot], axis=1).reshape(-1, 4)
    return cells, np.stack([lo[::2], hi[::2]], axis=1)


def checked_corners_wrappers(faces, n):
    """mesh._checked_corners as it read with numpy's wrappers."""
    faces = list(faces)
    sizes = np.fromiter(map(len, faces), np.intp, len(faces))
    flat = [v for cyc in faces for v in cyc]
    vertex, bad = _intp_entries(flat)
    n_faces = len(sizes)
    face = np.repeat(np.arange(n_faces), sizes)
    inside = (vertex >= 0) & (vertex < n)
    ids, m = vertex, n
    if not inside.all():
        uniq, ids = np.unique(vertex, return_inverse=True)
        m = len(uniq)
    key = np.sort(face * m + ids)
    repeat = key[1:][key[1:] == key[:-1]] // m
    short = np.flatnonzero(sizes < 3)
    outside = np.flatnonzero(~inside)
    fails = [face[bad] if bad < len(flat) else n_faces,
             short[0] if short.size else n_faces,
             repeat[0] if repeat.size else n_faces,
             face[outside[0]] if outside.size else n_faces]
    fi = min(fails)
    if fi == n_faces:
        return corners_wrappers(sizes, vertex)
    check = fails.index(fi)
    if check == 0:
        try:
            v = operator.index(flat[bad])
        except TypeError:
            raise IndexOutOfRange(
                f"face {fi} vertex {flat[bad]!r} is not an integer") from None
    elif check == 1:
        raise DegenerateFace(f"face {fi} has fewer than 3 vertices")
    elif check == 2:
        raise DegenerateFace(f"face {fi} repeats a vertex")
    else:
        v = vertex[outside[0]]
    raise IndexOutOfRange(f"face {fi} references vertex {v}")


def outcome(fn, *args):
    """fn(*args)'s arrays, or its error's type and message."""
    try:
        return tuple(fn(*args))
    except (DegenerateFace, IndexOutOfRange, NonManifoldEdge) as exc:
        return type(exc), str(exc)


def same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bytes(g, w)


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_layout_and_cells_are_the_wrapper_forms(name, genus, params):
    """_checked_corners and _derived_cells on each small catalog mesh
    equal their wrapper forms, array for array and byte for byte; a glued
    mesh with doubled segments fails _derived_cells with the same
    message."""
    p = family(name, genus, **params)
    corners = _checked_corners(p.faces, p.n_vertices)
    same_outcome(outcome(lambda: corners),
                 outcome(checked_corners_wrappers, p.faces, p.n_vertices))
    same_outcome(outcome(_derived_cells, corners),
                 outcome(derived_cells_wrappers, corners))


TETRA = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]


@pytest.mark.parametrize("faces", [
    TETRA, [], TETRA[:3], TETRA + TETRA[:1], [(0, 1)] + TETRA,
    [(0, 1, 1)] + TETRA, [(0, 1, 9)] + TETRA, [(0, 1, -1)] + TETRA,
    [(0, 1, 2.5)] + TETRA, [(0, 1, 2**70)] + TETRA, [tuple(range(4))] * 2,
    # two pillows sharing only their last vertex pair, (2, 3)
    [(0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)]])
def test_bad_faces_fail_as_in_the_wrapper_forms(faces):
    want = outcome(checked_corners_wrappers, faces, 4)
    same_outcome(outcome(_checked_corners, faces, 4), want)
    if not isinstance(want[0], type):
        layout = _corner_layout(faces)
        same_outcome(outcome(_derived_cells, layout),
                     outcome(derived_cells_wrappers, layout))
