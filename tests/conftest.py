import operator
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ccpforge import build_polyhedron
from ccpforge.mesh import (Combinatorics, MeshGeometry, MeshMetadata,
                           Polyhedron, _corner_layout, _derived_cells)


def cube_data():
    verts = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                      for z in (-1, 1)], float)

    def vid(x, y, z):
        return 4 * (x > 0) + 2 * (y > 0) + (z > 0)

    faces = [
        [vid(-1, -1, -1), vid(-1, 1, -1), vid(1, 1, -1), vid(1, -1, -1)],
        [vid(-1, -1, 1), vid(1, -1, 1), vid(1, 1, 1), vid(-1, 1, 1)],
        [vid(-1, -1, -1), vid(1, -1, -1), vid(1, -1, 1), vid(-1, -1, 1)],
        [vid(-1, 1, -1), vid(-1, 1, 1), vid(1, 1, 1), vid(1, 1, -1)],
        [vid(-1, -1, -1), vid(-1, -1, 1), vid(-1, 1, 1), vid(-1, 1, -1)],
        [vid(1, -1, -1), vid(1, 1, -1), vid(1, 1, 1), vid(1, -1, 1)],
    ]
    return verts, faces


def as_tuples(cells, pairs):
    """(E, 4) edge cells and their (E, 2) vertex pairs as the tuples of
    Polyhedron.edge_slots and Polyhedron.edges."""
    return (tuple(((a, b), (c, d)) for a, b, c, d in cells.tolist()),
            tuple(map(tuple, pairs.tolist())))


def unchecked_mesh(vertices, faces):
    """A Polyhedron on `vertices` and `faces`, their sides paired by vertex
    pair (each pair must occur twice), with none of build_polyhedron's
    other checks: a scan input that need not be one surface."""
    vertices = np.array(vertices, float)
    corners = _corner_layout(faces)
    record = Combinatorics(len(vertices), corners, *_derived_cells(corners))
    return Polyhedron._of_arrays(vertices, record, MeshMetadata(),
                                 MeshGeometry(vertices, record))


# per kind of in-place change to a MeshMetadata, the change and the error
# its frozen form raises
METADATA_CHANGES = {
    "field": (lambda m: setattr(m, "genus", 99), FrozenInstanceError),
    "label": (lambda m: operator.setitem(m.vertex_labels, "a", 99),
              TypeError),
    "seam": (lambda m: m.seam_edges.add((0, 99)), AttributeError),
    "provenance": (lambda m: m.provenance.append("drill"), AttributeError),
}


def refuses_change(meta) -> None:
    """Every change of METADATA_CHANGES raises its error on meta, which
    stays equal to what it was."""
    before = replace(meta)
    for change, error in METADATA_CHANGES.values():
        with pytest.raises(error):
            change(meta)
    assert meta == before


def face_polygon(geo, f):
    """Face f's cycle in its (u, v) frame: the (k, 2) slice of geo.uv
    its corners hold."""
    start = geo.face_start[f]
    return geo.uv[start:start + geo.face_size[f]]


def face_triangles(p):
    """Per face: its ear-clipped triangles as a (k-2, 3, 3) array of
    world-space points."""
    vertex, face = p.geometry.triangulation
    return np.split(p.vertices[vertex], np.cumsum(np.bincount(
        face, minlength=p.n_faces))[:-1])


def assert_same_planes(p, q):
    """The face planes of p and q, every plane array of MeshGeometry,
    are equal to the last bit."""
    for name in ("centroid", "normal", "residual", "u", "v", "area", "uv"):
        assert getattr(p.geometry, name).tobytes() == \
            getattr(q.geometry, name).tobytes(), name


@pytest.fixture
def cube():
    return build_polyhedron(*cube_data())


def random_rigid_motion(rng):
    """Proper rotation plus translation."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.normal(size=3) * 3.0
    return q, t
