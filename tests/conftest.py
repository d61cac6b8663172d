import numpy as np
import pytest

from ccpforge import build_polyhedron
from ccpforge.mesh import _as_tuples, _corner_layout, _derived_cells


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


def _derive_edge_slots(faces):
    """Pair the half-edges by unordered vertex pair; every pair must occur
    exactly twice.  Returns (edge_slots, edge_pairs)."""
    return _as_tuples(*_derived_cells(_corner_layout(faces)))


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
