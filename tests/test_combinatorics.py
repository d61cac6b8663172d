"""mesh.Combinatorics: the record of a face list's combinatorics, which
every mesh built on it shares.  A mesh built on a generator's shared
record equals, bit for bit, the mesh built from the plain face list;
geometric faults give the same error on both paths; every shared array
is read-only; and once the record exists, a P^2_24 mesh and its
verification derive none of its combinatorics again."""

import math
import re

import numpy as np
import pytest

import ccpforge.generators as gen
import ccpforge.mesh as mesh_mod
from ccpforge import DrillSpec, build_polyhedron, drill_repeat, verify
from ccpforge.errors import CcpError
from ccpforge.mesh import Combinatorics, MeshData


def admissible_p2(rng, n):
    """n admissible (b, c) pairs: b > c > 0, sqrt(3) b < 1 and
    4 sqrt(3) c < 1."""
    s3 = math.sqrt(3.0)
    out = []
    for _ in range(n):
        c = float(rng.uniform(0.004, 1 / (4 * s3) - 0.004))
        out.append((float(rng.uniform(c + 0.004, 1 / s3 - 0.004)), c))
    return out


# per generator that builds on a shared record: its record, and the raw
# parts of a member drawn from a seeded generator
SHARED = {
    "p2-24": (gen._P2_RECORD,
              lambda rng: gen._p2_24(*admissible_p2(rng, 1)[0])),
}
GEOMETRY = ("face_size", "face_start", "corner_face", "corner_vertex",
            "next_corner", "prev_corner", "cells", "centroid", "normal",
            "u", "v", "residual", "area", "uv", "corner_angles", "defects",
            "dihedrals", "triangle_normals")


def plain(data: MeshData) -> MeshData:
    """data with its record replaced by a plain list of its faces."""
    return data._replace(faces=[list(f) for f in data.faces])


def arrays(x):
    """x as a flat list of the byte strings of its arrays."""
    if isinstance(x, np.ndarray):
        return [x.dtype.str, x.shape, x.tobytes()]
    return [b for a in x for b in arrays(a)]


def assert_same_mesh(p, q):
    assert p.faces == q.faces and type(p.faces) is tuple
    assert p.edges == q.edges and p.edge_slots == q.edge_slots
    assert arrays([p.vertices, p.edge_pairs]) == \
        arrays([q.vertices, q.edge_pairs])
    for name in GEOMETRY:
        assert arrays([getattr(p.geometry, name)]) == \
            arrays([getattr(q.geometry, name)]), name
    assert arrays(p.geometry.triangulation) == \
        arrays(q.geometry.triangulation)
    assert p.orientation == q.orientation
    a, b = verify(p), verify(q)
    assert a.to_dict() == b.to_dict()
    assert [(w.faces, w.kind, w.point.tobytes()) for w in a.witnesses] == \
        [(w.faces, w.kind, w.point.tobytes()) for w in b.witnesses]


@pytest.mark.parametrize("name", sorted(SHARED))
def test_a_mesh_on_the_shared_record_is_the_plain_one(name):
    record, draw = SHARED[name]
    rng = np.random.default_rng(35)
    for _ in range(50):
        data = draw(rng)
        assert data.faces is record
        p = build_polyhedron(data.vertices, data.faces, data.metadata)
        q = build_polyhedron(*plain(data))
        assert p.combinatorics is record
        assert q.combinatorics is not record
        assert_same_mesh(p, q)


@pytest.mark.parametrize("name", sorted(SHARED))
def test_drilling_raw_parts_on_the_shared_record(name):
    """drill_repeat reads raw parts whose faces are the record as it reads
    the plain face list."""
    _, draw = SHARED[name]
    rng = np.random.default_rng(36)
    for _ in range(3):
        data = draw(rng)
        spec = DrillSpec(0, 1, 12)
        assert_same_mesh(drill_repeat(data, spec, 2),
                         drill_repeat(plain(data), spec, 2))


def outcome(data: MeshData):
    """The class and message of the error building data raises."""
    try:
        build_polyhedron(data.vertices, data.faces, data.metadata)
    except CcpError as exc:
        return type(exc), str(exc)
    return None


def lifted(v):
    v = v.copy()
    v[0, 2] += 0.1              # off the planes of its faces
    return v


def extra(v):
    return np.vstack([v, v.mean(axis=0)])


FAULTS = {
    "lifted-vertex": lifted,
    "zeroed-area": lambda v: v * 1e-7,     # areas below LENGTH_TOL
    "vertex-too-many": extra,
    "vertex-too-few": lambda v: v[:-1],
    "vertex-not-finite": lambda v: np.where(np.arange(len(v))[:, None] == 3,
                                            np.nan, v),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(SHARED))
def test_a_fault_fails_alike_on_both_paths(name, fault):
    _, draw = SHARED[name]
    data = draw(np.random.default_rng(37))
    data = data._replace(vertices=FAULTS[fault](data.vertices))
    got = outcome(data)
    assert got is not None
    assert got == outcome(plain(data))


def shared_arrays(record):
    """Every array the record holds, computed ones included."""
    parts = [*record.corners, record.prev_corner, record.corner_count,
             record.cells, record.edge_pairs, *record.cell_corners,
             *record.triangle_runs,
             record.next_vertex, record.face_side, record.face_vertex]
    assert all(isinstance(a, np.ndarray) for a in parts)
    return parts


@pytest.mark.parametrize("name", sorted(SHARED))
def test_every_shared_array_is_read_only(name):
    record, draw = SHARED[name]
    p = build_polyhedron(*draw(np.random.default_rng(38)))
    verify(p)
    for a in shared_arrays(record):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    assert p.geometry.triangulation.face is record.triangle_runs.face
    with pytest.raises(AttributeError):
        record.faces = ()
    assert type(record.faces) is tuple and \
        all(type(f) is tuple for f in record.faces)


def test_a_record_reads_as_its_face_list():
    record = gen._P2_RECORD
    assert len(record) == 18 and list(record) == list(record.faces)
    assert record[3] == record.faces[3] and record[-1] == record.faces[-1]
    assert record.n_vertices == 24
    assert repr(record) == "Combinatorics(18 faces, 24 vertices, 44 edges)"


def test_a_record_checks_as_build_polyhedron_does():
    """Combinatorics.of raises what build_polyhedron raises for a face list
    that fails, and a record for another vertex count is checked again."""
    faces = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]
    verts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    for bad, n in (([(0, 1)] + faces, 4), (faces[:3], 4), (faces, 5),
                   (faces + [(0, 1, 9)], 4)):
        with pytest.raises(CcpError) as want:
            build_polyhedron(np.zeros((n, 3)) + np.arange(n)[:, None], bad)
        with pytest.raises(type(want.value),
                           match=re.escape(str(want.value))):
            Combinatorics.of(bad, n)
    record = Combinatorics.of(faces, 4)
    assert build_polyhedron(verts, record).combinatorics is record
    with pytest.raises(CcpError, match=r"vertices \[4\] appear in no face"):
        build_polyhedron(verts + [(0, 0, 0)], record)


def test_meshes_on_one_face_list_share_its_record():
    p, q = gen.gen_p2_24(), gen.gen_p2_24(0.3, 0.05)
    assert p.combinatorics is q.combinatorics is gen._P2_RECORD
    assert p.faces is q.faces
    r = p.with_metadata(family="renamed")
    assert r.combinatorics is p.combinatorics


def test_p2_24_derives_no_combinatorics_per_mesh(monkeypatch):
    """Once the P^2_24 record has been read through once, gen_p2_24
    followed by verify checks, pairs and orients no face list again: the
    derivations run zero times.  A plain face list runs each once, so the
    counters see them."""
    gen.gen_p2_24()                     # the record's parts, once
    calls = {}
    for name in ("_checked_corners", "_derived_cells", "_orientation_cover"):
        def counted(*args, _fn=getattr(mesh_mod, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(mesh_mod, name, counted)
    for b, c in admissible_p2(np.random.default_rng(39), 5):
        assert verify(gen.gen_p2_24(b, c)).verdict == "ccp_embedded"
    assert calls == {}
    build_polyhedron(*plain(gen._p2_24()))
    assert calls == {"_checked_corners": 1, "_derived_cells": 1,
                     "_orientation_cover": 1}
