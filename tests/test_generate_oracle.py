"""The angle solver, the annulus retiling, the connected-sum chains and
the multiple drills of the ``ccp generate`` path against the code they
replaced (tests/scalar_generate.py): the same floats, partitions, meshes
and errors, to the last bit."""

import math

import numpy as np
import pytest

import ccpforge._geom as geom_mod
import ccpforge.generators as generators_mod
import ccpforge.mesh as mesh_mod
import ccpforge.surgery as surgery_mod
from ccpforge import (DrillSpec, FaceCorrespondence, FamilyRequest,
                      build_polyhedron, drill, f_angle_sum,
                      gen_cubohemioctahedron, gen_minimal, gen_n5g_odd,
                      gen_p2_24, gen_q2_9, gen_q3_18, generate_family,
                      retile_pierced_face, solve_block_params)
from ccpforge.errors import CcpError, NotIsometric
from ccpforge.mesh import MeshData, MeshMetadata

import scalar_generate
from conftest import assert_same_planes, random_rigid_motion

TAU = 2.0 * math.pi


def outcome(fn, *args):
    """fn's result, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except CcpError as exc:
        return type(exc), str(exc)


def test_f_angle_sum_is_the_clipped_one():
    rng = np.random.default_rng(21)
    for l in [0.5, 1.0, 2.0, 9.7] + list(rng.uniform(1e-3, 1e3, 200)):
        l = float(l)
        for d in [0.0, l, 2 * l, math.nextafter(2 * l, 0.0)] + \
                list(rng.uniform(0.0, 2 * l, 20)):
            d = float(d)
            got, want = f_angle_sum(l, d), scalar_generate.f_angle_sum(l, d)
            assert type(got) is float
            assert got.hex() == want.hex(), (l, d)


def test_solve_block_params_is_bit_identical(monkeypatch):
    got = [solve_block_params(g) for g in range(1, 46)]
    monkeypatch.setattr(generators_mod, "f_angle_sum",
                        scalar_generate.f_angle_sum)
    want = [solve_block_params(g) for g in range(1, 46)]

    def bits(bp):
        return [x.hex() for pair in bp.pairs + (bp.terminal or (),)
                for x in pair]
    assert [bits(bp) for bp in got] == [bits(bp) for bp in want]


def star_annulus(rng, kind, ko=None, kh=None):
    """A random star-shaped outer polygon and a hole polygon about a point
    near its centre, both in a random plane at a random scale.  `kind`
    moves one hole vertex onto the outer boundary, outside it, or within a
    few 1e-12 * scale of it; "inside" leaves the hole alone.  The vertex
    counts ko and kh are drawn where not given."""
    if ko is None:
        ko = int(rng.integers(3, 13))
    if kh is None:
        kh = ko if rng.random() < 0.5 else int(rng.integers(3, 13))
    ang = (np.arange(ko) + rng.uniform(0.1, 0.9, ko)) * TAU / ko
    rad = rng.uniform(0.6, 1.4, ko)
    outer = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    hang = (np.arange(kh) + rng.uniform(0.2, 0.8, kh)) * TAU / kh
    hrad = rng.uniform(0.1, 0.55) * rng.uniform(0.8, 1.0, kh)
    hole = rng.uniform(-0.15, 0.15, 2) + \
        np.stack([hrad * np.cos(hang), hrad * np.sin(hang)], axis=1)
    if rng.random() < 0.5:
        outer = outer[::-1]
    if rng.random() < 0.5:
        hole = hole[::-1]
    rot, t = random_rigid_motion(rng)
    size = 10.0 ** rng.uniform(-3, 3)

    def lift(q):
        return (np.column_stack([q, np.zeros(len(q))]) * size) @ rot.T + t
    # the tolerance unit of retile_pierced_face, in units of the 2D draw
    unit = 1e-12 * max(1.0, float(np.abs(lift(outer)).max())) / size
    i = int(rng.integers(ko))
    a, b = outer[i], outer[(i + 1) % ko]
    on_side = a + rng.uniform(0.0, 1.0) * (b - a)
    inward = np.array([-(b - a)[1], (b - a)[0]]) / np.linalg.norm(b - a) \
        * np.sign(geom_mod.polygon_area_2d(outer))
    if kind == "boundary":
        hole[0] = a if rng.random() < 0.3 else on_side
    elif kind == "outside":
        hole[0] = on_side * rng.uniform(1.01, 3.0)
    elif kind == "near":
        hole[0] = on_side + inward * rng.uniform(-1.0, 4.0) * unit
    return lift(outer), lift(hole)


KINDS = ["inside", "boundary", "outside", "near"]


@pytest.mark.parametrize("kind", KINDS)
def test_retile_is_the_per_vertex_loop(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    results = []
    for _ in range(150):
        outer, hole = star_annulus(rng, kind)
        got = outcome(retile_pierced_face, outer, hole)
        assert got == outcome(scalar_generate.retile_pierced_face, outer,
                              hole)
        results.append(type(got) is list)
    # a hole vertex on or beyond the boundary always fails; the other
    # kinds give both partitions and errors
    if kind in ("boundary", "outside"):
        assert not any(results)
    else:
        assert 0 < sum(results) < len(results)


@pytest.mark.parametrize("kind", KINDS)
def test_retile_pairs_are_the_per_vertex_loop(monkeypatch, kind):
    """Two annuli retiled in one call, as pierce retiles its two faces:
    one of `kind` and one of a drawn kind, with equal or unequal outer
    vertex counts, in both orders.  The call raises the oracle's error
    for the first face that has one, else gives each face the oracle's
    partition; a pair of one shape takes one plane fit."""
    rng = np.random.default_rng(10 + KINDS.index(kind))
    fits = []
    real = geom_mod.plane_fit
    monkeypatch.setattr(geom_mod, "plane_fit",
                        lambda pts: fits.append(1) or real(pts))
    results = set()
    for _ in range(80):
        ko, kh = (int(x) for x in rng.integers(3, 13, 2))
        ko2 = ko if rng.random() < 0.5 else int(rng.integers(3, 13))
        pair = [star_annulus(rng, kind, ko, kh),
                star_annulus(rng, KINDS[rng.integers(4)], ko2, kh)]
        for order in (pair, pair[::-1]):
            want = [outcome(scalar_generate.retile_pierced_face, *a)
                    for a in order]
            failed = [w for w in want if type(w) is not list]
            fits.clear()
            got = outcome(surgery_mod._retile, [o for o, _ in order],
                          [h for _, h in order])
            assert got == (failed[0] if failed else want)
            # an unstacked pair stops at its first face's error
            assert len(fits) == (1 if ko2 == ko or failed[:1] == want[:1]
                                 else 2)
        results.add((len(failed), ko2 == ko))
    # faces that fail (and, for "inside", pairs that do not), each among
    # stacked and unstacked pairs
    failing = (0, 1, 2) if kind == "inside" else (1, 2)
    assert results >= {(n, same) for n in failing for same in (True, False)}


def test_retile_locates_the_hole_in_one_call(monkeypatch):
    calls = []
    real = geom_mod.dist_point_polygon_boundary

    def counted(pt, poly):
        calls.append(pt.size // 2)      # the points, whatever the stack
        return real(pt, poly)
    monkeypatch.setattr(geom_mod, "dist_point_polygon_boundary", counted)
    outer, hole = star_annulus(np.random.default_rng(3), "inside")
    retile_pierced_face(outer, hole)
    assert calls == [len(hole)]


CHAINS = [(gen_minimal, scalar_generate.gen_minimal, g)
          for g in range(1, 46)] + \
    [(gen_n5g_odd, scalar_generate.gen_n5g_odd, g)
     for g in range(3, 20, 2)] + \
    [(gen_q2_9, scalar_generate.gen_q2_9, None),
     (gen_q3_18, scalar_generate.gen_q3_18, None)]


@pytest.mark.parametrize(
    "build,oracle,genus", CHAINS,
    ids=[f"{b.__name__}-{g}" for b, _, g in CHAINS])
def test_chain_is_the_step_by_step_one(monkeypatch, build, oracle, genus):
    """A chain glued as data and validated once is the chain validated at
    every step, bit for bit; it calls build_polyhedron once (n5g beyond
    genus 11 drills the genus-7 member's raw parts and builds once)."""
    args = () if genus is None else (genus,)
    want = oracle(*args)
    builds = counted_builds(monkeypatch)
    got = build(*args)
    monkeypatch.undo()
    assert len(builds) == 1
    assert_same_mesh(got, want)


def counted_builds(monkeypatch) -> list:
    """A list that gains an item at each build_polyhedron call, through
    any module's binding."""
    builds = []
    for module in (mesh_mod, surgery_mod, generators_mod):
        real = module.build_polyhedron
        monkeypatch.setattr(module, "build_polyhedron",
                            lambda *a, real=real, **kw:
                            builds.append(1) or real(*a, **kw))
    return builds


def recorded_glues(monkeypatch, build, *args) -> list:
    """The (first, steps) of every glue call that build(*args) makes."""
    calls = []
    real = surgery_mod.glue
    monkeypatch.setattr(surgery_mod, "glue", lambda first, steps: calls.append(
        (first, list(steps))) or real(first, steps))
    build(*args)
    monkeypatch.undo()
    return calls


def folded(first, steps):
    """The one-step reference glue applied to each step in turn."""
    out = first
    for piece, corr in steps:
        out = scalar_generate.glue(out, piece, corr)
    return out


@pytest.mark.parametrize(
    "build,genus", [(b, g) for b, _, g in CHAINS],
    ids=[f"{b.__name__}-{g}" for b, _, g in CHAINS])
def test_glue_is_the_fold_of_one_step_glues(monkeypatch, build, genus):
    """Each glue call of a chain gives, before validation, the parts of
    the one-step glues applied in turn: the same vertex bytes, faces,
    cell rows in their order with their halves in order, seams and
    provenance."""
    args = () if genus is None else (genus,)
    for first, steps in recorded_glues(monkeypatch, build, *args):
        assert_same_parts(surgery_mod.glue(first, steps),
                          folded(first, steps))


def assert_same_parts(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert list(got.faces) == list(want.faces)
    assert got.cells.tobytes() == want.cells.tobytes()
    assert got.metadata == want.metadata


def test_glue_of_mixed_pieces_is_the_fold():
    """Validated and raw pieces, found isometries and a seamed first
    mesh: three scalene tetrahedra onto a fourth, each step on a face of
    the piece before, and plain p2-24 onto a drilled one."""
    v = np.array([(0, 0, 0), (3, 0, 0), (0, 4, 0), (1.1, 1.3, 5)], float)
    f = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)]
    tetra, raw = build_polyhedron(v, f), MeshData(v, f, MeshMetadata())
    steps = [(tetra, FaceCorrespondence(0, 0)),
             (raw, FaceCorrespondence(3, 1)),
             (tetra, FaceCorrespondence(6, 2))]
    assert_same_parts(surgery_mod.glue(tetra, steps), folded(tetra, steps))
    drilled, plain = drill(gen_p2_24(), DrillSpec(0, 1, 12)), gen_p2_24()
    aligned = (0, 1, 5, 4)      # drilled ids along plain face 14's cycle
    mapping = tuple(plain.faces[14][aligned.index(w)]
                    for w in drilled.faces[12])
    steps = [(plain, FaceCorrespondence(12, 14, mapping))]
    got = surgery_mod.glue(drilled, steps)
    assert len(got.metadata.seam_edges) == 40
    assert_same_parts(got, folded(drilled, steps))


def random_tetra_chain(rng):
    """(first, steps) of a chain of 3 to 8 scalene tetrahedra: each piece
    stands on a random face of the mesh glued so far, its apex along that
    face's outer normal, and is glued by its face 0."""
    v = np.array([(0, 0, 0), (3, 0, 0), (0, 4, 0), (1.1, 1.3, 5)], float)
    first = build_polyhedron(v, [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)])
    out, steps = first, []
    for _ in range(rng.integers(2, 8)):
        f1 = int(rng.integers(len(out.faces)))
        a, b, c = out.vertices[list(out.faces[f1])]
        normal = np.cross(b - a, c - a)
        apex = (a + b + c) / 3 + rng.uniform(0.5, 2.0) * normal / \
            np.linalg.norm(normal)
        piece = MeshData(np.array([a, c, b, apex]),
                         [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)],
                         MeshMetadata())
        steps.append((piece, FaceCorrespondence(f1, 0, mapping=(0, 2, 1))))
        out = scalar_generate.glue(out, *steps[-1])
    return first, steps


def test_glue_of_random_tetra_chains_is_the_fold():
    """Forty seeded chains of tetrahedra, each piece on a random face of
    the mesh glued so far, so that a step often glues onto a face whose
    sides earlier seams have re-paired."""
    rng = np.random.default_rng(24)
    for _ in range(40):
        first, steps = random_tetra_chain(rng)
        assert_same_parts(surgery_mod.glue(first, steps),
                          folded(first, steps))


def _corrupted(first, steps, j, kind):
    """(first, steps) with step j spoilt so that the glue fails there."""
    steps = list(steps)
    piece, corr = steps[j]
    m = corr.mapping
    if kind == "lengths":
        corr = FaceCorrespondence(corr.face1, 3, m)     # a triangle
    elif kind == "bijection":
        corr = FaceCorrespondence(corr.face1, corr.face2, (m[0],) + m[:-1])
    elif kind == "cycle":
        corr = FaceCorrespondence(corr.face1, corr.face2,
                                  (m[1], m[0]) + m[2:])
    elif kind == "residual":
        piece = piece._replace(vertices=piece.vertices * [1.25, 1.0, 1.0])
    elif kind == "pairing-piece":
        on = (piece.cells[:, 0::2] == corr.face2).any(axis=1)
        piece = piece._replace(cells=np.delete(piece.cells, np.argmax(on),
                                               axis=0))
    else:                       # pairing-mesh: the giving block lacks a cell
        if j == 0:
            giver, face2 = first, None
        else:
            giver, face2 = steps[j - 1][0], steps[j - 1][1].face2
        cells = giver.cells
        on = (cells[:, 0::2] == 2).any(axis=1) & \
            ~(cells[:, 0::2] == face2).any(axis=1)
        giver = giver._replace(cells=np.delete(cells, np.argmax(on), axis=0))
        if j == 0:
            first = giver
        else:
            steps[j - 1] = (giver, steps[j - 1][1])
    steps[j] = (piece, corr)
    return first, steps


GLUE_ERRORS = {"lengths": "different lengths",
               "bijection": "not a bijection",
               "cycle": "does not respect the face2 cycle",
               "residual": "rigid-fit residual",
               "pairing-piece": "seam pairing incomplete",
               "pairing-mesh": "seam pairing incomplete"}


@pytest.mark.parametrize("kind", GLUE_ERRORS)
def test_glue_errors_are_the_one_step_ones(monkeypatch, kind):
    """A chain spoilt at step j raises at step j the error class and
    message of the one-step glue, for a first, middle and last step of
    the nine-step T-block chain of minimal g = 20."""
    (first, steps), *_ = recorded_glues(monkeypatch, gen_minimal, 20)
    assert len(steps) == 9
    for j in (0, 4, 8):
        bad = _corrupted(first, steps, j, kind)
        got = outcome(surgery_mod.glue, *bad)
        assert got == outcome(folded, *bad)
        assert got[0] is NotIsometric and GLUE_ERRORS[kind] in got[1]
        # the steps before j glue
        folded(bad[0], bad[1][:j])


def assert_same_mesh(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces == want.faces
    assert got.edges == want.edges
    assert got.edge_slots == want.edge_slots
    # family, genus, seam_edges, provenance, vertex_labels, ...
    assert got.metadata == want.metadata
    assert got.orientation == want.orientation
    assert_same_planes(got, want)


def _cho_drill(k, phase):
    return surgery_mod.drill_repeat(gen_cubohemioctahedron(),
                                    DrillSpec(4, 5, 6, phase=phase), k)


DRILLED = [(f"orientable-{g}", lambda g=g: generate_family(
    FamilyRequest("orientable", g))) for g in range(3, 13)] + \
    [(f"n5g-{g}", lambda g=g: generate_family(FamilyRequest("n5g", g)))
     for g in range(13, 20, 2)] + \
    [(f"nonorientable-{g}" + "-fewest" * fewest,
      lambda g=g, fewest=fewest: generate_family(
          FamilyRequest("nonorientable", g, prefer_fewest=fewest)))
     for g in range(3, 16) for fewest in (False, True)] + \
    [(f"{name}-k{k}-phase{phase}",
      lambda base=base, faces=faces, n=n, k=k, phase=phase:
      surgery_mod.drill_repeat(base(), DrillSpec(*faces, n, phase=phase), k))
     for name, base, faces, n in (("p2-24", gen_p2_24, (0, 1), 12),
                                  ("q3-18", gen_q3_18, (1, 0), 18))
     for k in (1, 2, 3) for phase in (0.0, 0.3)] + \
    [(f"cho-k{k}-phase{phase}", lambda k=k, phase=phase: _cho_drill(k, phase))
     for k in (1, 2, 3) for phase in (0.0, 0.3)]


@pytest.mark.parametrize("make", [m for _, m in DRILLED],
                         ids=[name for name, _ in DRILLED])
def test_drill_repeat_is_the_step_by_step_one(monkeypatch, make):
    """Drills that pierce raw data and validate the finished mesh once
    give the mesh of drills validated one at a time, bit for bit; each
    drill_repeat calls build_polyhedron exactly once."""
    monkeypatch.setattr(surgery_mod, "drill_repeat",
                        scalar_generate.drill_repeat)
    want = make()
    monkeypatch.undo()
    builds, per_repeat = [], []
    for module in (mesh_mod, surgery_mod, generators_mod):
        real = module.build_polyhedron
        monkeypatch.setattr(module, "build_polyhedron",
                            lambda *a, real=real, **kw:
                            builds.append(1) or real(*a, **kw))
    real_repeat = surgery_mod.drill_repeat

    def counted(*args):
        before = len(builds)
        out = real_repeat(*args)
        per_repeat.append(len(builds) - before)
        return out
    monkeypatch.setattr(surgery_mod, "drill_repeat", counted)
    got = make()
    monkeypatch.undo()
    assert set(per_repeat) <= {1}
    assert_same_mesh(got, want)


DRILLED_FAMILIES = [("orientable", g, False) for g in range(3, 13)] + \
    [("n5g", g, False) for g in range(13, 20, 2)] + \
    [("nonorientable", g, fewest) for g in range(3, 16)
     for fewest in (False, True)]


@pytest.mark.parametrize(
    "family,genus,fewest", DRILLED_FAMILIES,
    ids=[f"{f}-{g}" + "-fewest" * x for f, g, x in DRILLED_FAMILIES])
def test_drilled_family_builds_once(monkeypatch, family, genus, fewest):
    """A drilled family drills the raw parts of its base, so generating
    it calls build_polyhedron once, on the finished mesh; a family member
    with no drill builds its base once."""
    builds = counted_builds(monkeypatch)
    generate_family(FamilyRequest(family, genus, prefer_fewest=fewest))
    assert len(builds) == 1
