"""One property over every callable in ccpforge.__all__, the public
methods, and drill_repeat and glue on raw parts: called with good
arguments, some of them swapped for values drawn from one shared
vocabulary of bad ones, each entry returns or raises a CcpError, and a
Polyhedron it returns verifies, its metadata refuses every change in
place, and it comes back from save_json and load_json with equal
metadata, vertex bytes and faces.  Input records
(MeshMetadata, DrillSpec, FaceCorrespondence, FamilyRequest) are passed
on to the entry that reads them; metadata, every field of it, is that
of a drilled mesh, whose flat seams verify reads.  Genera are drawn at
the edges of each CATALOG row's range, up to 50.  The test runs
derandomized, once per entry and once per argument of each entry with
that argument always bad; tests/fuzz_api.py runs the same property for
longer searches."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ccpforge  # noqa: E402
from ccpforge import surgery  # noqa: E402
from ccpforge import (CATALOG, DrillSpec, FaceCorrespondence,  # noqa: E402
                      FamilyRequest, MeshMetadata, Polyhedron, TopologyClass,
                      build_polyhedron, gen_p2_24, gen_tetrahedron)
from ccpforge.errors import CcpError  # noqa: E402
from ccpforge.mesh import MeshData  # noqa: E402

from conftest import refuses_change  # noqa: E402

P = gen_p2_24()
T = gen_tetrahedron()
SPEC = DrillSpec(0, 1, 12)
# a drilled mesh: its retiled faces meet along flat seams, so the seams
# in its metadata are read wherever flat edges are checked
D = ccpforge.drill(P, SPEC)
OUTER = np.array([[0, 0, 0], [4, 0, 0], [4, 4, 0], [0, 4, 0]], float)
HOLE = np.array([[1, 1, 0], [3, 1, 0], [3, 3, 0], [1, 3, 0]], float)

# the shared vocabulary of bad values
BAD = [
    "x", object(), b"3", 1j,                          # wrong types
    True, False, np.True_,                            # bools for numbers
    2.0, np.float64(3.0), 0.0,                        # whole floats
    "3", "0.5", "-1",                                 # numeric strings
    math.nan, math.inf, -math.inf,                    # not finite
    -1, -0.5, -(10 ** 400), 10 ** 400,                # negative, huge
    np.zeros((4, 2)), np.zeros(3), [[0, 0]], np.ones((2, 2, 3)),  # shapes
    [], (), {}, set(), np.empty((0, 3)), "",          # empty containers
    None,
    SPEC, FaceCorrespondence(0, 0), FamilyRequest("p2-24"),  # records
    MeshMetadata(), TopologyClass(True, 2, -2),
    MeshData(P.vertices, P.faces, P.metadata), P,
    # raw data whose cells name a face off the mesh
    MeshData(P.vertices, P.faces, P.metadata, np.array([[99, 0, 0, 1]])),
    # labels and seams of the right kinds that fit no mesh here, and the
    # drilled mesh's seams written higher id first, which fit it
    {"a": 10 ** 6}, {(0, 10 ** 6)}, {(0, 3)},
    {(w, u) for u, w in D.metadata.seam_edges},
]


def _edges(family: str) -> list[int]:
    """The genera at the edges of a row's range, inside and out, up to
    50: a genus above 50 builds a mesh too large for many examples."""
    g = next(info.genera for info in CATALOG if info.family == family)
    return sorted({x for x in (g[0] - 1, g[0], g[min(1, len(g) - 1)],
                               g[-2 if len(g) > 1 else 0], g[-1], g[-1] + 1)
                   if x <= 50})


def _any_edge() -> list[int]:
    return sorted({g for info in CATALOG for g in _edges(info.family)})


# Per entry: a function of its arguments and a function drawing the good
# ones (from hypothesis data and a temporary folder holding p2.json).
ENTRIES = {
    "MeshMetadata": (
        lambda *a: build_polyhedron(D.vertices, D.faces, MeshMetadata(*a)),
        lambda d, tmp: ["p2-24", 3, True, -math.pi / 6, *_metadata(D)]),
    "TopologyClass": (TopologyClass, lambda d, tmp: [True, 2, -2]),
    "build_polyhedron": (
        build_polyhedron,
        lambda d, tmp: [T.vertices, T.faces, MeshMetadata(), _pick(
            d, [None, T.edge_slots, T.geometry.cells])]),
    "classify": (ccpforge.classify, lambda d, tmp: [P]),
    "euler_characteristic": (ccpforge.euler_characteristic,
                             lambda d, tmp: [P]),
    "is_orientable": (ccpforge.is_orientable, lambda d, tmp: [P]),
    "DefectProfile": (ccpforge.DefectProfile,
                      lambda d, tmp: [np.zeros(4), 0.0, 0.0, True]),
    "IntersectionWitness": (ccpforge.IntersectionWitness,
                            lambda d, tmp: [(0, 1), np.zeros(3), "cross"]),
    "angular_defect": (ccpforge.angular_defect, lambda d, tmp: [P, 0]),
    "corner_angle": (ccpforge.corner_angle,
                     lambda d, tmp: [P, 0, P.faces[0][0]]),
    "defect_profile": (ccpforge.defect_profile, lambda d, tmp: [P, 1e-9]),
    "descartes_residual": (ccpforge.descartes_residual, lambda d, tmp: [P]),
    "dihedral_angle": (ccpforge.dihedral_angle, lambda d, tmp: [P, 0]),
    "edge_length": (ccpforge.edge_length, lambda d, tmp: [P, 0]),
    "is_embedded": (ccpforge.is_embedded, lambda d, tmp: [P]),
    "self_intersections": (ccpforge.self_intersections, lambda d, tmp: [P]),
    "DrillSpec": (lambda *a: ccpforge.drill(P, DrillSpec(*a)),
                  lambda d, tmp: [0, 1, 12, None, None, 0.0]),
    "FaceCorrespondence": (
        lambda *a: ccpforge.connect_sum(T, T, FaceCorrespondence(*a)),
        lambda d, tmp: [0, 0, (0, 2, 1)]),
    "choose_prism_order": (ccpforge.choose_prism_order, lambda d, tmp: [P]),
    "connect_sum": (ccpforge.connect_sum, lambda d, tmp: [
        T, T, FaceCorrespondence(0, 0, mapping=(0, 2, 1))]),
    "drill": (ccpforge.drill, lambda d, tmp: [P, SPEC]),
    "drill_repeat": (ccpforge.drill_repeat, lambda d, tmp: [P, SPEC, 2]),
    "retile_pierced_face": (ccpforge.retile_pierced_face,
                            lambda d, tmp: [OUTER, HOLE]),
    "BlockParams": (ccpforge.BlockParams,
                    lambda d, tmp: [((2.0, 2.5),), None]),
    "FamilyRequest": (
        lambda *a: ccpforge.generate_family(FamilyRequest(*a)),
        lambda d, tmp: _request(d)),
    "a_coeff": (ccpforge.a_coeff,
                lambda d, tmp: [1, _pick(d, _any_edge())]),
    "f_angle_sum": (ccpforge.f_angle_sum, lambda d, tmp: [2.0, 2.5]),
    "gen_minimal": (ccpforge.gen_minimal,
                    lambda d, tmp: [_genus(d, "minimal"), 2.0]),
    "gen_n5g_odd": (ccpforge.gen_n5g_odd,
                    lambda d, tmp: [_genus(d, "n5g")]),
    "gen_nonorientable": (ccpforge.gen_nonorientable, lambda d, tmp: [
        _genus(d, "nonorientable"), _pick(d, [False, True])]),
    "gen_orientable": (ccpforge.gen_orientable,
                       lambda d, tmp: [_genus(d, "orientable")]),
    "gen_p2_24": (ccpforge.gen_p2_24, lambda d, tmp: [0.25, 1 / 32]),
    "gen_r_block": (ccpforge.gen_r_block,
                    lambda d, tmp: [1.0, math.sqrt(2)]),
    "gen_t_block": (ccpforge.gen_t_block, lambda d, tmp: [2.0, 2.5]),
    "gen_v6g": (ccpforge.gen_v6g, lambda d, tmp: [_genus(d, "v6g")]),
    "gen_v7gm7": (ccpforge.gen_v7gm7, lambda d, tmp: [_genus(d, "v7gm7")]),
    "gen_v8g": (ccpforge.gen_v8g, lambda d, tmp: [_genus(d, "v8g")]),
    "generate_family": (ccpforge.generate_family,
                        lambda d, tmp: [FamilyRequest(*_request(d))]),
    "solve_block_params": (ccpforge.solve_block_params,
                           lambda d, tmp: [_genus(d, "minimal"), 2.0]),
    "VerificationReport": (ccpforge.VerificationReport, lambda d, tmp: [
        TopologyClass(True, 2, -2), ccpforge.defect_profile(T), 1e-9, 0.0,
        0.0, [], [], None, None, None, "ccp_embedded"]),
    "format_pi_multiple": (ccpforge.format_pi_multiple,
                           lambda d, tmp: [-math.pi / 6]),
    "verify": (ccpforge.verify, lambda d, tmp: [P, None]),
    "load_json": (ccpforge.load_json, lambda d, tmp: [tmp / "p2.json"]),
    "load_mesh": (ccpforge.load_mesh, lambda d, tmp: [tmp / "p2.json"]),
    "read_obj": (ccpforge.read_obj, lambda d, tmp: [tmp / "p2.obj"]),
    "save_json": (ccpforge.save_json, lambda d, tmp: [P, tmp / "m.json"]),
    "save_mesh": (ccpforge.save_mesh, lambda d, tmp: [P, tmp / "m.stl"]),
    "write_obj": (ccpforge.write_obj, lambda d, tmp: [P, tmp / "m.obj"]),
    "write_stl": (ccpforge.write_stl, lambda d, tmp: [P, tmp / "m.stl"]),
}
# the gen_* of one fixed mesh take no argument
for _name in ("gen_cubohemioctahedron", "gen_flat_torus9", "gen_q2_9",
              "gen_q3_18", "gen_s_base", "gen_small_dodecahemidodecahedron",
              "gen_tetrahedron", "gen_tetrahemihexahedron",
              "gen_rhombihexahedron"):
    ENTRIES[_name] = (getattr(ccpforge, _name), lambda d, tmp: [])
# CATALOG is no callable, and Polyhedron's constructor refuses every call
# with a TypeError: build_polyhedron makes each mesh
NOT_CALLED = {"CATALOG", "Polyhedron"}
# the public methods, and the surgery entries on raw parts, each field of
# which may be drawn bad; drawn as the entries are
METHODS = {
    # the last value goes to the field the first argument names, which
    # may be no field
    "Polyhedron.with_metadata": (
        lambda field, *a: D.with_metadata(**dict(zip(
            ("provenance", "vertex_labels", str(field)), a))),
        lambda d, tmp: [_pick(d, ["seam_edges", "foo"]), *_metadata(D)]),
    "drill_repeat(MeshData)": (
        lambda *a: ccpforge.drill_repeat(MeshData(*a), SPEC, 2),
        lambda d, tmp: _raw(P)),
    # a recipe of one step on its base, a glue or a drill, with the last
    # value in the metadata field the third argument names, which may be
    # no field
    "surgery.construct": (
        lambda base, step, field, value: surgery.construct(
            base, [step], **{str(field): value}),
        lambda d, tmp: [*_pick(d, [
            (T, (T, FaceCorrespondence(0, 0, mapping=(0, 2, 1)))),
            (P, surgery.Drill(SPEC)), (P, surgery.Drill(SPEC, 2))]),
            _pick(d, ["family", "fo"]), "recipe"]),
    "surgery.glue(MeshData)": (
        lambda *a: surgery.glue(MeshData(*a), [(
            MeshData(*a), FaceCorrespondence(0, 0, (0, 2, 1)))]),
        lambda d, tmp: _raw(T)),
}
CALLS = {**ENTRIES, **METHODS}


def _metadata(p: Polyhedron) -> list:
    """Copies of p's provenance, vertex labels and seams."""
    meta = p.metadata
    return [list(meta.provenance), dict(meta.vertex_labels),
            set(meta.seam_edges)]


def _raw(p: Polyhedron) -> list:
    """p's raw vertices, faces, metadata and cells."""
    return [p.vertices, list(p.faces), p.metadata, p.geometry.cells]


def _pick(data, options: list):
    """One of the options, drawn from hypothesis data; the first when data
    is None, as when ARITY counts the arguments."""
    return options[0] if data is None else data.draw(st.sampled_from(options))


def _genus(data, family: str) -> int:
    return _pick(data, _edges(family))


def _request(data) -> list:
    family = _pick(data, [info.family for info in CATALOG])
    params = {"r": 1.0, "h": math.sqrt(2)} if family == "r-block" else {}
    return [family, _genus(data, family), params,
            family == "nonorientable" and _pick(data, [False, True])]


# per entry, its number of arguments
ARITY = {name: len(good(None, Path())) for name, (_, good) in CALLS.items()}


def check_entry(data, tmp: Path, name: str, bad: int | None = None) -> None:
    """Draw the arguments of the entry `name`, swap up to two of them for
    bad values, argument `bad` always if given, and call it in the folder
    `tmp`, where a bad value that is a relative path lands: it returns or
    raises a CcpError, and a Polyhedron it returns verifies, has metadata
    that refuses change in place and saves as JSON that loads back
    equal."""
    call, good = CALLS[name]
    args = good(data, tmp)
    if args:
        slots = data.draw(st.sets(st.integers(0, len(args) - 1),
                                  max_size=1 if bad is not None else 2),
                          label="bad slots")
        for slot in slots | ({bad} if bad is not None else set()):
            args[slot] = data.draw(st.sampled_from(BAD), label="bad value")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        out = call(*args)
    except CcpError:
        return
    finally:
        os.chdir(cwd)
    if isinstance(out, Polyhedron):
        ccpforge.verify(out)
        refuses_change(out.metadata)
        ccpforge.save_json(out, tmp / "out.json")
        back = ccpforge.load_json(tmp / "out.json")
        assert back.metadata == out.metadata and back.faces == out.faces
        assert back.vertices.tobytes() == out.vertices.tobytes()


def _folder(tmp: Path) -> None:
    ccpforge.save_json(P, tmp / "p2.json")
    ccpforge.write_obj(P, tmp / "p2.obj")


def test_every_public_callable_has_an_entry():
    assert set(ENTRIES) | NOT_CALLED == set(ccpforge.__all__)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("api")
    _folder(tmp)
    return tmp


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_public_calls_return_or_raise_ccp_errors(folder, name, data):
    check_entry(data, folder, name)


SLOTS = [(name, slot) for name in sorted(CALLS)
         for slot in range(ARITY[name])]


@pytest.mark.parametrize("name,slot", SLOTS,
                         ids=[f"{name}-{slot}" for name, slot in SLOTS])
@settings(derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_each_argument_drawn_bad_returns_or_raises_a_ccp_error(
        folder, name, slot, data):
    """The property with argument `slot` of the entry always bad: drawn
    per entry alone, a later argument is rarely made bad."""
    check_entry(data, folder, name, slot)
