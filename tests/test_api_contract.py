"""Bad arguments to the generator, metric, report and file entry points
end in the CcpError that names the fault, never in a TypeError,
ValueError, IndexError or OverflowError, and no bad value is accepted;
a defect that is not finite prints as a float.  gen_t_block's l and d
are among the generator parameters of
test_generators.py::test_real_parameters_must_be_finite_reals.  Every
public entry that takes a mesh raises BadParameters for an argument
that is not one (mesh._mesh), before it reads it or writes a file."""

import inspect
import math

import numpy as np
import pytest

import ccpforge
from ccpforge import (DrillSpec, FaceCorrespondence, a_coeff, angular_defect,
                      connect_sum, corner_angle, defect_profile,
                      dihedral_angle, drill, drill_repeat, edge_length,
                      f_angle_sum, format_pi_multiple, gen_nonorientable,
                      gen_p2_24, generate_family, load_mesh,
                      retile_pierced_face, save_mesh)
from ccpforge.errors import (BadFile, BadParameters, GenusOutOfRange,
                             IndexOutOfRange)
from ccpforge.generators import FamilyRequest, _p2_24
from ccpforge.mesh import MeshData

P = gen_p2_24()

BAD_CALLS = [
    ("a_coeff-k-str", lambda: a_coeff("x", 3), BadParameters),
    ("a_coeff-g-str", lambda: a_coeff(1, "x"), GenusOutOfRange),
    ("a_coeff-k-float", lambda: a_coeff(1.5, 3), BadParameters),
    ("a_coeff-k-bool", lambda: a_coeff(True, 3), BadParameters),
    ("f_angle_sum-l-str", lambda: f_angle_sum("x", 1.0), BadParameters),
    ("f_angle_sum-d-str", lambda: f_angle_sum(1.0, "x"), BadParameters),
    ("generate_family-params-None", lambda: generate_family(
        FamilyRequest("p2-24", params=None)), BadParameters),
    ("generate_family-params-int", lambda: generate_family(
        FamilyRequest("p2-24", params=5)), BadParameters),
    ("generate_family-params-int-key", lambda: generate_family(
        FamilyRequest("p2-24", params={1: 2})), BadParameters),
    ("corner_angle-face-str", lambda: corner_angle(P, "x", 0),
     IndexOutOfRange),
    ("corner_angle-face-99", lambda: corner_angle(P, 99, 0),
     IndexOutOfRange),
    ("edge_length-str", lambda: edge_length(P, "x"), IndexOutOfRange),
    ("edge_length-999", lambda: edge_length(P, 999), IndexOutOfRange),
    ("edge_length-negative", lambda: edge_length(P, -1), IndexOutOfRange),
    ("dihedral_angle-999", lambda: dihedral_angle(P, 999), IndexOutOfRange),
    ("angular_defect-str", lambda: angular_defect(P, "x"), IndexOutOfRange),
    ("angular_defect-99", lambda: angular_defect(P, 99), IndexOutOfRange),
    ("format_pi_multiple-str", lambda: format_pi_multiple("x"),
     BadParameters),
    ("format_pi_multiple-bool", lambda: format_pi_multiple(True),
     BadParameters),
    ("format_pi_multiple-huge-int", lambda: format_pi_multiple(10 ** 400),
     BadParameters),
    ("retile_pierced_face-str", lambda: retile_pierced_face("x", "y"),
     BadParameters),
    ("retile_pierced_face-2d", lambda: retile_pierced_face(
        [[0, 0], [1, 0], [0, 1]], [[0, 0]]), BadParameters),
    ("load_mesh-int", lambda: load_mesh(5), BadFile),
    ("save_mesh-None", lambda: save_mesh(P, None), BadFile),
    ("connect_sum-corr-None", lambda: connect_sum(P, P, None),
     BadParameters),
    ("drill-spec-None", lambda: drill(P, None), BadParameters),
    ("drill_repeat-spec-None", lambda: drill_repeat(P, None, 2),
     BadParameters),
    ("generate_family-None", lambda: generate_family(None), BadParameters),
    ("generate_family-fewest-array", lambda: generate_family(FamilyRequest(
        "nonorientable", 3, prefer_fewest=np.array([1, 0]))), BadParameters),
    ("gen_nonorientable-fewest-array",
     lambda: gen_nonorientable(3, np.array([1, 0])), BadParameters),
    ("defect_profile-tol-str", lambda: defect_profile(P, "x"),
     BadParameters),
    ("defect_profile-tol-nan", lambda: defect_profile(P, math.nan),
     BadParameters),
    ("defect_profile-tol-negative", lambda: defect_profile(P, -1.0),
     BadParameters),
    ("corner_angle-vertex-array", lambda: corner_angle(P, 0, np.array([0, 1])),
     IndexOutOfRange),
    ("corner_angle-vertex-99", lambda: corner_angle(P, 0, 99),
     IndexOutOfRange),
    ("face_points-99", lambda: P.face_points(99), IndexOutOfRange),
    ("face_points-str", lambda: P.face_points("x"), IndexOutOfRange),
    ("vertex_faces-99", lambda: P.vertex_faces(99), IndexOutOfRange),
    ("vertex_faces-str", lambda: P.vertex_faces("x"), IndexOutOfRange),
    ("edge_index-vertex-99", lambda: P.edge_index(0, 99), IndexOutOfRange),
    ("edge_index-same-vertex", lambda: P.edge_index(0, 0), IndexOutOfRange),
    ("edge_index-str", lambda: P.edge_index("a", 1), IndexOutOfRange),
    ("edge_index-no-edge", lambda: P.edge_index(0, 23), IndexOutOfRange),
]


@pytest.mark.parametrize("kw", [
    {"seam_edges": {1j}}, {"seam_edges": {(True, 2)}},
    {"seam_edges": {(3, 3)}}, {"seam_edges": {(-1, 2)}},
    {"provenance": [1j]}, {"vertex_labels": {"a": "x"}},
    {"vertex_labels": {1: 2}}],
    ids=["seam-complex", "seam-bool", "seam-loop", "seam-negative",
         "provenance-complex", "label-str", "label-int-name"])
def test_metadata_entries_are_checked(kw, tmp_path):
    """Metadata holds only what a saved file holds: a seam that is not two
    distinct vertex ids, a provenance entry that is not a str or a label
    that is not a str naming a vertex id raises BadParameters when the
    metadata is made, not TypeError when it is saved or BadFile when the
    file is read back."""
    with pytest.raises(BadParameters, match="^metadata "):
        P.with_metadata(**kw)
    assert not list(tmp_path.iterdir())


def test_numpy_ids_in_metadata_save_as_ints(tmp_path):
    """Labels and seams may name vertices by numpy integers, as faces may;
    the file holds them as JSON integers and reads back equal."""
    p = P.with_metadata(vertex_labels={"a": np.int64(3)},
                        seam_edges={(np.intp(0), np.int32(1))})
    save_mesh(p, tmp_path / "m.json")
    back = load_mesh(tmp_path / "m.json").metadata
    assert back.vertex_labels == {"a": 3} and back.seam_edges == {(0, 1)}


@pytest.mark.parametrize("call,error", [case[1:] for case in BAD_CALLS],
                         ids=[case[0] for case in BAD_CALLS])
def test_bad_call_raises_the_error_that_names_it(call, error):
    with pytest.raises(error):
        call()


def test_defect_profile_reads_no_tolerance_as_the_default_band():
    """defect_profile checks its band as verify does: None is DEFECT_TOL."""
    got, want = defect_profile(P, None), defect_profile(P)
    assert (got.mean, got.max_abs_deviation, got.is_constant) == \
        (want.mean, want.max_abs_deviation, True)


@pytest.mark.parametrize("x,text", [(math.nan, "nan"), (math.inf, "inf"),
                                    (-math.inf, "-inf")])
def test_a_defect_that_is_not_finite_prints_as_a_float(x, text):
    assert format_pi_multiple(x) == text


# every public entry that takes a mesh, by name, with the other arguments
# it needs; drill and drill_repeat also take raw MeshData
SPEC = DrillSpec(0, 1, 12)
MESH_ENTRIES = {
    "angular_defect": lambda m, path: ccpforge.angular_defect(m, 0),
    "choose_prism_order": lambda m, path: ccpforge.choose_prism_order(m),
    "classify": lambda m, path: ccpforge.classify(m),
    "connect_sum-first": lambda m, path: ccpforge.connect_sum(
        m, P, FaceCorrespondence(0, 0)),
    "connect_sum-second": lambda m, path: ccpforge.connect_sum(
        P, m, FaceCorrespondence(0, 0)),
    "corner_angle": lambda m, path: ccpforge.corner_angle(m, 0, 0),
    "defect_profile": lambda m, path: ccpforge.defect_profile(m),
    "descartes_residual": lambda m, path: ccpforge.descartes_residual(m),
    "dihedral_angle": lambda m, path: ccpforge.dihedral_angle(m, 0),
    "drill": lambda m, path: drill(m, SPEC),
    "drill_repeat": lambda m, path: drill_repeat(m, SPEC, 2),
    "edge_length": lambda m, path: ccpforge.edge_length(m, 0),
    "euler_characteristic": lambda m, path: ccpforge.euler_characteristic(m),
    "is_embedded": lambda m, path: ccpforge.is_embedded(m),
    "is_orientable": lambda m, path: ccpforge.is_orientable(m),
    "save_json": lambda m, path: ccpforge.save_json(m, path / "m.json"),
    "save_mesh": lambda m, path: ccpforge.save_mesh(m, path / "m.stl"),
    "save_mesh-no-path": lambda m, path: ccpforge.save_mesh(m, None),
    "self_intersections": lambda m, path: ccpforge.self_intersections(m),
    "verify": lambda m, path: ccpforge.verify(m),
    "write_obj": lambda m, path: ccpforge.write_obj(m, path / "m.obj"),
    "write_stl": lambda m, path: ccpforge.write_stl(m, path / "m.stl"),
}
RAW = {"drill", "drill_repeat"}


@pytest.mark.parametrize("name", sorted(MESH_ENTRIES))
@pytest.mark.parametrize("bad", [None, "p2-24", 5],
                         ids=["None", "str", "int"])
def test_an_argument_that_is_no_mesh_raises_bad_parameters(name, bad,
                                                           tmp_path):
    with pytest.raises(BadParameters, match="the mesh must be"):
        MESH_ENTRIES[name](bad, tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(set(MESH_ENTRIES) - RAW))
def test_raw_data_is_no_validated_mesh(name, tmp_path):
    """Only drill and drill_repeat take raw MeshData."""
    with pytest.raises(BadParameters, match="must be a Polyhedron, not"):
        MESH_ENTRIES[name](_p2_24(), tmp_path)


@pytest.mark.parametrize("name", sorted(RAW))
def test_drills_take_raw_data(name, tmp_path):
    raw = MeshData(P.vertices, P.faces, P.metadata)
    assert MESH_ENTRIES[name](raw, tmp_path).n_faces > P.n_faces


def test_every_public_entry_that_takes_a_mesh_is_listed():
    """The public functions with a parameter annotated as a Polyhedron are
    those MESH_ENTRIES lists."""
    takes_mesh = {
        name for name in ccpforge.__all__
        if inspect.isfunction(fn := getattr(ccpforge, name)) and any(
            "Polyhedron" in str(param.annotation)
            for param in inspect.signature(fn).parameters.values())}
    assert takes_mesh == {name.split("-")[0] for name in MESH_ENTRIES}
