"""Bad arguments to the generator, metric, report and file entry points
end in the CcpError that names the fault, never in a TypeError,
ValueError, IndexError or OverflowError, and no bad value is accepted;
a defect that is not finite prints as a float.  gen_t_block's l and d
are among the generator parameters of
test_generators.py::test_real_parameters_must_be_finite_reals.  Every
public entry that takes a mesh raises BadParameters for an argument
that is not one (mesh._mesh), before it reads it or writes a file."""

import copy
import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest

import ccpforge
from ccpforge import surgery
from ccpforge import (DrillSpec, FaceCorrespondence, a_coeff, angular_defect,
                      connect_sum, corner_angle, defect_profile,
                      dihedral_angle, drill, drill_repeat, edge_length,
                      f_angle_sum, format_pi_multiple, gen_nonorientable,
                      gen_p2_24, generate_family, load_json, load_mesh,
                      retile_pierced_face, save_json, save_mesh)
from ccpforge.errors import (BadFile, BadParameters, GenusOutOfRange,
                             IndexOutOfRange)
from ccpforge.fileio import mesh_to_document
from ccpforge.generators import FamilyRequest, _p2_24
from ccpforge.mesh import MeshData

from conftest import METADATA_CHANGES, refuses_change

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


# p2-24 has 24 vertices and no edge from vertex 0 to vertex 3
MISFITS = {"label-99": {"vertex_labels": {"a": 99}},
           "seam-99": {"seam_edges": {(0, 99)}},
           "seam-not-an-edge": {"seam_edges": {(3, 0)}}}


@pytest.mark.parametrize("kw", MISFITS.values(), ids=MISFITS.keys())
def test_labels_and_seams_must_fit_the_mesh(kw, tmp_path, capsys):
    """Labels and seams that are of the right kinds but do not fit the
    mesh (a label beyond its vertices, a seam that is not an edge) raise
    BadParameters from the build and from with_metadata, and the same
    metadata in a file ends in BadFile, with the same message, and exit
    2."""
    from ccpforge.cli import main
    with pytest.raises(BadParameters, match="^metadata ") as built:
        ccpforge.build_polyhedron(P.vertices, P.faces,
                                  ccpforge.MeshMetadata(**kw))
    with pytest.raises(BadParameters) as relabelled:
        P.with_metadata(**kw)
    assert str(relabelled.value) == str(built.value)
    doc = mesh_to_document(P)
    doc["metadata"].update({key: [list(s) for s in value]
                            if key == "seam_edges" else value
                            for key, value in kw.items()})
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: BadFile: {built.value}\n"


def test_drilled_mesh_rebuilds_from_seams_written_higher_id_first():
    """A seam is an unordered pair: the drilled p2-24's 40 seams, each
    given higher id first, are the mesh's seams, exempt from the flat-edge
    check."""
    p = ccpforge.gen_orientable(3)
    seams = {(w, u) for u, w in p.metadata.seam_edges}
    assert len(seams) == 40 and all(u > w for u, w in seams)
    meta = ccpforge.MeshMetadata(seam_edges=seams)
    assert meta.seam_edges == p.metadata.seam_edges
    q = ccpforge.build_polyhedron(p.vertices, p.faces, meta,
                                  edge_slots=p.geometry.cells)
    assert p.with_metadata(seam_edges=seams).metadata == p.metadata
    assert ccpforge.verify(q).verdict == "ccp_embedded"


def test_with_metadata_names_a_field_it_does_not_have():
    with pytest.raises(BadParameters, match="metadata has no field 'foo'"):
        P.with_metadata(foo=1)


@pytest.mark.parametrize("recipe", [surgery.assemble, surgery.construct])
def test_a_recipe_names_a_field_or_step_it_cannot_take(recipe):
    """A recipe's metadata field that is no field, a step that is neither
    a Drill nor a (piece, FaceCorrespondence) pair, and steps that are no
    sequence raise BadParameters, as with_metadata does, not a
    TypeError."""
    with pytest.raises(BadParameters, match="metadata has no field 'fo'"):
        recipe(P, [], fo=1)
    with pytest.raises(BadParameters, match="^step 1, a int, is neither "
                       r"a Drill nor a \(piece, FaceCorrespondence\) pair"):
        recipe(P, [surgery.Drill(DrillSpec(0, 1, 12)), 5])
    with pytest.raises(BadParameters, match="^the steps, a int, are not a "
                       "sequence$"):
        recipe(P, 5)


def test_counts_names_a_step_it_cannot_take():
    """surgery.counts, which reads a recipe before it is assembled, raises
    assemble's BadParameters for a step that is neither a Drill nor a
    (piece, FaceCorrespondence) pair and for steps that are no sequence,
    not a TypeError; it takes no metadata."""
    with pytest.raises(BadParameters, match="^step 0, a int, is neither "
                       r"a Drill nor a \(piece, FaceCorrespondence\) pair"):
        surgery.counts(P, [5])
    with pytest.raises(BadParameters, match="^the steps, a int, are not a "
                       "sequence$"):
        surgery.counts(P, 5)


def test_metadata_keeps_python_numbers_in_fresh_containers():
    """MeshMetadata keeps numpy numbers as Python ones, seams lower id
    first, and containers of its own."""
    labels, seams = {"a": np.int64(3)}, {(np.intp(5), np.int32(1))}
    meta = ccpforge.MeshMetadata(genus=np.int64(2), orientable=np.True_,
                                 expected_defect=np.float32(0.5),
                                 vertex_labels=labels, seam_edges=seams)
    assert [type(x) for x in (meta.genus, meta.orientable,
                              meta.expected_defect)] == [int, bool, float]
    assert meta.vertex_labels == {"a": 3} and meta.seam_edges == {(1, 5)}
    assert {type(x) for x in (*meta.vertex_labels.values(),
                              *next(iter(meta.seam_edges)))} == {int}
    assert meta.vertex_labels is not labels and meta.seam_edges is not seams


@pytest.fixture(scope="module")
def drilled():
    """A drilled p2-24: metadata with labels, seams and provenance."""
    return ccpforge.gen_orientable(3)


@pytest.mark.parametrize("change,error", METADATA_CHANGES.values(),
                         ids=METADATA_CHANGES.keys())
def test_metadata_refuses_change_in_place(drilled, change, error, tmp_path):
    """A mesh's metadata is frozen: assigning a field, setting a label,
    adding a seam or appending provenance raises, and the mesh still
    saves as JSON that loads back with equal metadata: a label set in
    place would escape every check into a file the loader refuses."""
    before = drilled.metadata
    with pytest.raises(error):
        change(drilled.metadata)
    assert drilled.metadata is before
    save_json(drilled, tmp_path / "m.json")
    assert load_json(tmp_path / "m.json").metadata == drilled.metadata


def test_metadata_converts_copies_and_pickles_as_a_dataclass():
    """dataclasses.asdict of a metadata record with labels gives its
    fields, from which MeshMetadata makes an equal record, and
    copy.deepcopy and a pickle round trip give an equal record; each
    still refuses every change in place.  The labels are a read-only dict
    of the library's own, where a read-only mapping proxy neither deep
    copies nor pickles."""
    meta = ccpforge.gen_p2_24().metadata
    fields = dataclasses.asdict(meta)
    assert fields["family"] == "p2-24" and fields["vertex_labels"] == {
        f"v{j}{tag}": 8 * (j - 1) + i for j in (1, 2, 3)
        for i, tag in enumerate(("+++", "++-", "+-+", "+--", "-++", "-+-",
                                 "--+", "---"))}
    copies = [ccpforge.MeshMetadata(**fields), copy.deepcopy(meta),
              pickle.loads(pickle.dumps(meta))]
    for back in copies:
        assert back == meta and back is not meta
        assert back.vertex_labels is not meta.vertex_labels
        refuses_change(back)
    refuses_change(meta)


@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_mesh_pickles_and_deep_copies_with_its_metadata(drilled, clone):
    """A drilled mesh, with labels and seams, comes back from pickle and
    from copy.deepcopy with equal metadata and the same verdict."""
    meta = drilled.metadata
    assert meta.vertex_labels and meta.seam_edges and meta.provenance
    back = clone(drilled)
    assert back.metadata == meta and back.metadata is not meta
    assert ccpforge.verify(back).verdict == ccpforge.verify(drilled).verdict


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
