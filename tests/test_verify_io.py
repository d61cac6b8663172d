"""Verification reports, serialization formats and the command line."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccpforge import (MeshMetadata, build_polyhedron, format_pi_multiple,
                      gen_minimal, gen_nonorientable, gen_orientable,
                      gen_p2_24, gen_q2_9, gen_q3_18, gen_tetrahedron,
                      gen_tetrahemihexahedron, load_json, load_mesh, read_obj,
                      save_json, verify, write_obj, write_stl)
from ccpforge import _geom
from ccpforge.errors import NotRepresentable
from ccpforge.fileio import mesh_to_document

from conftest import face_triangles
from test_self_intersection_oracle import SMALL_GENERA, family


class TestVerify:
    def test_q2_9_immersed(self):
        r = verify(gen_q2_9())
        assert r.verdict == "ccp_immersed"
        assert abs(r.defects.mean) < 1e-9
        assert r.topology.genus == 2 and not r.topology.orientable
        assert r.genus_match

    def test_orientable_embedded(self):
        r = verify(gen_orientable(4))
        assert r.verdict == "ccp_embedded"
        assert r.defects.mean == pytest.approx(-math.pi / 6, abs=1e-6)

    def test_not_ccp(self):
        v = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1),
                      (-1.3, -1.1, 1.2)], float)
        f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
        r = verify(build_polyhedron(v, f))
        assert r.verdict == "not_ccp"

    def test_surgery_built_mesh_held_to_the_one_band(self):
        r = verify(gen_nonorientable(7))  # two chained drills
        assert r.defect_tolerance == 1e-9
        assert r.verdict == "ccp_immersed"

    def test_report_dict(self):
        d = verify(gen_tetrahedron()).to_dict()
        assert d["verdict"] == "ccp_embedded"
        assert d["defect_mean_pretty"] == "pi"
        json.dumps(d)

    def test_idempotent(self):
        p = gen_q2_9()
        assert verify(p).to_dict() == verify(p).to_dict()


def nudged_tetrahedron(provenance=()):
    """A regular tetrahedron with one vertex moved by 1e-8: its defect
    deviation, 5.8e-9, lies between the band 1e-9 and 1e-8."""
    return build_polyhedron(
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1 + 1e-8)],
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)],
        metadata=MeshMetadata(provenance=list(provenance)))


@pytest.mark.parametrize("provenance", [[], ["drill(n=3)"]])
def test_provenance_does_not_widen_the_band(tmp_path, provenance):
    """The nudged tetrahedron is not_ccp, whatever surgeries its
    provenance claims."""
    from ccpforge.cli import main
    p = nudged_tetrahedron(provenance)
    r = verify(p)
    assert 1e-9 < r.defects.max_abs_deviation < 1e-8
    assert r.defect_tolerance == 1e-9
    assert r.verdict == "not_ccp"
    path = tmp_path / "nudged.json"
    save_json(p, path)
    assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("flag,env,code", [
    (None, None, 1), ("1e-7", None, 0), (None, "1e-7", 0),
    ("1e-9", "1e-7", 1),
    (None, "abc", 2), (None, "nan", 2), (None, "-1", 2), (None, "0", 2),
    ("nan", None, 2), ("-1", None, 2), ("inf", None, 2), ("0", None, 2),
])
def test_tolerance_override_contract(tmp_path, capsys, monkeypatch, flag,
                                     env, code):
    """--tolerance, or else CCP_TOLERANCE, sets the defect band of the
    nudged tetrahedron; a band that is not a finite positive number ends
    in BadParameters and exit 2."""
    from ccpforge.cli import main
    path = tmp_path / "nudged.json"
    save_json(nudged_tetrahedron(), path)
    if env is None:
        monkeypatch.delenv("CCP_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("CCP_TOLERANCE", env)
    argv = ["verify", str(path)] + ([] if flag is None
                                    else ["--tolerance", flag])
    assert main(argv) == code
    out = capsys.readouterr()
    assert ("BadParameters" in out.err) == (code == 2)
    assert "Traceback" not in out.err


def test_report_prints_the_band_it_used():
    from ccpforge.verify import format_report
    for band, text in ((None, "(tolerance 1e-09)"),
                       (1.5e-7, "(tolerance 1.5e-07)")):
        assert text in format_report(
            verify(gen_tetrahedron(), defect_tolerance=band))


@pytest.mark.parametrize("name,genus,params", SMALL_GENERA)
def test_report_ignores_provenance(name, genus, params):
    p = family(name, genus, **params)
    assert verify(p).to_dict() == \
        verify(p.with_metadata(provenance=[])).to_dict()


def test_format_pi_multiple():
    assert format_pi_multiple(0.0) == "0"
    assert format_pi_multiple(math.pi) == "pi"
    assert format_pi_multiple(-math.pi / 6) == "-pi/6"
    assert format_pi_multiple(7 * math.pi / 6) == "7*pi/6"
    assert format_pi_multiple(-4 * math.pi / 5) == "-4*pi/5"
    assert format_pi_multiple(1.2345) == "1.2345"


FLOAT32_MAX = float(np.finfo(np.float32).max)


def stl_record_loop(p):
    """The triangle-by-triangle STL writer that write_stl replaced."""
    tris = [t for ts in face_triangles(p) for t in ts]
    blob = bytearray(b"ccp-forge" + b" " * 71)
    blob += struct.pack("<I", len(tris))
    for t in tris:
        n = _geom.cross(t[1] - t[0], t[2] - t[0])
        norm = np.linalg.norm(n)
        n = n / norm if norm > 0 else n
        blob += struct.pack("<3f", *n)
        for q in t:
            blob += struct.pack("<3f", *q)
        blob += struct.pack("<H", 0)
    return bytes(blob)


class TestFileIO:
    def test_json_round_trip(self, tmp_path):
        p = gen_orientable(3)
        path = tmp_path / "mesh.json"
        save_json(p, path)
        q = load_json(path)
        assert (q.vertices == p.vertices).all()     # bit-identical doubles
        assert q.faces == p.faces and q.edges == p.edges
        assert q.metadata.family == p.metadata.family
        assert q.metadata.seam_edges == p.metadata.seam_edges

    def test_json_multi_edge_round_trip(self, tmp_path):
        p = gen_minimal(4)
        path = tmp_path / "m4.json"
        save_json(p, path)
        q = load_json(path)
        assert q.has_multi_edges
        assert q.edges == p.edges and q.edge_slots == p.edge_slots

    def test_obj(self, tmp_path):
        p = gen_tetrahemihexahedron()
        path = tmp_path / "thh.obj"
        write_obj(p, path)
        lines = path.read_text().strip().splitlines()
        assert sum(1 for x in lines if x.startswith("v ")) == 6
        assert sum(1 for x in lines if x.startswith("f ")) == 7
        assert all(min(int(t) for t in x.split()[1:]) >= 1
                   for x in lines if x.startswith("f "))
        q = read_obj(path)
        assert np.abs(q.vertices - p.vertices).max() == 0
        assert q.faces == p.faces

    def test_obj_round_trip_of_q3_18(self, tmp_path):
        """A glued mesh without doubled segments keeps its faces and
        pairing through OBJ."""
        p = gen_q3_18()
        assert not p.has_multi_edges
        write_obj(p, tmp_path / "q3.obj")
        q = read_obj(tmp_path / "q3.obj")
        assert q.vertices.tobytes() == p.vertices.tobytes()
        assert q.faces == p.faces and q.edge_slots == p.edge_slots
        assert verify(q).verdict == verify(p).verdict

    def test_stl(self, tmp_path):
        p = gen_q2_9()
        path = tmp_path / "q.stl"
        write_stl(p, path)
        blob = path.read_bytes()
        assert blob.startswith(b"ccp-forge")
        n = struct.unpack("<I", blob[80:84])[0]
        assert n == sum(len(c) - 2 for c in p.faces)
        assert len(blob) == 84 + 50 * n

    @pytest.mark.parametrize("make", [gen_q2_9, gen_p2_24])
    def test_stl_bytes_are_the_record_loop(self, tmp_path, make):
        p = make()
        write_stl(p, tmp_path / "m.stl")
        assert (tmp_path / "m.stl").read_bytes() == stl_record_loop(p)

    @pytest.mark.parametrize("factor", [
        1e38, FLOAT32_MAX, math.nextafter(FLOAT32_MAX + 2.0 ** 103, 0.0),
        FLOAT32_MAX + 2.0 ** 103, 1e39])     # 2**103: half a float32 ulp
    def test_stl_float32_range(self, tmp_path, factor):
        """A coordinate that rounds to inf in float32 raises
        NotRepresentable, exactly where struct.pack overflows."""
        p = gen_tetrahedron()
        big = build_polyhedron(p.vertices * factor, p.faces)
        try:
            want = stl_record_loop(big)
        except OverflowError:
            want = None
        path = tmp_path / "big.stl"
        if want is None:
            with pytest.raises(NotRepresentable):
                write_stl(big, path)
            assert not path.exists()
        else:
            write_stl(big, path)
            assert path.read_bytes() == want


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None, stdout=subprocess.PIPE):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "ccpforge.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, env=env)


class TestCli:
    def test_generate_and_verify(self, tmp_path):
        out = tmp_path / "m7.json"
        r = run_cli("generate", "--family", "minimal", "--genus", "7",
                    "-o", str(out))
        assert r.returncode == 0
        assert load_json(out).n_vertices == 18
        r = run_cli("verify", str(out))
        assert r.returncode == 0
        assert "ccp_immersed" in r.stdout

    def test_generate_fewest(self, tmp_path):
        out = tmp_path / "q4.json"
        r = run_cli("generate", "--family", "nonorientable", "--genus",
                    "4", "--prefer-fewest", "-o", str(out))
        assert r.returncode == 0
        assert load_json(out).n_vertices == 12

    def test_verify_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli("generate", "--family", "tetrahedron", "-o", str(out))
        r = run_cli("verify", str(out), "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "ccp_embedded"

    def test_verify_not_ccp_exit_1(self, tmp_path):
        v = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1.3, -1.1, 1.2)]
        f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
        path = tmp_path / "bad.json"
        save_json(build_polyhedron(v, f), path)
        r = run_cli("verify", str(path))
        assert r.returncode == 1

    def test_missing_file_exit_2(self):
        r = run_cli("verify", "/definitely/not/here.json")
        assert r.returncode == 2

    def test_bad_genus_exit_2(self, tmp_path):
        r = run_cli("generate", "--family", "v8g", "--genus", "1",
                    "-o", str(tmp_path / "x.json"))
        assert r.returncode == 2

    def test_non_numeric_param_exit_2(self, tmp_path):
        r = run_cli("generate", "--family", "minimal", "--genus", "3",
                    "--param", "l1=abc", "-o", str(tmp_path / "x.json"))
        assert r.returncode == 2
        assert "BadParameters" in r.stderr and "Traceback" not in r.stderr

    def test_unknown_param_exit_2(self, tmp_path):
        r = run_cli("generate", "--family", "minimal", "--genus", "3",
                    "--param", "zz=1", "-o", str(tmp_path / "x.json"))
        assert r.returncode == 2
        assert "BadParameters" in r.stderr and "Traceback" not in r.stderr

    def test_catalog(self):
        r = run_cli("catalog")
        assert r.returncode == 0
        for fam in ("tetrahedron", "minimal", "nonorientable", "n5g"):
            assert fam in r.stdout

    def test_drill_command(self, tmp_path):
        src = tmp_path / "p2.json"
        dst = tmp_path / "p3.json"
        run_cli("generate", "--family", "p2-24", "-o", str(src))
        r = run_cli("drill", str(src), "--face-a", "0", "--face-b", "1",
                    "--n", "12", "-o", str(dst))
        assert r.returncode == 0
        mesh = load_json(dst)
        assert mesh.n_vertices == 48
        r = run_cli("verify", str(dst), "--json")
        assert json.loads(r.stdout)["genus"] == 3

    @pytest.mark.parametrize("argv", [["catalog"], ["verify", "t.json"]])
    def test_closed_stdout_exit_2(self, tmp_path, argv):
        """With the read end of its stdout pipe closed, as under
        `| head -1`, a command exits 2 without a traceback."""
        save_json(gen_tetrahedron(), tmp_path / "t.json")
        r, w = os.pipe()
        os.close(r)
        try:
            res = run_cli(*argv, cwd=tmp_path, stdout=w)
        finally:
            os.close(w)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr

    def test_export_obj(self, tmp_path):
        src = tmp_path / "thh.json"
        dst = tmp_path / "thh.obj"
        run_cli("generate", "--family", "thh", "-o", str(src))
        r = run_cli("export", str(src), "-o", str(dst))
        assert r.returncode == 0
        assert load_mesh(dst).n_vertices == 6

    def test_export_obj_of_doubled_segments_exit_2(self, tmp_path):
        """OBJ cannot keep minimal g = 3's doubled segments apart, so the
        export fails and writes nothing."""
        src = tmp_path / "m3.json"
        dst = tmp_path / "m3.obj"
        run_cli("generate", "--family", "minimal", "--genus", "3",
                "-o", str(src))
        assert load_mesh(src).has_multi_edges
        r = run_cli("export", str(src), "-o", str(dst))
        assert r.returncode == 2
        assert "NotRepresentable" in r.stderr and ".json" in r.stderr
        assert "Traceback" not in r.stderr
        assert not dst.exists()


@pytest.mark.parametrize("suffix", [".json", ".obj"])
def test_drill_twice_writes_a_genus_4_mesh(tmp_path, capsys, suffix):
    """`ccp drill --k 2` on p2-24 writes a mesh that verifies as an
    embedded genus-4 CCP, through either format."""
    from ccpforge.cli import main
    src, dst = tmp_path / "p2.json", tmp_path / f"g4{suffix}"
    save_json(gen_p2_24(), src)
    assert main(["drill", str(src), "--face-a", "0", "--face-b", "1",
                 "--n", "12", "--k", "2", "-o", str(dst)]) == 0
    capsys.readouterr()
    assert main(["verify", str(dst), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 4 and doc["verdict"] == "ccp_embedded"


def _bad_input_exits_2(capsys, path, out):
    """verify, drill and export each end in BadFile and exit 2."""
    from ccpforge.cli import main
    for argv in (["verify", str(path)],
                 ["drill", str(path), "--face-a", "0", "--face-b", "1",
                  "--n", "12", "-o", str(out)],
                 ["export", str(path), "-o", str(out)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "BadFile" in err, (argv, err)


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "vertices": [[0, 0')
    _bad_input_exits_2(capsys, path, tmp_path / "out.json")


def test_document_without_vertices_or_faces_exit_2(tmp_path, capsys):
    doc = mesh_to_document(gen_tetrahedron())
    for key in ("vertices", "faces"):
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps({k: v for k, v in doc.items()
                                    if k != key}))
        _bad_input_exits_2(capsys, path, tmp_path / "out.json")


def test_stl_and_other_format_version_exit_2(tmp_path, capsys):
    """STL is export-only and a document of another format_version is not
    read: both are file-format errors."""
    stl = tmp_path / "tet.stl"
    write_stl(gen_tetrahedron(), stl)
    _bad_input_exits_2(capsys, stl, tmp_path / "out.json")
    doc = dict(mesh_to_document(gen_tetrahedron()), format_version=2)
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))
    _bad_input_exits_2(capsys, path, tmp_path / "out.json")


def test_directory_exit_2(tmp_path, capsys):
    for name in ("meshes.json", "meshes.obj"):
        folder = tmp_path / name
        folder.mkdir()
        _bad_input_exits_2(capsys, folder, tmp_path / "out.json")


def test_unwritable_output_exit_2(tmp_path, capsys):
    """generate, drill and export to a directory or into a missing folder
    end in BadFile and exit 2."""
    from ccpforge.cli import main
    src = tmp_path / "p2.json"
    save_json(gen_p2_24(), src)
    for name in ("out.json", "out.obj", "out.stl", "missing/out.json"):
        out = tmp_path / name
        if "/" not in name:
            out.mkdir()
        for argv in (["generate", "--family", "tetrahedron"],
                     ["drill", str(src), "--face-a", "0", "--face-b", "1",
                      "--n", "12"],
                     ["export", str(src)]):
            assert main([*argv, "-o", str(out)]) == 2, (argv, name)
            err = capsys.readouterr().err
            assert "BadFile" in err and str(out) in err, (argv, err)


def test_export_stl_beyond_float32_exit_2(tmp_path, capsys):
    from ccpforge.cli import main
    src, out = tmp_path / "big.json", tmp_path / "big.stl"
    src.write_text(_tet_scaled(1e39))
    assert main(["export", str(src), "-o", str(out)]) == 2
    assert "NotRepresentable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,error", [
    (["--face-a", "999", "--face-b", "1"], "IndexOutOfRange: face 999"),
    (["--face-a", "-1", "--face-b", "1"], "IndexOutOfRange: face -1"),
    (["--face-a", "0", "--face-b", "18", "--k", "2"],
     "IndexOutOfRange: face 18"),
    (["--face-a", "0", "--face-b", "1", "--phase", "nan"], "BadParameters"),
    (["--face-a", "0", "--face-b", "1", "--phase", "inf", "--k", "2"],
     "BadParameters"),
    (["--face-a", "0", "--face-b", "1", "--radius", "nan"], "BadParameters"),
    (["--face-a", "0", "--face-b", "1", "--radius", "0", "--k", "2"],
     "BadParameters: prism radius 0.0 must be positive"),
    (["--face-a", "0", "--face-b", "1", "--radius", "-1"],
     "BadParameters: prism radius -1.0 must be positive"),
], ids=["face_past_end", "negative_face", "face_past_end_k2", "nan_phase",
        "inf_phase_k2", "nan_radius", "zero_radius_k2", "negative_radius"])
def test_drill_bad_placement_exit_2(tmp_path, capsys, flags, error):
    """A face id that is not a face of the mesh, or a placement number that
    is not finite, or a radius that is not positive, ends in a named error
    and exit 2 (p2-24 has 18 faces)."""
    from ccpforge.cli import main
    src, dst = tmp_path / "p2.json", tmp_path / "out.json"
    save_json(gen_p2_24(), src)
    assert main(["drill", str(src), *flags, "--n", "12",
                 "-o", str(dst)]) == 2
    assert error in capsys.readouterr().err
    assert not dst.exists()


def test_obj_round_trip_of_drilled_mesh(tmp_path):
    # OBJ drops metadata; re-import must detect the flat subdivision seams
    from ccpforge import DrillSpec, drill, gen_p2_24
    drilled = drill(gen_p2_24(), DrillSpec(0, 1, 12))
    path = tmp_path / "drilled.obj"
    write_obj(drilled, path)
    again = read_obj(path)
    assert again.n_vertices == drilled.n_vertices
    assert verify(again).verdict == "ccp_embedded"


def test_obj_round_trip_keeps_every_seam(tmp_path):
    """Each seam of a drilled mesh reads as a flat edge from its OBJ:
    n5g g = 19 keeps all 116, two of them beside sliver triangles (area
    3e-8) whose normals an uncentred Newell sum tilts by 1e-9 rad."""
    p = family("n5g", 19)
    write_obj(p, tmp_path / "n5g.obj")
    assert read_obj(tmp_path / "n5g.obj").metadata.seam_edges == \
        p.metadata.seam_edges


def test_seams_are_unordered_vertex_pairs(tmp_path, capsys):
    """A drilled p2-24 file whose 40 seams are each written higher id
    first verifies as ccp_embedded, and saved again it reloads with the
    seams the mesh was saved with."""
    from ccpforge.cli import main
    p = gen_orientable(3)
    doc = mesh_to_document(p)
    seams = doc["metadata"]["seam_edges"]
    assert len(seams) == 40
    doc["metadata"]["seam_edges"] = [[b, a] for a, b in seams]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    assert "ccp_embedded" in capsys.readouterr().out
    save_json(load_json(path), tmp_path / "again.json")
    assert load_json(tmp_path / "again.json").metadata.seam_edges == \
        p.metadata.seam_edges


TET_OBJ = """v 1 1 1
v 1 -1 -1
v -1 1 -1
v -1 -1 1
f 1 2 3
f 1 3 4
f 1 4 2
f 2 4 3
"""


def _tet_json(**parts):
    doc = mesh_to_document(gen_tetrahedron())
    doc.update(parts)
    return json.dumps(doc)


def _tet_scaled(factor):
    return _tet_json(vertices=(factor * np.array(mesh_to_document(
        gen_tetrahedron())["vertices"])).tolist())


TET_CELLS = [[[0, 0], [2, 2]], [[0, 2], [1, 0]], [[1, 2], [2, 0]],
             [[0, 1], [3, 2]], [[2, 1], [3, 0]], [[1, 1], [3, 1]]]


def _tet_cells(*first):
    """The tetrahedron with explicit edge_cells: `first` in place of the
    leading cells of TET_CELLS."""
    return _tet_json(edge_cells=[*first, *TET_CELLS[len(first):]])


def _tet_vertex(first):
    return _tet_json(vertices=[first] + mesh_to_document(
        gen_tetrahedron())["vertices"][1:])


def _p2_seams(seams):
    """p2-24's document with the given seams."""
    doc = mesh_to_document(gen_p2_24())
    doc["metadata"]["seam_edges"] = seams
    return json.dumps(doc)


CONTRACT_CASES = [
    ("vertices_str.json", _tet_json(vertices="abc"), 2, "BadFile"),
    ("metadata_list.json", _tet_json(metadata=[]), 2, "BadFile"),
    # bool is a subclass of int
    ("genus_true.json", _tet_json(metadata={"genus": True}), 2, "BadFile"),
    ("defect_true.json", _tet_json(metadata={"expected_defect_radians": True}),
     2, "BadFile"),
    # a defect must be a finite double, a genus at least 0, and the
    # version the integer 1
    ("defect_nan.json", _tet_json(metadata={
        "expected_defect_radians": float("nan")}), 2, "BadFile"),
    ("defect_inf.json", _tet_json(metadata={
        "expected_defect_radians": float("inf")}), 2, "BadFile"),
    ("defect_minus_inf.json", _tet_json(metadata={
        "expected_defect_radians": float("-inf")}), 2, "BadFile"),
    ("defect_huge_int.json", _tet_json(metadata={
        "expected_defect_radians": 10 ** 400}), 2, "BadFile"),
    ("genus_negative.json", _tet_json(metadata={"genus": -1}), 2, "BadFile"),
    ("version_true.json", _tet_json(format_version=True), 2, "BadFile"),
    ("face_str.json", _tet_json(faces=[[0, 1, "x"], [0, 2, 3], [0, 3, 1],
                                       [1, 3, 2]]), 2, "BadFile"),
    ("faces_int.json", _tet_json(faces=5), 2, "BadFile"),
    ("edge_cells.json", _tet_json(edge_cells=[[1]]), 2, "BadFile"),
    # a seam joins two distinct vertices of the mesh, a label names one
    ("seam_out_of_range.json", _tet_json(metadata={
        "seam_edges": [[5, 1000000]]}), 2, "BadFile: seam [5, 1000000]"),
    ("seam_loop.json", _tet_json(metadata={"seam_edges": [[2, 2]]}), 2,
     "BadFile: seam [2, 2]"),
    # p2-24 has no edge from vertex 0 to vertex 3
    ("seam_not_an_edge.json", _p2_seams([[0, 3]]), 2,
     "BadFile: seam [0, 3] is not an edge"),
    ("label_out_of_range.json", _tet_json(metadata={
        "vertex_labels": {"v4": 4}}), 2, "BadFile: vertex label 'v4'"),
    ("nan.json", _tet_vertex([float("nan"), 0, 0]), 2, "DegenerateFace"),
    ("inf.json", _tet_vertex([float("inf"), 0, 0]), 2, "vertex 0"),
    ("huge.json", _tet_scaled(1.7e308), 2, "DegenerateFace: vertex 0"),
    ("overflow.json", _tet_scaled(1e154), 2, "DegenerateFace: vertex 0"),
    ("short_v.obj", TET_OBJ.replace("v 1 1 1", "v 0 0"), 2, "BadFile"),
    ("word_v.obj", TET_OBJ.replace("v 1 1 1", "v a 0 0"), 2, "BadFile"),
    ("zero_index.obj", TET_OBJ.replace("f 1 2 3", "f 0 1 2"), 2, "BadFile"),
    ("relative.obj", TET_OBJ.replace("f 1 2 3", "f -4 -3 -2"), 0, ""),
    ("cells.json", _tet_cells(), 0, ""),
    ("cell_face_past_end.json", _tet_cells([[0, 0], [4, 0]]), 2,
     "NonManifoldEdge: half-edge (4, 0) out of range"),
    ("cell_negative_slot.json", _tet_cells([[0, -1], [2, 2]]), 2,
     "NonManifoldEdge: half-edge (0, -1) out of range"),
    # a slot beyond the int64 range names no half-edge
    ("cell_huge_slot.json", _tet_json(edge_cells=TET_CELLS[:-1] + [
        [[1, 1], [3, 10 ** 30]]]), 2,
     f"NonManifoldEdge: half-edge (3, {10 ** 30}) out of range"),
    ("cell_huge_negative_slot.json", _tet_json(edge_cells=TET_CELLS[:-1] + [
        [[1, 1], [3, -10 ** 30]]]), 2,
     f"NonManifoldEdge: half-edge (3, {-10 ** 30}) out of range"),
    ("cell_paired_twice.json", _tet_cells([[0, 0], [2, 2]], [[0, 0], [1, 0]]),
     2, "NonManifoldEdge: half-edge (0, 0) paired twice"),
    ("cell_two_segments.json", _tet_cells([[0, 0], [1, 0]], [[0, 2], [2, 2]]),
     2, "NonManifoldEdge: half-edges (0,0) and (1,0) traverse different "
        "segments"),
    ("cell_missing.json", _tet_json(edge_cells=TET_CELLS[:-1]), 2,
     "NonManifoldEdge: edge_slots do not cover every half-edge"),
    ("cells_empty.json", _tet_json(edge_cells=[]), 2,
     "NonManifoldEdge: edge_slots do not cover every half-edge"),
    ("pillow.json", json.dumps({
        "format_version": 1,
        "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
        "faces": [[0, 1, 2, 3], [0, 3, 2, 1]]}), 2,
     "IsolatedVertex: vertex 0 has 2 incident faces"),
]


@pytest.mark.parametrize("name,text,code,error", CONTRACT_CASES,
                         ids=[case[0] for case in CONTRACT_CASES])
def test_file_contents_contract(tmp_path, capsys, name, text, code, error):
    """Malformed file contents end in a named error and exit 2, never in
    a traceback; OBJ indices below zero count back from the last vertex."""
    from ccpforge.cli import main
    path = tmp_path / name
    path.write_text(text)
    assert main(["verify", str(path)]) == code
    assert error in capsys.readouterr().err
