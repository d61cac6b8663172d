"""Property tests of the input contract: `ccp verify` on a mutated
tetrahedron, as a JSON document or as OBJ text, and any `ccp` command line
drawn from a bounded vocabulary exit 0, 1 or 2 and never raise."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ccpforge import (CATALOG, gen_p2_24, gen_tetrahedron,  # noqa: E402
                      save_json, write_obj, write_stl)
from ccpforge.cli import main  # noqa: E402
from ccpforge.fileio import mesh_to_document  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

OBJ_TOKENS = st.sampled_from(
    ["v", "f", "0", "1", "2", "3", "4", "5", "-1", "-4", "-9", "0.5",
     "1e308", "-1e308", "nan", "inf", "x", "1/2/3", "2//1", "/", "#"])

_DELETE = object()


def _mutate(data, node):
    """One random change somewhere inside the JSON value `node`: replace a
    part, delete it (returns _DELETE for node itself) or add to it."""
    if isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        new = _mutate(data, node[key])
        if new is _DELETE:
            del node[key]
        else:
            node[key] = new
        return node
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add" and isinstance(node, list):
        node.append(data.draw(JSON_VALUES))
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
    elif op == "delete":
        return _DELETE
    else:
        return data.draw(JSON_VALUES)
    return node


def _verify_exit(name: str, text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["verify", str(path)])


def _tetrahedron_obj() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tet.obj"
        write_obj(gen_tetrahedron(), path)
        return path.read_text().splitlines()


TET_DOC = json.dumps(mesh_to_document(gen_tetrahedron()))
TET_OBJ = _tetrahedron_obj()


@FUZZ
@given(st.data(), st.integers(1, 3))
def test_mutated_json_document(data, changes):
    doc = json.loads(TET_DOC)
    for _ in range(changes):
        doc = _mutate(data, doc)
        if doc is _DELETE:
            doc = {}
    assert _verify_exit("mesh.json", json.dumps(doc)) in (0, 1, 2)


@FUZZ
@given(st.data(), st.integers(1, 3))
def test_mutated_obj_text(data, changes):
    lines = [line.split() for line in TET_OBJ]
    for _ in range(changes):
        at = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["token", "drop", "insert"]))
        if op == "insert" or not lines:
            lines.insert(at, data.draw(st.lists(OBJ_TOKENS, max_size=5)))
        elif op == "drop":
            del lines[min(at, len(lines) - 1)]
        else:
            line = lines[min(at, len(lines) - 1)]
            slot = data.draw(st.integers(0, len(line)))
            token = data.draw(OBJ_TOKENS | st.just(None))
            if token is not None:
                line[slot:slot + 1] = [token]
            elif line:
                del line[min(slot, len(line) - 1)]
    text = "\n".join(" ".join(line) for line in lines) + "\n"
    assert _verify_exit("mesh.obj", text) in (0, 1, 2)


# ---------------------------------------------------------------------------
# `ccp` argv drawn from a bounded vocabulary

NUMBERS = st.sampled_from(["nan", "inf", "1e308", "1e-300", "0.2", "2"])
OUTPUTS = st.sampled_from(["@out.json", "@out.obj", "@out.stl", "@folder",
                           "@missing/out.json"])
INPUTS = st.sampled_from(["@p2.json", "@tet.obj", "@tet.stl",
                          "@missing.json", "@folder"])
FAMILIES = st.sampled_from(sorted(f.family for f in CATALOG))
PARAM_NAMES = st.sampled_from(["b", "c", "r", "h", "l1", "root_tol", "x"])


@st.composite
def ccp_argv(draw):
    """One `ccp` command line; "@name" stands for a path in a scratch
    folder holding p2.json, tet.obj, tet.stl and an empty folder."""
    cmd = draw(st.sampled_from(
        ["generate", "verify", "drill", "export", "catalog"]))
    argv = [cmd]
    if cmd == "generate":
        # the genus stays small: a v6g of genus 1e8 is a 6e8-vertex mesh
        argv += ["--family", draw(FAMILIES)]
        if draw(st.booleans()):
            argv += ["--genus", str(draw(st.integers(-3, 12)))]
        for name in draw(st.lists(PARAM_NAMES, max_size=2)):
            argv += ["--param", f"{name}={draw(NUMBERS)}"]
        argv += ["--prefer-fewest"] * draw(st.booleans())
        argv += ["-o", draw(OUTPUTS)]
    elif cmd == "verify":
        argv.append(draw(INPUTS))
        if draw(st.booleans()):
            argv += ["--tolerance", draw(NUMBERS)]
        argv += ["--json"] * draw(st.booleans())
    elif cmd == "drill":
        faces = st.sampled_from(["0", "1", "2", "-1", "99"])
        argv += [draw(INPUTS), "--face-a", draw(faces), "--face-b",
                 draw(faces), "--n", str(draw(st.integers(-1, 12))),
                 "--k", str(draw(st.integers(0, 3)))]
        for flag in draw(st.lists(st.sampled_from(["--radius", "--phase"]),
                                  max_size=2, unique=True)):
            argv += [flag, draw(NUMBERS)]
        argv += ["-o", draw(OUTPUTS)]
    elif cmd == "export":
        argv += [draw(INPUTS), "-o", draw(OUTPUTS)]
    return argv


def _inputs_folder(tmp: Path) -> None:
    save_json(gen_p2_24(), tmp / "p2.json")
    write_obj(gen_tetrahedron(), tmp / "tet.obj")
    write_stl(gen_tetrahedron(), tmp / "tet.stl")
    (tmp / "folder").mkdir()


@FUZZ
@given(ccp_argv())
def test_cli_argv(argv):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _inputs_folder(tmp)
        argv = [str(tmp / a[1:]) if a.startswith("@") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
                assert code == 2, argv
    assert code in (0, 1, 2), argv
