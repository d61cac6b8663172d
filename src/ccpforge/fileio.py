"""Mesh serialization: a native JSON document that round-trips doubles
exactly, plus OBJ and binary STL export."""

from __future__ import annotations

import json
import operator
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import BadFile, NotRepresentable
from .mesh import (MeshMetadata, Polyhedron, _edge_at, _mesh,
                   build_polyhedron, flat_edges)

FORMAT_VERSION = 1


def mesh_to_document(p: Polyhedron) -> dict:
    _mesh(p)
    meta = {
        "family": p.metadata.family,
        "genus": p.metadata.genus,
        "orientable": p.metadata.orientable,
        "expected_defect_radians": p.metadata.expected_defect,
        "provenance": list(p.metadata.provenance),
    }
    # labels and seams as Python ints: numpy's are vertex ids too
    if p.metadata.vertex_labels:
        meta["vertex_labels"] = {name: int(v) for name, v
                                 in p.metadata.vertex_labels.items()}
    if p.metadata.seam_edges:
        meta["seam_edges"] = sorted([int(u), int(w)]
                                    for u, w in p.metadata.seam_edges)
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": p.vertices.tolist(),
        "faces": p.faces,           # tuples encode as arrays
        "metadata": meta,
    }
    if p.has_multi_edges:
        doc["edge_cells"] = p.geometry.cells.reshape(-1, 2, 2).tolist()
    return doc


def _lists(rows, length=None) -> bool:
    """Whether rows is a JSON list of lists (each of the given length)."""
    return isinstance(rows, list) and set(map(type, rows)) <= {list} \
        and (length is None or set(map(len, rows)) <= {length})


def _int_entries(rows) -> bool:
    """Whether every entry of every list in rows is a JSON integer (true
    and false are not: their type is bool)."""
    return set(map(type, chain.from_iterable(rows))) <= {int}


# metadata key -> the JSON type of its value (true and false only for
# bool, not int), and a further test of the value
_METADATA = {
    "family": (str, None), "genus": (int, lambda g: g >= 0),
    "orientable": (bool, None),
    "expected_defect_radians": ((int, float),
                                lambda x: abs(x) <= sys.float_info.max),
    "provenance": (list, lambda v: {type(e) for e in v} <= {str}),
    "vertex_labels": (dict, lambda v: {type(e) for e in v.values()} <= {int}),
    "seam_edges": (list, lambda v: _lists(v, 2) and _int_entries(v)),
}


def _metadata(m, n_vertices: int) -> MeshMetadata:
    if not isinstance(m, dict):
        raise BadFile(f"metadata is a JSON object, not {type(m).__name__}")
    for key, (kind, value_ok) in _METADATA.items():
        value = m.get(key)
        if value is None:
            continue
        if not isinstance(value, kind) or \
                isinstance(value, bool) != (kind is bool) or \
                (value_ok and not value_ok(value)):
            raise BadFile(f"metadata {key!r} is malformed: {value!r:.60}")
    labels, seams = m.get("vertex_labels") or {}, m.get("seam_edges") or []
    for name, v in labels.items():
        if not 0 <= v < n_vertices:
            raise BadFile(f"vertex label {name!r} names no vertex: {v}")
    # a seam is an unordered pair of distinct vertices, stored lower first
    lo, hi = list(map(min, seams)), list(map(max, seams))
    if seams and (min(lo) < 0 or max(hi) >= n_vertices
                  or not all(map(operator.ne, lo, hi))):
        a, b = next(s for s in seams
                    if s[0] == s[1] or min(s) < 0 or max(s) >= n_vertices)
        raise BadFile(f"seam {[a, b]} is not two distinct vertex ids")
    return MeshMetadata(
        family=m.get("family"),
        genus=m.get("genus"),
        orientable=m.get("orientable"),
        expected_defect=m.get("expected_defect_radians"),
        provenance=list(m.get("provenance") or []),
        vertex_labels=dict(labels),
        seam_edges=set(zip(lo, hi)),
    )


def document_to_mesh(doc: dict) -> Polyhedron:
    """Build the mesh a native JSON document describes.  A document whose
    parts are not of the documented shapes, or that names a seam that is
    not an edge of the mesh, raises BadFile."""
    if not isinstance(doc, dict):
        raise BadFile(f"a mesh document is a JSON object, not "
                      f"{type(doc).__name__}")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise BadFile(f"unsupported format_version {version!r}")
    missing = [k for k in ("vertices", "faces") if k not in doc]
    if missing:
        raise BadFile(f"mesh document has no {' or '.join(missing)}")
    try:
        verts = np.array(doc["vertices"])
    except ValueError as exc:   # ragged rows
        raise BadFile(f"vertices are malformed: {exc}") from exc
    if verts.ndim != 2 or verts.shape[1] != 3 or verts.dtype.kind not in "iuf":
        raise BadFile("vertices must be a list of [x, y, z] numbers")
    faces = doc["faces"]
    if not _lists(faces) or not _int_entries(faces):
        raise BadFile("faces must be a list of lists of vertex indices")
    meta = _metadata(doc.get("metadata", {}), len(verts))
    cells = None
    if "edge_cells" in doc:
        cells = doc["edge_cells"]
        if not _lists(cells, 2) or not _lists(
                halves := list(chain.from_iterable(cells)), 2) or \
                not _int_entries(halves):
            raise BadFile("edge_cells must be a list of "
                          "[[face, slot], [face, slot]] pairs")
    p = build_polyhedron(verts, faces, meta, edge_slots=cells)
    if meta.seam_edges:
        _check_seams(p, meta.seam_edges)
    return p


def _check_seams(p: Polyhedron, seams: set[tuple[int, int]]) -> None:
    """BadFile for the least seam (u, v), u < v < V, that joins no edge
    cell's vertex pair."""
    want = np.array(sorted(seams), np.intp)
    stray = want[_edge_at(p, want) < 0]
    if stray.size:
        raise BadFile(f"seam {stray[0].tolist()} is not an edge of the mesh")


def save_json(p: Polyhedron, path) -> None:
    """Write the native JSON document on one line: without indent, json
    encodes in C, and each double is written as its shortest repr, which
    reads back to the same bits.  The layout is not part of the format.
    The document is built fresh from lists, tuples and dicts, so it holds
    no cycle and json need not look for one."""
    _write(path, (json.dumps(mesh_to_document(p), check_circular=False)
                  + "\n").encode())


def _path(path) -> Path:
    """path as a Path; one that is no str or os.PathLike raises
    BadFile."""
    try:
        return Path(path)
    except TypeError:
        raise BadFile(f"{path!r} is not a file path") from None


def _write(path, data: bytes) -> None:
    """Write an output file; a path that cannot be written (a directory,
    a missing folder, no permission) raises BadFile."""
    try:
        _path(path).write_bytes(data)
    except OSError as exc:
        raise BadFile(f"cannot write {path}: {exc.strerror or exc}") \
            from exc


def _read_text(path) -> str:
    """Read an input file; one that cannot be read as text raises BadFile."""
    try:
        return _path(path).read_text(encoding="utf-8")
    except IsADirectoryError as exc:
        raise BadFile(f"{path} is a directory, not a mesh file") from exc
    except OSError as exc:
        raise BadFile(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadFile(f"{path} is not text: {exc}") from exc


def load_json(path) -> Polyhedron:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise BadFile(f"{path} is not JSON: {exc}") from exc
    return document_to_mesh(doc)


# ---------------------------------------------------------------------------
# OBJ


def write_obj(p: Polyhedron, path) -> None:
    """Wavefront OBJ with 1-based indices; polygons are preserved.  OBJ
    pairs face sides by vertex pair, so a mesh with doubled segments (two
    edge cells on one vertex pair) raises NotRepresentable."""
    if _mesh(p).has_multi_edges:
        pairs = p.edge_pairs.tolist()
        pair = next(tuple(e) for e, f in zip(pairs, pairs[1:]) if e == f)
        raise NotRepresentable(
            f"OBJ cannot keep the doubled segment {pair} apart (it pairs "
            f"face sides by vertex pair); write .json, which keeps the "
            f"edge cells, or .stl")
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in p.vertices]
    lines += ["f " + " ".join(str(i + 1) for i in cyc) for cyc in p.faces]
    _write(path, ("\n".join(lines) + "\n").encode())


def _obj_index(token: str, n_vertices: int, lineno: int) -> int:
    """0-based vertex id of an OBJ face token ("7", "7/1/3", or "-2",
    relative to the n_vertices read so far)."""
    try:
        i = int(token.split("/")[0])
    except ValueError:
        raise BadFile(f"line {lineno}: {token!r} is not a vertex index") \
            from None
    if i == 0:
        raise BadFile(f"line {lineno}: OBJ vertex indices start at 1")
    if i < -n_vertices:
        raise BadFile(f"line {lineno}: relative index {i} reaches before "
                      f"the first vertex")
    return i - 1 if i > 0 else n_vertices + i


def read_obj(path) -> Polyhedron:
    """Read an OBJ file.  OBJ carries no metadata, so flat edges between
    two coplanar faces (subdivision seams, e.g. from a retiled drill) are
    detected geometrically and recorded as seams rather than rejected."""
    verts, faces = [], []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "v":
            try:
                x, y, z = map(float, parts[1:4])
            except ValueError:
                raise BadFile(f"line {lineno}: a vertex is three numbers, "
                              f"not {raw.strip()!r:.60}") from None
            verts.append([x, y, z])
        elif parts[0] == "f":
            faces.append(tuple(_obj_index(tok, len(verts), lineno)
                               for tok in parts[1:]))
    # validate with every side exempt from the flat-edge rejection, then
    # keep as seams the sides that are flat
    sides = {(min(u, v), max(u, v))
             for cyc in faces for u, v in zip(cyc, cyc[1:] + cyc[:1])
             if u != v}
    p = build_polyhedron(np.array(verts, float), faces,
                         MeshMetadata(seam_edges=sides))
    return p.with_metadata(seam_edges=set(flat_edges(p, ())))


# ---------------------------------------------------------------------------
# binary STL


# one STL triangle record: normal, three corners, attribute byte count
_STL_RECORD = np.dtype([("normal", "<f4", 3), ("corners", "<f4", (3, 3)),
                        ("attribute", "<u2")])


def write_stl(p: Polyhedron, path) -> None:
    """Binary little-endian STL; normals follow each triangle's winding
    (deterministic even for non-orientable meshes, where no global
    orientation exists).  A coordinate beyond the float32 range raises
    NotRepresentable."""
    tris = _mesh(p).vertices.take(p.geometry.triangulation.vertex, axis=0)
    records = np.zeros(len(tris), _STL_RECORD)
    with np.errstate(over="ignore"):
        records["normal"] = p.geometry.triangle_normals[0]
        records["corners"] = tris
    # a unit normal always fits; a coordinate may round to inf
    wide = np.logical_or.reduce(np.isinf(records["corners"]), axis=(1, 2))
    if np.logical_or.reduce(wide):
        top = np.maximum.reduce(np.abs(tris), axis=None)
        raise NotRepresentable(
            f"triangle {int(wide.argmax())} does not fit the float32 "
            f"range of STL (largest coordinate {top:.3g})")
    header = b"ccp-forge".ljust(80) + len(tris).to_bytes(4, "little")
    _write(path, header + records.tobytes())


def save_mesh(p: Polyhedron, path) -> None:
    """Dispatch on extension: .json (native), .obj, .stl."""
    _mesh(p)
    suffix = _path(path).suffix.lower()
    if suffix == ".obj":
        write_obj(p, path)
    elif suffix == ".stl":
        write_stl(p, path)
    else:
        save_json(p, path)


def load_mesh(path) -> Polyhedron:
    """Dispatch on extension: .json (native) or .obj."""
    suffix = _path(path).suffix.lower()
    if suffix == ".obj":
        return read_obj(path)
    if suffix == ".stl":
        raise BadFile("STL is export-only (triangle soup loses the face "
                      "structure)")
    return load_json(path)
