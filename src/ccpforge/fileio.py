"""Mesh serialization: a native JSON document that round-trips doubles
exactly, plus OBJ and binary STL export."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import BadFile, IndexOutOfRange
from .mesh import (DEFAULT_TOLERANCES, MeshMetadata, Polyhedron,
                   ToleranceSet, build_polyhedron, flat_edges)

FORMAT_VERSION = 1


def mesh_to_document(p: Polyhedron) -> dict:
    meta = {
        "family": p.metadata.family,
        "genus": p.metadata.genus,
        "orientable": p.metadata.orientable,
        "expected_defect_radians": p.metadata.expected_defect,
        "provenance": list(p.metadata.provenance),
    }
    if p.metadata.vertex_labels:
        meta["vertex_labels"] = dict(p.metadata.vertex_labels)
    if p.metadata.seam_edges:
        meta["seam_edges"] = sorted(list(e) for e in p.metadata.seam_edges)
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": [[float(x) for x in row] for row in p.vertices],
        "faces": [list(cyc) for cyc in p.faces],
        "metadata": meta,
    }
    if p.has_multi_edges:
        doc["edge_cells"] = [[list(h) for h in cell]
                             for cell in p.edge_slots]
    return doc


def document_to_mesh(doc: dict,
                     tolerances: ToleranceSet = DEFAULT_TOLERANCES
                     ) -> Polyhedron:
    if not isinstance(doc, dict):
        raise BadFile(f"a mesh document is a JSON object, not "
                      f"{type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise IndexOutOfRange(
            f"unsupported format_version {doc.get('format_version')!r}")
    missing = [k for k in ("vertices", "faces") if k not in doc]
    if missing:
        raise BadFile(f"mesh document has no {' or '.join(missing)}")
    m = doc.get("metadata", {})
    meta = MeshMetadata(
        family=m.get("family"),
        genus=m.get("genus"),
        orientable=m.get("orientable"),
        expected_defect=m.get("expected_defect_radians"),
        provenance=list(m.get("provenance", [])),
        vertex_labels=dict(m.get("vertex_labels", {})),
        seam_edges={tuple(e) for e in m.get("seam_edges", [])},
    )
    slots = None
    if "edge_cells" in doc:
        slots = tuple((tuple(c[0]), tuple(c[1])) for c in doc["edge_cells"])
    return build_polyhedron(np.array(doc["vertices"], float),
                            [tuple(f) for f in doc["faces"]],
                            tolerances, meta, edge_slots=slots)


def save_json(p: Polyhedron, path) -> None:
    Path(path).write_text(json.dumps(mesh_to_document(p), indent=1) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except IsADirectoryError as exc:
        raise BadFile(f"{path} is a directory, not a mesh file") from exc


def load_json(path, tolerances: ToleranceSet = DEFAULT_TOLERANCES
              ) -> Polyhedron:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise BadFile(f"{path} is not JSON: {exc}") from exc
    return document_to_mesh(doc, tolerances)


# ---------------------------------------------------------------------------
# OBJ


def write_obj(p: Polyhedron, path) -> None:
    """Wavefront OBJ with 1-based indices; polygons are preserved."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in p.vertices]
    lines += ["f " + " ".join(str(i + 1) for i in cyc) for cyc in p.faces]
    Path(path).write_text("\n".join(lines) + "\n")


def read_obj(path, tolerances: ToleranceSet = DEFAULT_TOLERANCES
             ) -> Polyhedron:
    """Read an OBJ file.  OBJ carries no metadata, so flat edges between
    two coplanar faces (subdivision seams, e.g. from a retiled drill) are
    detected geometrically and recorded as seams rather than rejected."""
    verts, faces = [], []
    for raw in _read_text(path).splitlines():
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            faces.append(tuple(int(tok.split("/")[0]) - 1
                               for tok in parts[1:]))
    # validate with every side exempt from the flat-edge rejection, then
    # keep as seams the sides that are flat
    sides = {(min(u, v), max(u, v))
             for cyc in faces for u, v in zip(cyc, cyc[1:] + cyc[:1])}
    p = build_polyhedron(np.array(verts, float), faces, tolerances,
                         MeshMetadata(seam_edges=sides))
    flat = flat_edges(p, tolerances, ())
    return p.with_metadata(seam_edges={p.edges[e] for e in flat})


# ---------------------------------------------------------------------------
# binary STL


def write_stl(p: Polyhedron, path) -> None:
    """Binary little-endian STL; normals follow each triangle's winding
    (deterministic even for non-orientable meshes, where no global
    orientation exists)."""
    tris = [t for ts in p.geometry.triangles for t in ts]
    header = b"ccp-forge" + b" " * 71
    blob = bytearray(header)
    blob += struct.pack("<I", len(tris))
    for t in tris:
        n = np.cross(t[1] - t[0], t[2] - t[0])
        norm = np.linalg.norm(n)
        n = n / norm if norm > 0 else n
        blob += struct.pack("<3f", *n)
        for q in t:
            blob += struct.pack("<3f", *q)
        blob += struct.pack("<H", 0)
    Path(path).write_bytes(bytes(blob))


def save_mesh(p: Polyhedron, path) -> None:
    """Dispatch on extension: .json (native), .obj, .stl."""
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        write_obj(p, path)
    elif suffix == ".stl":
        write_stl(p, path)
    else:
        save_json(p, path)


def load_mesh(path, tolerances: ToleranceSet = DEFAULT_TOLERANCES
              ) -> Polyhedron:
    """Dispatch on extension: .json (native) or .obj."""
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        return read_obj(path, tolerances)
    if suffix == ".stl":
        raise IndexOutOfRange("STL is export-only (triangle soup loses "
                              "the face structure)")
    return load_json(path, tolerances)
