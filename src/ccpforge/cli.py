"""Command line interface.

Exit codes: 0 success (verify: mesh is a constant-defect surface),
1 verified but not constant-defect, 2 bad input, parameters or files, or
a closed standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import BadParameters, CcpError
from .fileio import load_mesh, save_mesh
from .generators import CATALOG, FamilyRequest, generate_family
from .mesh import check_defect_tolerance
from .surgery import DrillSpec, drill_repeat
from .verify import format_report, verify


def _number(text) -> float:
    """float(text), or nan when text is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_params(items):
    out = {}
    for item in items or []:
        k, _, v = item.partition("=")
        value = _number(v)
        if not math.isfinite(value):
            raise BadParameters(f"--param expects key=number, got {item!r}")
        out[k.strip()] = value
    return out


def _defect_tolerance(args):
    """The defect band --tolerance or else CCP_TOLERANCE sets, if any,
    checked as verify checks it, before the file is read."""
    given = args.tolerance if args.tolerance is not None \
        else os.environ.get("CCP_TOLERANCE")
    if given in (None, ""):
        return None
    try:
        given = float(given)
    except ValueError:
        pass                    # text that is no number: the error names it
    return check_defect_tolerance(given)


def cmd_generate(args) -> int:
    req = FamilyRequest(args.family, args.genus,
                        _parse_params(args.param), args.prefer_fewest)
    mesh = generate_family(req)
    save_mesh(mesh, args.output)
    print(f"wrote {args.output}: {mesh.n_vertices} vertices, "
          f"{mesh.n_edges} edges, {mesh.n_faces} faces", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    tolerance = _defect_tolerance(args)
    report = verify(load_mesh(args.file), defect_tolerance=tolerance)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(format_report(report))
    return 0 if report.verdict in ("ccp_embedded", "ccp_immersed") else 1


def cmd_catalog(_args) -> int:
    rows = [("family", "genus", "vertices", "orientable", "description")]
    rows += [(f.family, f.genus_range, f.vertex_count, f.orientable,
              f.description) for f in CATALOG]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def cmd_drill(args) -> int:
    mesh = load_mesh(args.file)
    spec = DrillSpec(args.face_a, args.face_b, args.n,
                     radius=args.radius, phase=args.phase)
    out = drill_repeat(mesh, spec, args.k)
    save_mesh(out, args.output)
    print(f"wrote {args.output}: {out.n_vertices} vertices",
          file=sys.stderr)
    return 0


def cmd_export(args) -> int:
    mesh = load_mesh(args.file)
    save_mesh(mesh, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccp",
        description="Generate, modify and verify constant-curvature "
                    "polyhedra.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a catalog family")
    g.add_argument("--family", required=True,
                   choices=[f.family for f in CATALOG])
    g.add_argument("--genus", type=int)
    g.add_argument("--param", action="append", metavar="K=V")
    g.add_argument("--prefer-fewest", action="store_true",
                   help="dispatch to the fewest-vertex construction")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="verify a mesh file")
    v.add_argument("file")
    v.add_argument("--tolerance", type=float,
                   help="defect-constancy tolerance in radians "
                        "(or env CCP_TOLERANCE)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("catalog", help="list the family catalog")
    c.set_defaults(func=cmd_catalog)

    d = sub.add_parser("drill", help="tunnel a prism between two faces")
    d.add_argument("file")
    d.add_argument("--face-a", type=int, required=True)
    d.add_argument("--face-b", type=int, required=True)
    d.add_argument("--n", type=int, required=True, help="prism order")
    d.add_argument("--k", type=int, default=1, help="number of drills")
    d.add_argument("--radius", type=float)
    d.add_argument("--phase", type=float, default=0.0)
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=cmd_drill)

    e = sub.add_parser("export", help="convert a mesh to OBJ/STL/JSON")
    e.add_argument("file")
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away; send what is still buffered to
        # devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except CcpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
