"""Aggregated verification: one report collecting topology, defect
statistics, the closed-surface defect identity, geometric residuals and the
self-intersection status of a mesh."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import BadParameters
from .mesh import (PLANARITY_TOL, Polyhedron, TopologyClass, _mesh,
                   check_defect_tolerance, classify, flat_edges)
from .metrics import (DefectProfile, IntersectionWitness, defect_profile,
                      descartes_residual, self_intersections)

DESCARTES_TOL = 1e-8


@dataclass
class VerificationReport:
    topology: TopologyClass
    defects: DefectProfile
    defect_tolerance: float
    descartes_residual: float
    max_planarity_residual: float
    dihedral_violations: list[tuple[int, int]]
    witnesses: list[IntersectionWitness]
    expected_defect: float | None
    defect_delta: float | None
    genus_match: bool | None
    verdict: str                     # ccp_embedded | ccp_immersed | not_ccp

    @property
    def embedded(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "euler_characteristic": self.topology.euler_characteristic,
            "orientable": self.topology.orientable,
            "genus": self.topology.genus,
            "defect_mean_radians": self.defects.mean,
            "defect_mean_pretty": format_pi_multiple(self.defects.mean),
            "defect_max_abs_deviation": self.defects.max_abs_deviation,
            "defect_is_constant": bool(self.defects.is_constant),
            "defect_tolerance": self.defect_tolerance,
            "descartes_residual": self.descartes_residual,
            "max_planarity_residual": self.max_planarity_residual,
            "dihedral_violations": [list(e) for e in
                                    self.dihedral_violations],
            "self_intersection": {
                "embedded": self.embedded,
                "witness_count": len(self.witnesses),
                "first_witnesses": [
                    {"faces": list(w.faces),
                     "point": [float(x) for x in w.point],
                     "kind": w.kind}
                    for w in self.witnesses[:5]],
            },
            "expected_defect_radians": self.expected_defect,
            "defect_delta": self.defect_delta,
            "genus_match": self.genus_match,
        }


def format_pi_multiple(x: float) -> str:
    """Render x as p*pi/q, q <= 120, when it is one within 1e-6, else as a
    float, as a NaN and an infinity always are.  An x that is not a real
    number in the float range (a bool is none) raises BadParameters."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise BadParameters(f"{x!r} is not a real number")
    try:
        x = float(x)
    except OverflowError:           # an int beyond the float range
        raise BadParameters(f"{x!r} is beyond the float range") from None
    if abs(x) < 1e-12:
        return "0"
    for q in range(1, 121) if math.isfinite(x) else ():
        p = round(x * q / math.pi)
        if p != 0 and abs(x * q / math.pi - p) < 1e-6:
            g = math.gcd(abs(int(p)), q)
            p, qq = int(p) // g, q // g
            num = "pi" if p == 1 else ("-pi" if p == -1 else f"{p}*pi")
            return num if qq == 1 else f"{num}/{qq}"
    return f"{x:.9g}"


def verify(p: Polyhedron,
           defect_tolerance: float | None = None) -> VerificationReport:
    """Run every check on a structurally valid mesh.

    Every mesh is held to the defect-constancy band DEFECT_TOL, whatever
    its metadata says; `defect_tolerance` overrides it (see
    mesh.check_defect_tolerance).
    """
    _mesh(p)
    defect_tolerance = check_defect_tolerance(defect_tolerance)

    topo = classify(p)
    dp = defect_profile(p, tol=defect_tolerance)
    res = descartes_residual(p)

    planarity = float(p.geometry.residual.max(initial=0.0))
    violations = flat_edges(p, p.metadata.seam_edges)

    witnesses = self_intersections(p)

    expected = p.metadata.expected_defect
    delta = abs(dp.mean - expected) if expected is not None else None
    genus_match = None
    if p.metadata.genus is not None:
        genus_match = (topo.genus == p.metadata.genus and
                       (p.metadata.orientable is None or
                        topo.orientable == p.metadata.orientable))

    ok = (dp.is_constant and res < DESCARTES_TOL and not violations
          and planarity <= PLANARITY_TOL * p.geometry.scale
          and (delta is None or delta < defect_tolerance)
          and genus_match in (None, True))
    if not ok:
        verdict = "not_ccp"
    elif witnesses:
        verdict = "ccp_immersed"
    else:
        verdict = "ccp_embedded"
    return VerificationReport(topo, dp, defect_tolerance, res, planarity,
                              violations, witnesses, expected, delta,
                              genus_match, verdict)


def format_report(r: VerificationReport) -> str:
    lines = [
        f"verdict              {r.verdict}",
        f"euler characteristic {r.topology.euler_characteristic}",
        f"orientable           {r.topology.orientable}",
        f"genus                {r.topology.genus}",
        f"defect               {r.defects.mean:.12g} rad"
        f" (= {format_pi_multiple(r.defects.mean)})",
        f"defect deviation     {r.defects.max_abs_deviation:.3g}"
        f" (tolerance {r.defect_tolerance:g})",
        f"descartes residual   {r.descartes_residual:.3g}",
        f"planarity residual   {r.max_planarity_residual:.3g}",
        f"self-intersection    "
        + ("embedded" if r.embedded
           else f"{len(r.witnesses)} face-pair witnesses"),
    ]
    if r.expected_defect is not None:
        lines.append(f"expected defect      {r.expected_defect:.12g}"
                     f" (delta {r.defect_delta:.3g})")
    if r.genus_match is not None:
        lines.append(f"genus claim          "
                     f"{'matches' if r.genus_match else 'MISMATCH'}")
    return "\n".join(lines)
