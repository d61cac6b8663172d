"""High-precision oracle for the vertex defects: on the benchmark's
certify-files corpus every float64 defect is within 1e-14 of the defect
evaluated with 40 significant digits on the same float coordinates, so the
deviations verify reports are the geometry's, not rounding in the defect
evaluation."""

import pytest

mpmath = pytest.importorskip("mpmath")

from test_self_intersection_oracle import CERTIFY_FILES, family  # noqa: E402

DIGITS = 40
MAX_GAP = 1e-14


def mp_defects(p) -> list:
    """2*pi minus each vertex's corner-angle sum at the working precision.
    A corner turning against its face's float normal is reflex, as in
    MeshGeometry.corner_angles."""
    mp = mpmath.mp
    pts = [[mp.mpf(x) for x in row] for row in p.vertices.tolist()]
    total = [mp.mpf(0)] * p.n_vertices
    for cyc, normal in zip(p.faces, p.geometry.normal.tolist()):
        for i, v in enumerate(cyc):
            a = [x - y for x, y in zip(pts[cyc[(i + 1) % len(cyc)]], pts[v])]
            b = [x - y for x, y in zip(pts[cyc[i - 1]], pts[v])]
            cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]]
            theta = mp.atan2(mp.sqrt(sum(c * c for c in cross)),
                             sum(x * y for x, y in zip(a, b)))
            if sum(c * m for c, m in zip(cross, normal)) < 0:
                theta = 2 * mp.pi - theta
            total[v] += theta
    return [2 * mp.pi - t for t in total]


@pytest.mark.parametrize("name,genus,fewest", CERTIFY_FILES)
def test_float_defects_match_40_digits(name, genus, fewest):
    p = family(name, genus, fewest)
    with mpmath.workdps(DIGITS):
        gaps = [abs(mpmath.mpf(d) - exact) for d, exact in
                zip(p.geometry.defects.tolist(), mp_defects(p))]
        worst = max(range(len(gaps)), key=gaps.__getitem__)
        assert gaps[worst] <= MAX_GAP, \
            f"vertex {worst}: float64 defect off by {float(gaps[worst]):.2e}"
