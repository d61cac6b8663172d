"""Property tests of the self-intersection scan's per-triangle predicates:
the column forms in ``ccpforge.metrics`` give, row for row, what the
reductions along a row of three signed distances give, at eps, at zeros
of either sign and at NaN (a degenerate triangle's normal); and the side
separation test of coplanar triangles holds exactly when their overlap,
clipped in rational arithmetic, has zero area."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ccpforge.metrics import (_each, _one_side, _plane_meets,  # noqa: E402
                              _side_separates, _two_of)

EPS = 1e-12
PROPS = settings(derandomize=True, deadline=None, max_examples=300)

# distances at and next to the eps band, zeros of both signs, NaN and
# infinities, then any float
EDGE = st.sampled_from([EPS, -EPS, np.nextafter(EPS, 1.0),
                        np.nextafter(EPS, 0.0), np.nextafter(-EPS, -1.0),
                        np.nextafter(-EPS, 0.0), 0.0, -0.0, 5e-324, np.nan,
                        np.inf, -np.inf, 1.0, -1.0])
ROWS = arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)),
              elements=EDGE | st.floats())


@PROPS
@given(ROWS)
def test_column_predicates_match_row_reductions(s):
    cols = s.T
    assert np.array_equal(_one_side(cols, EPS),
                          (s > EPS).all(axis=1) | (s < -EPS).all(axis=1))

    on, cut = _plane_meets(cols, EPS)
    old_on = np.abs(s) <= EPS
    pos, nxt = s > 0, [1, 2, 0]
    old_cut = ~old_on & ~old_on[:, nxt] & (pos != pos[:, nxt])
    assert np.array_equal(on.T, old_on)
    assert np.array_equal(cut.T, old_cut)

    # the coplanar test, and the "meets the plane in two points" test
    assert np.array_equal(_each(on), old_on.all(axis=1))
    assert np.array_equal(_two_of(on | cut),
                          np.count_nonzero(old_on | old_cut, axis=1) >= 2)


def _exact_overlap_area(a, b):
    """Area of the overlap of two counterclockwise triangles, by a
    Sutherland-Hodgman clip in Fractions."""
    poly = [tuple(map(Fraction, p)) for p in a]
    clip = [tuple(map(Fraction, p)) for p in b]
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        side = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in poly]
        out = []
        for k, (p, q) in enumerate(zip(poly, poly[1:] + poly[:1])):
            sp, sq = side[k], side[(k + 1) % len(poly)]
            if sp >= 0:
                out.append(p)
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                out.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
        poly = out
        if not poly:
            return Fraction(0)
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(poly, poly[1:] + poly[:1]))) / 2


def _twice_area(t):
    (ax, ay), (bx, by), (cx, cy) = t
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _coplanar_pairs(rng):
    """Pairs of non-degenerate triangles in small-integer coordinates,
    labelled by how they were made: drawn at random, sharing a vertex or
    a side, a side of one along the line of a side of the other, and one
    nested in the other."""
    def draw(lo=-4, hi=5):
        while True:
            t = rng.integers(lo, hi, size=(3, 2))
            if _twice_area(t):
                return t

    for _ in range(600):
        a = draw()
        yield "random", a, draw()
        yield "vertex", a, np.vstack([a[:1], draw()[:2]])
        yield "side", a, np.vstack([a[:2], draw()[:1]])
        # b's first side on the line through a's first side
        step = a[1] - a[0]
        s, t = rng.integers(-2, 3, size=2)
        b = np.vstack([a[0] + s * step, a[0] + t * step, draw()[:1]])
        yield "collinear", a, b
        # a inside its copy grown by 4 about its centroid
        yield "nested", 4 * a - a.sum(axis=0), a


def _ccw(t):
    return t if _twice_area(t) > 0 else t[::-1]


def test_side_separation_is_zero_overlap_area():
    rng = np.random.default_rng(29)
    rows = []
    for kind, a, b in _coplanar_pairs(rng):
        if not _twice_area(a) or not _twice_area(b):
            continue
        a, b = _ccw(a), _ccw(b)
        rows.append((kind, a, b, _exact_overlap_area(a, b) == 0))
    kinds, a, b, zero = zip(*rows)
    a, b = np.array(a, float), np.array(b, float)
    zero = np.array(zero)
    # the plane seen from either side: the mirror image, turned
    # counterclockwise again
    mirror = np.array([-1.0, 1.0])
    for a, b in ((a, b), ((a * mirror)[:, ::-1], (b * mirror)[:, ::-1])):
        # the test is symmetric and does not depend on which vertex
        # starts a cycle
        for p, q in ((a, b), (b, a)):
            for shift in range(3):
                got = _side_separates(np.roll(p, shift, axis=1), q)
                assert np.array_equal(got, zero), \
                    [k for k, g, z in zip(kinds, got, zero) if g != z][:5]
    seen = {}
    for kind, sep in zip(kinds, zero):
        seen.setdefault(kind, set()).add(bool(sep))
    # every kind of pair occurs both separated and overlapping, but for
    # nesting, which always overlaps
    assert seen == {"random": {False, True}, "vertex": {False, True},
                    "side": {False, True}, "collinear": {False, True},
                    "nested": {False}}
