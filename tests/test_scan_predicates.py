"""Property tests of the self-intersection scan's per-triangle predicates:
the column forms in ``ccpforge.metrics`` give, row for row, what the
reductions along a row of three signed distances give, at eps, at zeros
of either sign and at NaN (a degenerate triangle's normal); the side
separation test of coplanar triangles holds exactly when their overlap,
clipped in rational arithmetic, has zero area; and the one-pass clip of
segments to triangles gives the scalar clip's ends bit for bit, zeros'
signs included; and the broad phase's sweep yields, pair for pair and in
order, what an all-pairs test of box overlap yields."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import ccpforge.metrics as metrics  # noqa: E402
from ccpforge.metrics import (_TriangleScan, _clip_segments,  # noqa: E402
                              _each, _one_side, _plane_meets,
                              _side_separates, _two_of)

from scalar_scan import _clip_segment_to_triangle  # noqa: E402

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


# a counterclockwise triangle, and crossings of it: (start, end, whether
# some of the segment remains)
TRIANGLE = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
CROSSINGS = {
    "parallel-outside": ((1.0, -1.0), (3.0, -1.0), False),
    "parallel-inside": ((1.0, 1.0), (5.0, 1.0), True),
    "ends-on-an-edge": ((1.0, 2.0), (1.0, 0.0), True),
    "enters-through-a-vertex": ((-1.0, -1.0), (1.0, 1.0), True),
    "touches-a-vertex": ((-1.0, 1.0), (1.0, -1.0), True),
    # leaves (4, 0) through two sides at once, at t = -0 and t = +0
    "leaves-through-a-vertex": ((4.0, -0.0), (6.0, -1.0), True),
}


def assert_clips_as_scalar(a, b, tri):
    """_clip_segments of the segments a -> b by the triangles tri, all
    (n, ...) rows, keeps the rows and gives the ends, to the last bit,
    that the scalar clip gives row by row."""
    hit, start, end = _clip_segments(a, b - a, tri)
    want = [_clip_segment_to_triangle(np.array(seg), t)
            for seg, t in zip(zip(a, b), tri)]
    assert hit.tolist() == [r for r, w in enumerate(want) if w is not None]
    for r, s, e in zip(hit.tolist(), start, end):
        assert s.tobytes() == want[r][0].tobytes(), r
        assert e.tobytes() == want[r][1].tobytes(), r


@pytest.mark.parametrize("start,end,kept", CROSSINGS.values(),
                         ids=CROSSINGS.keys())
def test_clip_segments_edge_cases(start, end, kept):
    a, b = np.array([start]), np.array([end])
    assert _clip_segments(a, b - a, TRIANGLE[None])[0].size == kept
    assert_clips_as_scalar(a, b, TRIANGLE[None])


def test_clip_segments_on_a_grid():
    """Every segment between two points of a grid that holds the
    triangles' vertices and both zeros: many run along a side, end on one
    or pass through a vertex."""
    ticks = [-1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    grid = np.array([(x, y) for x in ticks for y in ticks])
    a, b = (g.reshape(-1, 2) for g in np.broadcast_arrays(
        grid[:, None], grid[None, :]))
    for tri in (TRIANGLE, np.array([(0.0, 0.0), (3.0, 1.0), (1.0, 3.0)])):
        assert_clips_as_scalar(a, b, np.broadcast_to(tri, (len(a), 3, 2)))


# box bounds on a coarse grid and eps and 2 eps either side of it, so that
# boxes share a lo, touch, or stand exactly eps apart; widths of zero, eps
# and more
GRID = [0.0, 0.25, 0.5, 1.0]
COORDS = st.sampled_from(GRID).flatmap(
    lambda g: st.sampled_from([g, g + EPS, g - EPS, g + 2 * EPS]))
WIDTHS = st.sampled_from([0.0, EPS, 0.25, 0.5])


@st.composite
def boxes(draw):
    """Triangle boxes as the scan keeps them: (3, T) lo and hi rows, each
    triangle's face (a few, so that pairs share one) and whether it is
    degenerate."""
    t = draw(st.integers(1, 14))
    lo = draw(arrays(np.float64, (3, t), elements=COORDS))
    hi = lo + draw(arrays(np.float64, (3, t), elements=WIDTHS))
    face = draw(arrays(np.intp, t, elements=st.integers(0, 3)))
    degenerate = draw(arrays(np.bool_, t, elements=st.sampled_from(
        [False, False, False, True])))
    return lo, hi, face, degenerate


def all_pairs_candidates(lo, hi, eps, face, degenerate):
    """The broad phase by testing every pair of boxes on every axis: the
    pairs of different faces, neither degenerate, whose boxes widened by
    eps overlap on all three axes, as (i, j), i < j.  They come in the
    order of a sweep along the first axis with the fewest overlapping
    pairs: by the earlier box in a stable sort by lo, then the later."""
    lo, hi, t = lo.tolist(), hi.tolist(), len(face)

    def overlap(x, a, b):
        return not lo[x][a] > hi[x][b] + eps and \
            not lo[x][b] > hi[x][a] + eps

    totals = [sum(overlap(x, a, b) for a in range(t) for b in range(a + 1, t))
              for x in range(3)]
    axis = totals.index(min(totals))
    order = sorted(range(t), key=lambda k: lo[axis][k])
    out = []
    for m, a in enumerate(order):
        for b in order[m + 1:]:
            if face[a] != face[b] and not degenerate[a] and \
                    not degenerate[b] and \
                    all(overlap(x, a, b) for x in range(3)):
                out.append((min(a, b), max(a, b)))
    return out


@PROPS
@given(boxes(), st.sampled_from([3, metrics._ROWS]))
def test_candidates_are_the_all_pairs_overlaps(box, rows):
    """candidates() tests only the two axes it does not sweep; the sweep
    itself bounds the third.  Blocks of 3 rows split the pairs across
    blocks."""
    lo, hi, face, degenerate = box
    scan = _TriangleScan.__new__(_TriangleScan)
    scan.lo, scan.hi, scan.eps = lo, hi, EPS
    scan.face, scan.degenerate = face, degenerate
    saved, metrics._ROWS = metrics._ROWS, rows
    try:
        i, j = scan.candidates()
    finally:
        metrics._ROWS = saved
    assert list(zip(i.tolist(), j.tolist())) == \
        all_pairs_candidates(lo, hi, EPS, face, degenerate)
