"""Property tests of the self-intersection scan's per-triangle predicates:
the column forms in ``ccpforge.metrics`` give, row for row, what the
reductions along a row of three signed distances give, at eps, at zeros
of either sign and at NaN (a degenerate triangle's normal)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ccpforge.metrics import (_each, _one_side, _plane_meets,  # noqa: E402
                              _two_of)

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
