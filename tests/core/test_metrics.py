"""Tests for the distance metrics — including the paper's lemmas.

The empirical properties are checked by Monte-Carlo sampling points inside
the rectangles and comparing the metric values against actual point
distances; the hypothesis-driven tests explore rectangle space broadly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect, RectArray
from repro.core.metrics import (
    dist_point_points,
    maxdist_per_dim,
    maxmaxdist,
    maxmaxdist_batch,
    maxmaxdist_cross,
    maxmin_per_dim,
    minmaxdist,
    minmindist,
    minmindist_batch,
    minmindist_cross,
    minmindist_point_batch,
    nxndist,
    nxndist_batch,
    nxndist_cross,
)
from tests.conftest import random_rect, sample_points_in_rect


def rect_pairs(dims):
    coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=32)
    side = st.floats(0, 20, allow_nan=False, width=32)

    def build(vals):
        lo1, s1, lo2, s2 = vals
        a = Rect(np.array(lo1), np.array(lo1) + np.array(s1))
        b = Rect(np.array(lo2), np.array(lo2) + np.array(s2))
        return a, b

    lists = lambda s: st.lists(s, min_size=dims, max_size=dims)
    return st.tuples(lists(coord), lists(side), lists(coord), lists(side)).map(build)


class TestPointDistances:
    def test_dist_point_points(self):
        d = dist_point_points([0, 0], np.array([[3, 4], [0, 0], [1, 0]]))
        assert np.allclose(d, [5, 0, 1])


class TestScalarMetricsKnownValues:
    def test_disjoint_boxes(self):
        m = Rect([0, 0], [1, 1])
        n = Rect([3, 0], [4, 1])
        assert minmindist(m, n) == pytest.approx(2.0)
        assert maxmaxdist(m, n) == pytest.approx(np.hypot(4, 1))
        # NXNDIST: sweep along x pays MAXMIN_x, full MAXDIST_y.
        # MAXDIST = (4, 1); MAXMIN_x = max(min(|p-3|,|p-4|)) over p in [0,1] = 4-1=3? no:
        # tent at p=0: min(3,4)=3; p=1: min(2,3)=2 -> MAXMIN_x=3. MAXMIN_y: n interval [0,1],
        # mid 0.5 inside [0,1]: tent(0)=0, tent(1)=0, tent(0.5)=0.5 -> 0.5.
        # S=16+1=17; savings: x: 16-9=7, y: 1-0.25=0.75; NXN = sqrt(17-7)=sqrt(10).
        assert nxndist(m, n) == pytest.approx(np.sqrt(10))

    def test_overlapping_boxes_minmin_zero(self):
        m = Rect([0, 0], [2, 2])
        n = Rect([1, 1], [3, 3])
        assert minmindist(m, n) == 0.0

    def test_identical_points(self):
        p = Rect.from_point([1, 2])
        assert minmindist(p, p) == 0
        assert maxmaxdist(p, p) == 0
        assert nxndist(p, p) == 0
        assert minmaxdist(p, p) == 0

    def test_point_to_rect_nxndist_equals_corral_style_bound(self):
        # For a degenerate query M={p}, NXNDIST(M,N) guarantees one point
        # of N within; numerically verify against the direct formula.
        p = Rect.from_point([0, 0])
        n = Rect([1, 1], [3, 2])
        # MAXDIST = (3,2); MAXMIN = (min over endpoint dists) = (1,1)
        # savings: x: 9-1=8; y: 4-1=3 -> NXN = sqrt(13-8)=sqrt(5)
        assert nxndist(p, n) == pytest.approx(np.sqrt(5))

    def test_per_dim_helpers(self):
        m = Rect([0, 0], [1, 2])
        n = Rect([2, -1], [4, 0])
        assert np.allclose(maxdist_per_dim(m, n), [4, 3])
        # dim0: tent over [0,1] vs [2,4]: tent(0)=2, tent(1)=1, mid=3 outside -> 2
        # dim1: tent over [0,2] vs [-1,0]: tent(0)=0, tent(2)=2, mid=-0.5 outside -> 2
        assert np.allclose(maxmin_per_dim(m, n), [2, 2])


class TestLemma31UpperBound:
    """Lemma 3.1: every point of M has a neighbour in N within NXNDIST."""

    @pytest.mark.parametrize("dims", [1, 2, 3, 5, 10])
    def test_monte_carlo(self, rng, dims):
        for __ in range(20):
            m = random_rect(rng, dims)
            n = random_rect(rng, dims)
            bound = nxndist(m, n)
            r_pts = sample_points_in_rect(rng, m, 40)
            n_pts = sample_points_in_rect(rng, n, 400)
            # Include N's corners: the guarantee's witness lies on a face.
            corners = np.array(
                [[n.lo[d] if (c >> d) & 1 == 0 else n.hi[d] for d in range(dims)]
                 for c in range(min(1 << dims, 64))]
            )
            n_all = np.vstack([n_pts, corners])
            for r in r_pts:
                nn = dist_point_points(r, n_all).min()
                assert nn <= bound + 1e-9

    @given(rect_pairs(2))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_2d(self, pair):
        m, n = pair
        bound = nxndist(m, n)
        rng = np.random.default_rng(0)
        r_pts = sample_points_in_rect(rng, m, 10)
        grid = sample_points_in_rect(rng, n, 200)
        corners = np.array([n.lo, n.hi, [n.lo[0], n.hi[1]], [n.hi[0], n.lo[1]]])
        n_all = np.vstack([grid, corners])
        for r in r_pts:
            assert dist_point_points(r, n_all).min() <= bound + 1e-6


class TestLemma32Monotonicity:
    """Lemma 3.2: shrinking the query MBR never increases NXNDIST."""

    @pytest.mark.parametrize("dims", [2, 3, 6])
    def test_child_rect_bound_not_larger(self, rng, dims):
        for __ in range(50):
            m = random_rect(rng, dims)
            n = random_rect(rng, dims)
            # A random sub-rectangle of m.
            f1, f2 = np.sort(rng.random((2, dims)), axis=0)
            child = Rect(m.lo + f1 * (m.hi - m.lo), m.lo + f2 * (m.hi - m.lo))
            assert nxndist(child, n) <= nxndist(m, n) + 1e-9


class TestLemma33CrossLevel:
    """Lemma 3.3: MINMINDIST(m, n) of children can exceed NXNDIST(M, N)."""

    def test_counterexample_exists(self):
        # Construct the situation of Figure 2(b): children in far corners.
        M = Rect([0, 0], [4, 8])
        N = Rect([5, 0], [10, 8])
        m = Rect([0, 7], [1, 8])   # top-left corner of M
        n = Rect([9, 0], [10, 1])  # bottom-right corner of N
        assert M.contains_rect(m) and N.contains_rect(n)
        assert minmindist(m, n) > nxndist(M, N)

    def test_maxmaxdist_never_has_this_property(self, rng):
        # For MAXMAXDIST the child MINMINDIST can never exceed the parent
        # bound (children lie inside the parents), so the counterexample
        # property is exclusive to the tighter metric.
        for __ in range(50):
            M = random_rect(rng, 2)
            N = random_rect(rng, 2)
            f1, f2 = np.sort(rng.random((2, 2)), axis=0)
            m = Rect(M.lo + f1 * (M.hi - M.lo), M.lo + f2 * (M.hi - M.lo))
            g1, g2 = np.sort(rng.random((2, 2)), axis=0)
            n = Rect(N.lo + g1 * (N.hi - N.lo), N.lo + g2 * (N.hi - N.lo))
            assert minmindist(m, n) <= maxmaxdist(M, N) + 1e-9


class TestMetricOrderings:
    """MINMINDIST <= MINMAXDIST <= MAXMAXDIST and MINMIN <= NXN <= MAXMAX."""

    @pytest.mark.parametrize("dims", [1, 2, 4, 8])
    def test_sandwich(self, rng, dims):
        for __ in range(100):
            m = random_rect(rng, dims)
            n = random_rect(rng, dims)
            lo = minmindist(m, n)
            assert lo <= nxndist(m, n) + 1e-9
            assert lo <= minmaxdist(m, n) + 1e-9
            assert nxndist(m, n) <= maxmaxdist(m, n) + 1e-9
            assert minmaxdist(m, n) <= maxmaxdist(m, n) + 1e-9

    def test_asymmetry_of_nxndist(self):
        # The paper notes NXNDIST is not commutative.
        m = Rect([0, 0], [10, 1])
        n = Rect([20, 0], [21, 30])
        # The (n, m) call is the deliberate swap under test.
        # repro-lint: ignore[nxndist-arg-order]
        assert nxndist(m, n) != pytest.approx(nxndist(n, m))


class TestMinMinDistExactness:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_is_true_minimum(self, rng, dims):
        for __ in range(20):
            m = random_rect(rng, dims)
            n = random_rect(rng, dims)
            lo = minmindist(m, n)
            a = sample_points_in_rect(rng, m, 60)
            b = sample_points_in_rect(rng, n, 60)
            diffs = a[:, None, :] - b[None, :, :]
            actual = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).min()
            assert actual >= lo - 1e-9

    @pytest.mark.parametrize("dims", [2, 3])
    def test_maxmax_is_true_maximum(self, rng, dims):
        for __ in range(20):
            m = random_rect(rng, dims)
            n = random_rect(rng, dims)
            hi = maxmaxdist(m, n)
            a = sample_points_in_rect(rng, m, 60)
            b = sample_points_in_rect(rng, n, 60)
            diffs = a[:, None, :] - b[None, :, :]
            actual = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).max()
            assert actual <= hi + 1e-9


class TestBatchAndCrossConsistency:
    """Vectorised kernels must agree exactly with the scalar definitions."""

    @pytest.mark.parametrize("dims", [1, 2, 3, 7])
    def test_batch_forms(self, rng, dims):
        m = random_rect(rng, dims)
        targets = RectArray.from_rects([random_rect(rng, dims) for _ in range(20)])
        got_min = minmindist_batch(m, targets)
        got_max = maxmaxdist_batch(m, targets)
        got_nxn = nxndist_batch(m, targets)
        for i, n in enumerate(targets):
            assert got_min[i] == pytest.approx(minmindist(m, n), abs=1e-12)
            assert got_max[i] == pytest.approx(maxmaxdist(m, n), abs=1e-12)
            assert got_nxn[i] == pytest.approx(nxndist(m, n), abs=1e-12)

    @pytest.mark.parametrize("dims", [2, 5])
    def test_cross_forms(self, rng, dims):
        a = RectArray.from_rects([random_rect(rng, dims) for _ in range(7)])
        b = RectArray.from_rects([random_rect(rng, dims) for _ in range(9)])
        got_min = minmindist_cross(a, b)
        got_max = maxmaxdist_cross(a, b)
        got_nxn = nxndist_cross(a, b)
        assert got_min.shape == (7, 9)
        for i in range(7):
            for j in range(9):
                assert got_min[i, j] == pytest.approx(minmindist(a[i], b[j]), abs=1e-12)
                assert got_max[i, j] == pytest.approx(maxmaxdist(a[i], b[j]), abs=1e-12)
                assert got_nxn[i, j] == pytest.approx(nxndist(a[i], b[j]), abs=1e-12)

    def test_point_batch(self, rng):
        p = rng.random(3)
        targets = RectArray.from_rects([random_rect(rng, 3) for _ in range(10)])
        got = minmindist_point_batch(p, targets)
        pr = Rect.from_point(p)
        for i, n in enumerate(targets):
            assert got[i] == pytest.approx(minmindist(pr, n), abs=1e-12)

    def test_degenerate_targets_in_cross(self, rng):
        # Cross kernels must treat point targets correctly: for a point
        # target, NXNDIST == MAXMAXDIST (the only witness is the point).
        a = RectArray.from_rects([random_rect(rng, 2) for _ in range(5)])
        pts = rng.random((6, 2))
        b = RectArray.from_points(pts)
        assert np.allclose(nxndist_cross(a, b), maxmaxdist_cross(a, b))
