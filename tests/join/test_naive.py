"""The brute-force reference, cross-checked against scipy's cKDTree."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.join.naive import brute_force_join


def _kdtree_distances(r, s, k, exclude_self=False):
    """Per query row, its k nearest distances in ``s`` by cKDTree (a
    self-join drops each point's own zero-distance match)."""
    kk = min(k + int(exclude_self), len(s))
    dists, __ = cKDTree(s).query(r, k=kk)
    dists = np.asarray(dists).reshape(len(r), kk)
    return dists[:, 1:] if exclude_self else dists


class TestReferencesAgree:
    @pytest.mark.parametrize("dims", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_cross_check(self, rng, dims, k):
        r = rng.random((150, dims))
        s = rng.random((170, dims))
        res = brute_force_join(r, s, k=k)
        want = _kdtree_distances(r, s, k)
        for i in range(len(r)):
            got = [dist for dist, __ in res.neighbors_of(i)]
            assert got == pytest.approx(want[i].tolist())

    def test_cross_check_self_join(self, rng):
        pts = rng.random((120, 2))
        res = brute_force_join(pts, pts, exclude_self=True)
        want = _kdtree_distances(pts, pts, 1, exclude_self=True)
        for i in range(len(pts)):
            dist, sid = res.nn_of(i)
            assert sid != i
            assert dist == pytest.approx(want[i][0])

    def test_known_answer(self):
        r = np.array([[0.0, 0.0], [10.0, 10.0]])
        s = np.array([[1.0, 0.0], [10.0, 9.0], [5.0, 5.0]])
        res = brute_force_join(r, s)
        assert res.nn_of(0) == (pytest.approx(1.0), 0)
        assert res.nn_of(1) == (pytest.approx(1.0), 1)

    def test_custom_ids(self, rng):
        r = rng.random((10, 2))
        s = rng.random((10, 2))
        res = brute_force_join(r, s, r_ids=np.arange(100, 110), s_ids=np.arange(7, 17))
        assert set(rid for rid, __, __ in res.pairs()) == set(range(100, 110))
        assert all(7 <= sid < 17 for __, sid, __ in res.pairs())

    def test_exclude_self_with_duplicates(self):
        # Duplicate coordinates: excluding self must still allow the twin.
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [3.0, 3.0]])
        res = brute_force_join(pts, pts, exclude_self=True)
        assert res.nn_of(0) == (pytest.approx(0.0), 1)
        assert res.nn_of(1) == (pytest.approx(0.0), 0)

    def test_k_capped_at_dataset_size(self, rng):
        r = rng.random((5, 2))
        s = rng.random((3, 2))
        res = brute_force_join(r, s, k=10)
        assert all(len(res.neighbors_of(i)) == 3 for i in range(5))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            brute_force_join(np.empty((0, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            brute_force_join(np.ones(4), np.ones((3, 2)))
