"""Tests for the high-level public API."""

import numpy as np
import pytest

from repro import (
    JoinConfig,
    NeighborResult,
    PruningMetric,
    QueryStats,
    StorageManager,
    aknn_join,
    all_nearest_neighbors,
    build_index,
    build_join_indexes,
    brute_force_join,
)


class TestAllNearestNeighbors:
    def test_two_dataset_join(self, rng):
        r = rng.random((200, 2))
        s = rng.random((250, 2))
        result, stats = all_nearest_neighbors(r, s)
        assert isinstance(result, NeighborResult)
        assert isinstance(stats, QueryStats)
        assert result.same_pairs_as(brute_force_join(r, s))
        assert stats.io_time_s > 0  # simulated I/O accounted

    def test_self_join_defaults_to_exclude_self(self, rng):
        pts = rng.random((150, 2))
        result, __ = all_nearest_neighbors(pts)
        assert result.same_pairs_as(brute_force_join(pts, pts, exclude_self=True))

    def test_self_join_can_include_self(self, rng):
        pts = rng.random((50, 2))
        result, __ = all_nearest_neighbors(pts, config=JoinConfig(exclude_self=False))
        assert all(d == 0.0 for __, __, d in result.pairs())

    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_index_kinds(self, rng, kind):
        r = rng.random((150, 3))
        s = rng.random((150, 3))
        result, __ = all_nearest_neighbors(r, s, config=JoinConfig(kind=kind))
        assert result.same_pairs_as(brute_force_join(r, s))

    def test_metric_parameter(self, rng):
        r = rng.random((100, 2))
        s = rng.random((100, 2))
        result, __ = all_nearest_neighbors(
            r, s, config=JoinConfig(metric=PruningMetric.MAXMAXDIST)
        )
        assert result.same_pairs_as(brute_force_join(r, s))

    def test_custom_storage(self, rng):
        storage = StorageManager(page_size=512, pool_pages=16)
        r = rng.random((100, 2))
        result, stats = all_nearest_neighbors(r, storage=storage)
        assert storage.pool.logical_reads > 0
        assert stats.page_misses == storage.pool.misses


class TestWorkersParameter:
    def test_parallel_matches_serial(self, rng):
        pts = rng.random((400, 2))
        serial, __ = all_nearest_neighbors(pts, config=JoinConfig(k=2))
        parallel, stats = all_nearest_neighbors(
            pts, config=JoinConfig(k=2, workers=3)
        )
        s_arrays, p_arrays = serial.to_arrays(), parallel.to_arrays()
        for s_arr, p_arr in zip(s_arrays, p_arrays):
            np.testing.assert_array_equal(s_arr, p_arr)
        assert stats.page_misses > 0  # worker I/O made it into the merge

    def test_rejects_bad_workers(self, rng):
        with pytest.raises(ValueError, match="workers"):
            all_nearest_neighbors(rng.random((20, 2)), config=JoinConfig(workers=0))


class TestAknnJoin:
    def test_k_default(self, rng):
        pts = rng.random((120, 2))
        result, __ = aknn_join(pts)
        assert result.same_pairs_as(brute_force_join(pts, pts, k=10, exclude_self=True))

    def test_explicit_k(self, rng):
        r = rng.random((80, 2))
        s = rng.random((90, 2))
        result, __ = aknn_join(r, s, config=JoinConfig(k=3))
        assert result.same_pairs_as(brute_force_join(r, s, k=3))


class TestBuilders:
    def test_build_index_kinds(self, rng, small_storage):
        pts = rng.random((100, 2))
        assert build_index(pts, small_storage, kind="mbrqt").kind == "MBRQT"
        assert build_index(pts, small_storage, kind="rstar").kind == "R*-tree"
        with pytest.raises(ValueError):
            build_index(pts, small_storage, kind="btree")

    def test_build_join_indexes_shares_universe(self, rng, small_storage):
        r = rng.random((100, 2)) * 0.5
        s = rng.random((100, 2)) * 0.5 + 0.5
        ir, is_ = build_join_indexes(r, s, small_storage)
        # Roots decompose the union universe: both trees' root rects fall
        # inside the union box.
        union_lo = np.minimum(r.min(0), s.min(0))
        union_hi = np.maximum(r.max(0), s.max(0))
        for idx in (ir, is_):
            assert np.all(idx.root_rect.lo >= union_lo - 1e-12)
            assert np.all(idx.root_rect.hi <= union_hi + 1e-12)

    def test_build_join_indexes_rstar(self, rng, small_storage):
        r = rng.random((80, 2))
        s = rng.random((80, 2))
        ir, is_ = build_join_indexes(r, s, small_storage, kind="rstar")
        assert ir.kind == is_.kind == "R*-tree"
        with pytest.raises(ValueError):
            build_join_indexes(r, s, small_storage, kind="nope")
