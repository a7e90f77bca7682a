"""Tests for the JoinConfig front door: validation, the rejected legacy
keywords, and the trace-on/trace-off bit-identity contract of the public
API."""

import warnings

import pytest

from repro import (
    JoinConfig,
    PruningMetric,
    Tracer,
    aknn_join,
    all_nearest_neighbors,
    brute_force_join,
)


class TestJoinConfigValidation:
    def test_defaults(self):
        cfg = JoinConfig()
        assert cfg.kind == "mbrqt"
        assert cfg.metric is PruningMetric.NXNDIST
        assert cfg.k == 1
        assert cfg.exclude_self is None
        assert cfg.workers == 1
        assert cfg.node_cache_entries == 0
        assert cfg.trace is None

    def test_metric_string_coerced_to_enum(self):
        assert JoinConfig(metric="maxmaxdist").metric is PruningMetric.MAXMAXDIST

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="index kind"):
            JoinConfig(kind="btree")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            JoinConfig(metric="euclidean-ish")

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            JoinConfig(k=k)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            JoinConfig(workers=workers)

    def test_rejects_negative_node_cache(self):
        with pytest.raises(ValueError, match="node_cache_entries must be >= 0"):
            JoinConfig(node_cache_entries=-1)

    def test_rejects_bad_trace_type(self):
        with pytest.raises(TypeError, match="trace must be"):
            JoinConfig(trace=42)

    def test_trace_accepts_path_str_tracer(self, tmp_path):
        assert JoinConfig(trace="t.json").trace == "t.json"
        assert JoinConfig(trace=tmp_path / "t.json").trace == tmp_path / "t.json"
        tracer = Tracer()
        assert JoinConfig(trace=tracer).trace is tracer

    def test_frozen(self):
        cfg = JoinConfig()
        with pytest.raises(AttributeError):
            cfg.k = 5

    def test_replace_revalidates(self):
        cfg = JoinConfig(k=3)
        assert cfg.replace(k=7).k == 7
        with pytest.raises(ValueError):
            cfg.replace(workers=0)

    def test_resolve_exclude_self(self):
        assert JoinConfig().resolve_exclude_self(self_join=True) is True
        assert JoinConfig().resolve_exclude_self(self_join=False) is False
        assert JoinConfig(exclude_self=False).resolve_exclude_self(True) is False
        assert JoinConfig(exclude_self=True).resolve_exclude_self(False) is True

    def test_describe_is_json_scalar_map(self):
        desc = JoinConfig(k=3, workers=2).describe()
        assert desc["k"] == 3 and desc["workers"] == 2
        assert desc["metric"] == "nxndist"
        for value in desc.values():
            assert value is None or isinstance(value, (str, int, float, bool))


class TestLegacyKwargShim:
    """The pre-JoinConfig keyword spellings are gone: every knob rides
    on ``config=``, and a stray keyword is a plain ``TypeError``."""

    def test_api_rejects_unknown_kwarg(self, rng):
        pts = rng.random((30, 2))
        with pytest.raises(TypeError, match="unexpected keyword"):
            all_nearest_neighbors(pts, k=2)
        with pytest.raises(TypeError, match="unexpected keyword"):
            all_nearest_neighbors(pts, neighbours=3)

    def test_unknown_key_is_typeerror(self, rng):
        with pytest.raises(TypeError, match="unexpected keyword"):
            aknn_join(rng.random((30, 2)), k=2)

    def test_aknn_default_k_does_not_warn(self, rng):
        pts = rng.random((60, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result, __ = aknn_join(pts)
        assert result.same_pairs_as(brute_force_join(pts, pts, k=10, exclude_self=True))


class TestConfigThroughApi:
    def test_config_keyword(self, rng):
        r = rng.random((100, 2))
        s = rng.random((100, 2))
        result, __ = all_nearest_neighbors(r, s, config=JoinConfig(k=2, kind="rstar"))
        assert result.same_pairs_as(brute_force_join(r, s, k=2))

    def test_config_positional_self_join(self, rng):
        pts = rng.random((100, 2))
        result, __ = all_nearest_neighbors(pts, JoinConfig(k=2))
        assert result.same_pairs_as(brute_force_join(pts, pts, k=2, exclude_self=True))

    def test_positional_and_keyword_config_conflict(self, rng):
        with pytest.raises(TypeError, match="two JoinConfig"):
            all_nearest_neighbors(rng.random((20, 2)), JoinConfig(), config=JoinConfig())

    def test_node_cache_entries_via_config(self, rng):
        pts = rng.random((200, 2))
        plain, plain_stats = all_nearest_neighbors(pts, JoinConfig())
        cached, cached_stats = all_nearest_neighbors(
            pts, JoinConfig(node_cache_entries=256)
        )
        assert list(plain.pairs()) == list(cached.pairs())
        assert cached_stats.node_cache_hits + cached_stats.node_cache_misses > 0
        assert plain_stats.node_cache_hits == plain_stats.node_cache_misses == 0

    def test_node_cache_conflicts_with_cacheless_storage(self, rng, small_storage):
        with pytest.raises(ValueError, match="node_cache_entries"):
            all_nearest_neighbors(
                rng.random((50, 2)),
                JoinConfig(node_cache_entries=64),
                storage=small_storage,
            )

    def test_workers_config_matches_serial(self, rng):
        pts = rng.random((300, 2))
        serial, __ = all_nearest_neighbors(pts, JoinConfig(k=2))
        parallel, __ = all_nearest_neighbors(pts, JoinConfig(k=2, workers=2))
        assert list(serial.pairs()) == list(parallel.pairs())


def _deterministic(stats):
    """Counter view without the wall-clock field (never bit-stable)."""
    return {k: v for k, v in stats.as_dict().items() if k != "cpu_time_s"}


class TestTraceBitIdentity:
    def test_traced_serial_run_is_bit_identical(self, rng, tmp_path):
        pts = rng.random((200, 2))
        plain, plain_stats = all_nearest_neighbors(pts, JoinConfig(k=2))
        path = tmp_path / "t.json"
        traced, traced_stats = all_nearest_neighbors(
            pts, JoinConfig(k=2, trace=str(path))
        )
        assert list(plain.pairs()) == list(traced.pairs())
        assert _deterministic(plain_stats) == _deterministic(traced_stats)
        assert path.exists()

    def test_traced_sharded_run_is_bit_identical(self, rng, tmp_path):
        pts = rng.random((300, 2))
        plain, plain_stats = all_nearest_neighbors(pts, JoinConfig(workers=2))
        traced, traced_stats = all_nearest_neighbors(
            pts, JoinConfig(workers=2, trace=str(tmp_path / "t.json"))
        )
        assert list(plain.pairs()) == list(traced.pairs())
        assert _deterministic(plain_stats) == _deterministic(traced_stats)

    def test_tracer_object_destination(self, rng):
        pts = rng.random((150, 2))
        tracer = Tracer()
        plain, __ = all_nearest_neighbors(pts, JoinConfig(k=1))
        traced, __ = all_nearest_neighbors(pts, JoinConfig(k=1), trace=tracer)
        assert list(plain.pairs()) == list(traced.pairs())
        doc = tracer.document
        assert doc is not None and doc["schema"] == "repro.trace"
        names = [c["name"] for c in doc["root"]["children"]]
        assert names == ["index-build", "query"]

    def test_trace_artifact_validates_and_carries_totals(self, rng, tmp_path):
        from repro import load_trace

        pts = rng.random((200, 2))
        path = tmp_path / "t.json"
        __, stats = all_nearest_neighbors(pts, JoinConfig(k=2, trace=path))
        doc = load_trace(path)  # schema-validates on read
        assert doc["meta"]["api"] == "all_nearest_neighbors"
        assert doc["meta"]["k"] == 2
        assert doc["totals"]["result_pairs"] == float(stats.result_pairs)
        query = doc["root"]["children"][1]
        assert query["name"] == "query"
        assert "expand" in query["stages"] and "gather" in query["stages"]

    def test_sharded_trace_has_shard_spans(self, rng, tmp_path):
        from repro import load_trace

        pts = rng.random((800, 2))
        path = tmp_path / "t.json"
        all_nearest_neighbors(pts, JoinConfig(workers=2, trace=path))
        doc = load_trace(path)
        query = next(c for c in doc["root"]["children"] if c["name"] == "query")
        shards = [c for c in query["children"] if c["name"] == "shard"]
        # The planner shards by root subtree, so tiny trees may collapse
        # to fewer tasks than workers; it must never exceed the request.
        assert 1 <= len(shards) <= 2
        assert sorted(s["attrs"]["shard_id"] for s in shards) == list(range(len(shards)))
        for shard in shards:
            assert shard["attrs"]["node_cache_entries"] >= 0
            assert "expand" in shard["stages"]
