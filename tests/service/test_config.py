"""Tests for ServiceConfig: validation shared with JoinConfig, knobs."""

import json

import pytest

from repro.config import JoinConfig
from repro.core.pruning import PruningMetric
from repro.service import ServiceConfig


class TestSharedJoinValidation:
    """Join-side knobs must fail with exactly JoinConfig's errors."""

    def test_unknown_kind_uses_join_error(self):
        with pytest.raises(ValueError) as service_exc:
            ServiceConfig(kind="voronoi")
        with pytest.raises(ValueError) as join_exc:
            JoinConfig(kind="voronoi")
        assert str(service_exc.value) == str(join_exc.value)

    def test_negative_node_cache_rejected(self):
        with pytest.raises(ValueError, match="node_cache_entries"):
            ServiceConfig(node_cache_entries=-1)

    def test_metric_string_normalised_onto_enum(self):
        cfg = ServiceConfig(metric="maxmaxdist")
        assert cfg.metric is PruningMetric.MAXMAXDIST
        assert cfg.join.metric is PruningMetric.MAXMAXDIST

    def test_embedded_join_config_mirrors_knobs(self):
        cfg = ServiceConfig(kind="rstar", node_cache_entries=16)
        assert isinstance(cfg.join, JoinConfig)
        assert cfg.join.kind == "rstar"
        assert cfg.join.workers == 1
        assert cfg.join.node_cache_entries == 16
        assert cfg.join.exclude_self is False  # a query point can be its own NN


class TestServiceValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("max_batch", 0),
            ("max_delay_ms", -1.0),
            ("queue_capacity", 0),
            ("deadline_ms", 0.0),
            ("deadline_ms", -5.0),
            ("degrade_budget", -1),
            ("pool_pages", 0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_deadline_none_is_valid(self):
        assert ServiceConfig(deadline_ms=None).deadline_ms is None

    def test_max_delay_seconds_property(self):
        assert ServiceConfig(max_delay_ms=250.0).max_delay_s == pytest.approx(0.25)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().max_batch = 2  # type: ignore[misc]

    def test_replace_revalidates(self):
        cfg = ServiceConfig(max_batch=8)
        assert cfg.replace(max_batch=16).max_batch == 16
        with pytest.raises(ValueError, match="max_batch"):
            cfg.replace(max_batch=0)

    def test_describe_is_json_friendly(self):
        doc = ServiceConfig().describe()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["max_batch"] == 32
        assert doc["metric"] == "nxndist"
