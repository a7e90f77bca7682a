"""Tests for the trace-report renderer (repro.obs.report)."""

import json

import numpy as np
import pytest

from repro.obs import Tracer, aggregate_stages, format_trace_report, load_trace


def make_traced_doc():
    """A document shaped like a sharded engine run: query span with two
    shard children, each carrying expand/gather stages."""
    stats = {"distance_evaluations": 0.0, "lpq_filter_discards": 0.0}
    tracer = Tracer()
    with tracer.source("stats", lambda: stats):
        with tracer.span("index-build", kind="mbrqt"):
            pass
        with tracer.span("query", k=1):
            for shard_id in range(2):
                with tracer.span("shard", shard_id=shard_id):
                    with tracer.stage("expand"):
                        stats["distance_evaluations"] += 10.0
                    with tracer.stage("gather"):
                        stats["distance_evaluations"] += 5.0
    return tracer.finish(
        meta={"method": "mba", "dataset": "uniform"},
        totals={
            "lpq_filter_discards": 42.0,
            "logical_reads": 100.0,
            "page_misses": 20.0,
            "io_time_s": 0.5,
            "node_cache_hits": 30.0,
            "node_cache_misses": 10.0,
        },
    )


class TestLoadTrace:
    def test_reads_and_validates(self, tmp_path):
        doc = make_traced_doc()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert load_trace(path) == doc

    def test_rejects_invalid_artifact(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.trace"}))
        with pytest.raises(ValueError, match="missing keys"):
            load_trace(path)


class TestAggregateStages:
    def test_sums_over_subtree(self):
        doc = make_traced_doc()
        stages = aggregate_stages(doc["root"])
        assert stages["expand"]["calls"] == 2
        assert stages["expand"]["counters"]["stats.distance_evaluations"] == 20.0
        assert stages["gather"]["calls"] == 2
        assert stages["gather"]["counters"]["stats.distance_evaluations"] == 10.0

    def test_empty_tree(self):
        assert aggregate_stages(Tracer().finish()["root"]) == {}


class TestFormatTraceReport:
    def test_report_sections(self):
        text = format_trace_report(make_traced_doc())
        assert "Trace report — repro.trace v1" in text
        assert "method=mba" in text
        assert "Spans:" in text
        assert "index-build" in text and "shard" in text
        assert "Stage attribution" in text
        assert "Layer attribution" in text

    def test_stage_rows_in_canonical_order(self):
        lines = format_trace_report(make_traced_doc()).splitlines()
        stage_rows = [
            line.split()[0]
            for line in lines
            if line.startswith(("expand", "filter", "gather"))
        ]
        assert stage_rows == ["expand", "filter", "gather"]

    def test_lazy_filter_row_uses_totals_discards(self):
        text = format_trace_report(make_traced_doc())
        filter_line = next(
            line for line in text.splitlines() if line.startswith("filter")
        )
        assert "(lazy)" in filter_line
        assert "42" in filter_line

    def test_layer_table_rates(self):
        text = format_trace_report(make_traced_doc())
        cache_line = next(
            line for line in text.splitlines() if line.startswith("node-cache")
        )
        assert "75.0" in cache_line  # 30 hits / 40 requests
        pool_line = next(line for line in text.splitlines() if line.startswith("pool"))
        assert "80.0" in pool_line  # 80 hits / 100 logical reads

    def test_tolerates_empty_totals(self):
        doc = Tracer().finish()
        text = format_trace_report(doc)
        assert "no totals" in text

    def test_real_run_reports_real_stages(self, rng, tmp_path):
        # End-to-end: the artifact a traced API run writes renders with
        # nonzero expand/gather attribution.
        from repro import JoinConfig, all_nearest_neighbors

        path = tmp_path / "t.json"
        all_nearest_neighbors(rng.random((200, 2)), JoinConfig(k=2, trace=path))
        text = format_trace_report(load_trace(path))
        expand = next(line for line in text.splitlines() if line.startswith("expand"))
        assert expand.split()[1] != "0"


class TestServiceSection:
    def make_service_doc(self):
        doc = make_traced_doc()
        doc["service"] = {
            "submitted": 100.0,
            "admitted": 90.0,
            "shed_quota": 0.0,
            "shed_overload": 10.0,
            "shed_deadline": 0.0,
            "answered": 90.0,
            "degraded": 9.0,
            "batches": 12.0,
        }
        return doc

    def test_service_counters_rendered(self):
        text = format_trace_report(self.make_service_doc())
        assert "Service counters (online run):" in text
        assert "submitted" in text and "batches" in text

    def test_admission_and_degrade_rates(self):
        text = format_trace_report(self.make_service_doc())
        assert "quota 0.0%, overload 10.0%, deadline 0.0%" in text
        assert "degraded 10.0% of admitted" in text

    def test_offline_docs_have_no_service_section(self):
        assert "Service counters" not in format_trace_report(make_traced_doc())

    def test_in_process_trace_reports_capacity_sheds(self, tmp_path):
        from repro.service import AnnService, Overloaded, ServiceConfig

        rng = np.random.default_rng(3)
        path = tmp_path / "service.json"
        cfg = ServiceConfig(queue_capacity=3, max_delay_ms=1000.0, trace=path)
        service = AnnService(rng.random((64, 2)), cfg)
        for point in rng.random((4, 2)):
            try:
                service.submit(point)
            except Overloaded:
                pass
        service.pump(force=True)
        service.close()
        text = format_trace_report(load_trace(path))
        # 4 submitted, the fourth over capacity: a quarter shed.
        assert "quota 0.0%, overload 25.0%, deadline 0.0%" in text
        assert "degraded 0.0% of admitted" in text

    def test_cluster_trace_reports_quota_sheds(self, tmp_path):
        from repro.serve import ReplicaCluster, ServeConfig, default_service_config
        from repro.service import Overloaded

        rng = np.random.default_rng(4)
        path = tmp_path / "serve.json"
        service = default_service_config().replace(quota_rps=0.001, quota_burst=1)
        cfg = ServeConfig(replicas=1, trace=path, service=service)
        with ReplicaCluster(rng.random((64, 2)), cfg, tmp_path / "epochs", inline=True) as cluster:
            cluster.query(rng.random(2))
            with pytest.raises(Overloaded):
                cluster.submit(rng.random(2))
        doc = load_trace(path)
        assert "replica-0" in doc["replica"]
        text = format_trace_report(doc)
        assert "quota 50.0%, overload 0.0%, deadline 0.0%" in text
        assert "Replica counters" in text


class TestReplicaSection:
    def make_replica_doc(self):
        doc = make_traced_doc()
        doc["replica"] = {
            "replica-0": {"batches": 7.0, "answered": 40.0, "swaps": 1.0},
            "replica-1": {"batches": 5.0, "answered": 33.0},
        }
        return doc

    def test_replica_counters_rendered(self):
        text = format_trace_report(self.make_replica_doc())
        assert "Replica counters (multi-process serve):" in text
        assert "replica-0" in text and "replica-1" in text
        assert "batches" in text and "swaps" in text

    def test_missing_counter_rendered_as_dash(self):
        # replica-1 never swapped; its cell is a dash, not a KeyError.
        text = format_trace_report(self.make_replica_doc())
        swaps_row = next(
            line for line in text.splitlines() if line.startswith("swaps")
        )
        assert "-" in swaps_row

    def test_offline_docs_have_no_replica_section(self):
        assert "Replica counters" not in format_trace_report(make_traced_doc())
