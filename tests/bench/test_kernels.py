"""The core-kernel benchmark sweep (smoke mode) and its artifact schema.

CI tracks ``BENCH_core.json`` across commits, so these tests pin the
artifact's shape — the keys downstream comparison scripts read — and the
invariants that make a run meaningful: the decoded-node cache must see
traffic (nonzero hits) and the end-to-end sections must report the same
deterministic result checksums on every run with the same seed.
"""

import json

from repro.bench.kernels import SCHEMA, format_kernel_report, kernel_bench


class TestSmokeReport:
    def test_schema_and_sections(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        report = kernel_bench(smoke=True, seed=7, out_path=out)
        assert report["schema"] == SCHEMA
        assert report["smoke"] is True
        assert report["seed"] == 7

        assert {row["scenario"] for row in report["lpq"]} == {"ann", "aknn-counts"}
        for row in report["lpq"]:
            assert row["enqueues"] > 0
            assert row["push_rate_eps"] > 0
            assert row["pop_rate_eps"] > 0

        kernels = {row["kernel"] for row in report["metrics"]}
        assert {"minmindist_cross", "maxmaxdist_cross", "nxndist_cross"} <= kernels
        for row in report["metrics"]:
            assert row["per_call_us"] > 0

        labels = [row["label"] for row in report["end_to_end"]]
        assert labels == ["mbrqt-n1200-k1", "mbrqt-n1200-k3", "rstar-n800-k1"]
        for row in report["end_to_end"]:
            assert row["wall_s"] > 0
            assert row["counters"]["distance_evaluations"] > 0
            assert row["result"]["pair_count"] == row["n"] * row["k"]
            assert row["result"]["total_distance"] > 0

        # The frontier section covers the same scenarios and must report
        # identical answers between the two engines.
        assert [row["label"] for row in report["frontier"]] == labels
        for row in report["frontier"]:
            assert row["match"] is True
            assert row["baseline_wall_s"] > 0
            assert row["frontier_wall_s"] > 0
            assert row["speedup"] > 0
            assert row["result"]["pair_count"] == row["n"] * row["k"]

        # The artifact on disk is the same JSON document.
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == SCHEMA
        assert [r["label"] for r in on_disk["end_to_end"]] == labels
        assert [r["label"] for r in on_disk["frontier"]] == labels

    def test_node_cache_sees_traffic(self):
        # Acceptance criterion: bidirectional traversal must produce
        # nonzero decoded-node cache hits in the tracked artifact.
        report = kernel_bench(smoke=True, seed=7)
        for row in report["end_to_end"]:
            assert row["node_cache_entries"] > 0
            assert row["counters"]["node_cache_hits"] > 0

    def test_end_to_end_sections_fold_io_and_cpu(self):
        # Both engines' rows carry the storage I/O of their cold run and
        # a measured CPU time, not zeroed counters.
        report = kernel_bench(smoke=True, seed=7)
        for row in report["frontier"]:
            assert row["counters"]["logical_reads"] > 0
            assert row["counters"]["page_misses"] > 0
        for row in report["end_to_end"] + report["frontier"]:
            assert row["counters"]["cpu_time_s"] > 0

    def test_results_deterministic_across_runs(self):
        a = kernel_bench(smoke=True, seed=7)
        b = kernel_bench(smoke=True, seed=7)
        for row_a, row_b in zip(a["end_to_end"], b["end_to_end"]):
            assert row_a["result"] == row_b["result"]
            assert (
                row_a["counters"]["distance_evaluations"]
                == row_b["counters"]["distance_evaluations"]
            )
        for row_a, row_b in zip(a["frontier"], b["frontier"]):
            assert row_a["result"] == row_b["result"]
            assert (
                row_a["counters"]["distance_evaluations"]
                == row_b["counters"]["distance_evaluations"]
            )

    def test_format_report_renders_every_section(self):
        report = kernel_bench(smoke=True, seed=7)
        text = format_kernel_report(report)
        assert "LPQ push/pop" in text
        assert "Cross metrics" in text
        assert "End-to-end mba_join" in text
        assert "Frontier engine vs mba_join" in text
        for row in report["end_to_end"]:
            assert row["label"] in text
