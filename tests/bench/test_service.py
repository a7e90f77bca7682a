"""Tests for the closed-loop service load generator and its artifact."""

import json

import pytest

from repro.bench.service import SCHEMA, format_service_report, run_service_bench


@pytest.fixture(scope="module")
def doc():
    """One small sweep shared by the schema/behaviour assertions."""
    return run_service_bench(
        windows=(1, 4, 8), clients=8, n_target=300, n_requests=48
    )


class TestArtifact:
    def test_schema_envelope(self, doc):
        assert doc["schema"] == SCHEMA
        assert doc["baseline_max_batch"] == 1
        assert {"distribution", "n", "dims", "seed"} <= doc["dataset"].keys()
        assert doc["workload"]["clients"] == 8
        assert len(doc["runs"]) == 3

    def test_run_rows_complete(self, doc):
        for run in doc["runs"]:
            assert {"max_batch", "flushes", "throughput_rps", "latency_s",
                    "counters", "checksum", "service", "vs_baseline"} <= run.keys()
            assert {"mean", "p50", "p95", "p99"} == run["latency_s"].keys()
            assert run["latency_s"]["p50"] <= run["latency_s"]["p95"]
            assert run["latency_s"]["p95"] <= run["latency_s"]["p99"]

    def test_answers_invariant_across_windows(self, doc):
        checksums = [run["checksum"] for run in doc["runs"]]
        base = checksums[0]
        assert all(abs(c - base) <= 1e-6 * max(1.0, abs(base)) for c in checksums)

    def test_batching_beats_baseline(self, doc):
        # The PR's acceptance bar: at batch >= 8, micro-batching wins
        # throughput at equal-or-better p95.
        for run in doc["runs"]:
            if run["max_batch"] >= 8:
                assert run["vs_baseline"]["throughput_ratio"] > 1.0
                assert run["vs_baseline"]["p95_ratio"] >= 1.0

    def test_baseline_ratios_are_unity(self, doc):
        assert doc["runs"][0]["vs_baseline"] == {
            "throughput_ratio": 1.0, "p95_ratio": 1.0
        }

    def test_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_service.json"
        doc = run_service_bench(
            windows=(1, 4), clients=4, n_target=200, n_requests=12, out_path=out
        )
        assert json.loads(out.read_text()) == doc

    def test_deterministic(self, doc):
        # Everything on the modeled clock is reproducible bit-for-bit;
        # only the measured cpu_time_s / busy_s counters may wiggle.
        def modeled(document):
            return [
                {k: v for k, v in run.items() if k not in ("counters", "service")}
                | {"io_time_s": run["counters"]["io_time_s"]}
                for run in document["runs"]
            ]

        again = run_service_bench(
            windows=(1, 4, 8), clients=8, n_target=300, n_requests=48
        )
        assert modeled(again) == modeled(doc)


class TestValidation:
    def test_windows_must_start_with_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            run_service_bench(windows=(2, 8), clients=8, n_target=100, n_requests=8)

    def test_clients_must_cover_largest_window(self):
        with pytest.raises(ValueError, match="clients"):
            run_service_bench(windows=(1, 16), clients=4, n_target=100, n_requests=8)

    def test_smoke_overrides_sizes(self):
        doc = run_service_bench(smoke=True)
        assert doc["workload"]["n_requests"] == 96
        assert [r["max_batch"] for r in doc["runs"]] == [1, 8, 16]


class TestReport:
    def test_report_mentions_every_window(self, doc):
        text = format_service_report(doc)
        assert "max_batch" in text and "tput_rps" in text
        for run in doc["runs"]:
            assert f"\n{run['max_batch']} " in "\n" + text

    def test_report_without_optional_sections(self, doc):
        assert doc.keys() == {"schema", "dataset", "workload", "baseline_max_batch", "runs"}
        text = format_service_report(doc)
        assert "Open loop" not in text and "Multi-process" not in text
