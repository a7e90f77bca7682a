"""The sustained-update benchmark: artifact schema and hard guarantees."""

import json

import pytest

from repro.bench.updates import SCHEMA, format_update_report, run_update_bench

TINY = dict(
    n_target=120,
    rounds=3,
    updates_per_round=10,
    queries_per_round=4,
    compact_threshold=8,
    k=2,
)


@pytest.fixture(scope="module")
def doc():
    """One tiny two-kind run shared by the artifact assertions."""
    return run_update_bench(**TINY)


class TestArtifact:
    def test_schema_envelope(self, doc):
        assert doc["schema"] == SCHEMA
        assert doc["workload"]["compact_threshold"] == 8
        assert doc["workload"]["updates_per_round"] == 10
        assert [run["kind"] for run in doc["runs"]] == ["mbrqt", "rstar"]

    def test_run_rows_complete(self, doc):
        for run in doc["runs"]:
            assert {"kind", "epochs", "boundary_checks", "final_size",
                    "flushes", "latency_s", "counters", "service"} <= run.keys()
            lat = run["latency_s"]
            assert {"mean", "p50", "p95", "p99"} == lat.keys()
            assert lat["p50"] <= lat["p95"] <= lat["p99"]

    def test_compactions_actually_happened(self, doc):
        # 30 updates against an 8-op threshold must hot-swap epochs, and
        # every swap must have been probe-verified.
        for run in doc["runs"]:
            assert run["epochs"] >= 2
            assert run["boundary_checks"] >= 4 * run["epochs"]
            assert run["service"]["compactions"] == run["epochs"]

    def test_zero_lost_requests(self, doc):
        for run in doc["runs"]:
            service = run["service"]
            assert service["shed_overload"] == 0.0
            assert service["cancelled"] == 0.0
            assert service["answered"] == service["submitted"]

    def test_final_size_tracks_survivors(self, doc):
        # Starting population ± at most the number of update operations.
        for run in doc["runs"]:
            assert abs(run["final_size"] - TINY["n_target"]) <= 30

    def test_deterministic(self, doc):
        # Everything on the modeled clock is reproducible bit-for-bit;
        # only the measured cpu_time_s / busy_s counters may wiggle.
        def modeled(document):
            return [
                {k: v for k, v in run.items() if k not in ("counters", "service")}
                | {"io_time_s": run["counters"]["io_time_s"]}
                for run in document["runs"]
            ]

        again = run_update_bench(**TINY)
        assert modeled(again) == modeled(doc)

    def test_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_updates.json"
        doc = run_update_bench(
            kinds=("mbrqt",),
            n_target=80,
            rounds=2,
            updates_per_round=6,
            queries_per_round=3,
            compact_threshold=6,
            out_path=out,
        )
        assert json.loads(out.read_text()) == doc

    def test_report_renders(self, doc):
        text = format_update_report(doc)
        assert "mbrqt" in text and "rstar" in text
        assert "epochs" in text and "p95_ms" in text
        assert "probe-verified" in text
