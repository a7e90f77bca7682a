"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join"])
        assert args.method == "mba"
        assert args.k == 1
        assert args.metric == "nxndist"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--method", "quantum"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "TAC" in out and "FC" in out and "500K6D" in out

    @pytest.mark.parametrize("method", ["mba", "rba", "bnn", "mnn", "gorder", "hnn"])
    def test_join_all_methods(self, capsys, method):
        assert main(["join", "--method", method, "--dataset", "uniform", "-n", "300"]) == 0
        out = capsys.readouterr().out
        assert "result pairs     : 300" in out

    def test_join_with_k_and_metric(self, capsys):
        code = main(
            ["join", "--method", "mba", "--dataset", "gaussian",
             "-n", "200", "-k", "3", "--metric", "maxmaxdist"]
        )
        assert code == 0
        assert "result pairs     : 600" in capsys.readouterr().out

    def test_join_unknown_dataset(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["join", "--dataset", "mars", "-n", "10"])

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])

    def test_join_with_workers(self, capsys):
        serial = ["join", "--method", "mba", "--dataset", "gaussian", "-n", "300"]
        assert main(serial) == 0
        first = capsys.readouterr().out
        assert main(serial + ["--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert "workers          : 2" in second
        checksum = [l for l in first.splitlines() if "checksum" in l]
        assert checksum == [l for l in second.splitlines() if "checksum" in l]

    def test_workers_rejected_for_non_sharded_methods(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["join", "--method", "bnn", "-n", "100", "--workers", "2"])

    def test_workers_zero_rejected(self):
        with pytest.raises(SystemExit, match=">= 1"):
            main(["join", "--method", "mba", "-n", "100", "--workers", "0"])

    def test_parallel_bench_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_parallel.json"
        code = main(
            ["parallel-bench", "--workers", "1", "2", "-n", "500", "--out", str(out)]
        )
        assert code == 0
        assert "speedup" in capsys.readouterr().out
        assert out.exists()

    def test_parallel_bench_rejects_non_gstd_dataset(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["parallel-bench", "--dataset", "tac", "-n", "100", "--out", "-"])

    def test_join_node_cache_preserves_checksum(self, capsys):
        base = ["join", "--method", "mba", "--dataset", "uniform", "-n", "300"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--node-cache", "128"]) == 0
        second = capsys.readouterr().out
        checksum = [l for l in first.splitlines() if "checksum" in l]
        assert checksum == [l for l in second.splitlines() if "checksum" in l]

    def test_join_node_cache_negative_rejected(self):
        with pytest.raises(SystemExit, match=">= 0"):
            main(["join", "--method", "mba", "-n", "100", "--node-cache", "-1"])

    def test_kernel_bench_smoke_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_core.json"
        assert main(["kernel-bench", "--smoke", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "End-to-end mba_join" in printed
        assert out.exists()

    def test_kernel_bench_dash_out_skips_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["kernel-bench", "--smoke", "--out", "-"]) == 0
        assert "LPQ push/pop" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_core.json").exists()

    def test_join_checksum_deterministic(self, capsys):
        main(["join", "--method", "mba", "--dataset", "uniform", "-n", "200"])
        first = capsys.readouterr().out
        main(["join", "--method", "mba", "--dataset", "uniform", "-n", "200"])
        second = capsys.readouterr().out
        checksum = [l for l in first.splitlines() if "checksum" in l]
        assert checksum == [l for l in second.splitlines() if "checksum" in l]


class TestTracing:
    def test_traced_join_writes_valid_artifact(self, capsys, tmp_path):
        from repro import load_trace

        path = tmp_path / "t.json"
        base = ["join", "--method", "mba", "--dataset", "uniform", "-n", "300"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        assert main(base + ["--trace", str(path)]) == 0
        traced = capsys.readouterr().out
        # Tracing must not change the answer the CLI prints.
        checksum = [l for l in untraced.splitlines() if "checksum" in l]
        assert checksum == [l for l in traced.splitlines() if "checksum" in l]
        assert f"wrote {path}" in traced
        doc = load_trace(path)  # schema-validates
        assert doc["meta"]["command"] == "join"
        assert doc["meta"]["method"] == "mba"
        assert doc["totals"]["result_pairs"] == 300.0

    def test_trace_report_renders_artifact(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["join", "--method", "mba", "-n", "300", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Stage attribution" in out
        assert "Layer attribution" in out
        assert "expand" in out and "gather" in out and "filter" in out

    def test_trace_report_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="trace"):
            main(["trace-report", str(tmp_path / "nope.json")])

    def test_trace_report_invalid_artifact(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.trace"}')
        with pytest.raises(SystemExit, match="missing keys"):
            main(["trace-report", str(bad)])

    def test_traced_workers_join(self, tmp_path):
        from repro import load_trace

        path = tmp_path / "t.json"
        args = ["join", "--method", "mba", "-n", "600", "--workers", "2",
                "--trace", str(path)]
        assert main(args) == 0
        doc = load_trace(path)
        query = next(c for c in doc["root"]["children"] if c["name"] == "query")
        assert any(c["name"] == "shard" for c in query["children"])

    def test_traced_kernel_bench(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        args = ["kernel-bench", "--smoke", "--out", "-", "--trace", str(path)]
        assert main(args) == 0
        assert path.exists()

    def test_traced_experiment(self, capsys, tmp_path, monkeypatch):
        from repro import load_trace

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        path = tmp_path / "t.json"
        assert main(["experiment", "filter", "--trace", str(path)]) == 0
        doc = load_trace(path)
        assert doc["meta"]["command"] == "experiment"
        # Each measured method run became a span via the ambient tracer.
        assert any(c["name"] == "method" for c in doc["root"]["children"])


class TestServe:
    def test_once_round_trip(self, capsys):
        assert main(["serve", "--once", "-n", "300"]) == 0
        out = capsys.readouterr().out
        assert "round-trip       : OK" in out
        assert "1 exact, 0 degraded" in out

    def test_batched_self_queries(self, capsys):
        args = ["serve", "-n", "300", "--requests", "24", "--max-batch", "8",
                "--max-delay-ms", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "answered         : 24 (24 exact, 0 degraded)" in out

    def test_serve_writes_trace(self, tmp_path, capsys):
        from repro import load_trace

        path = tmp_path / "service.json"
        args = ["serve", "--once", "-n", "300", "--trace", str(path)]
        assert main(args) == 0
        doc = load_trace(path)
        assert doc["meta"]["api"] == "AnnService"
        assert doc["service"]["answered"] == 1.0

    def test_invalid_service_config_exits(self):
        with pytest.raises(SystemExit, match="max_batch"):
            main(["serve", "--once", "-n", "100", "--max-batch", "0"])

    def test_invalid_request_count_exits(self):
        with pytest.raises(SystemExit, match="--requests"):
            main(["serve", "-n", "100", "--requests", "0"])


class TestServeReplicas:
    def test_once_round_trip_multiprocess(self, capsys):
        # The CI multi-process smoke: two spawned replica processes
        # behind the asyncio front-end, one probed self-query.
        args = ["serve", "--replicas", "2", "--once", "-n", "300"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 replica processes" in out
        assert "round-trip       : OK" in out

    def test_replica_serve_writes_trace(self, tmp_path, capsys):
        from repro import load_trace

        path = tmp_path / "serve.json"
        args = ["serve", "--replicas", "2", "--requests", "8", "-n", "300",
                "--trace", str(path)]
        assert main(args) == 0
        doc = load_trace(path)
        assert doc["meta"]["component"] == "repro.serve"
        assert doc["service"]["answered"] == 8.0
        assert len(doc["replica"]) == 2

    def test_replicas_reject_workers(self, capsys):
        # serve has no --workers: replica processes are its parallelism.
        with pytest.raises(SystemExit):
            main(["serve", "--replicas", "2", "--workers", "2", "--once",
                  "-n", "100"])
        assert "--workers" in capsys.readouterr().err

    def test_cache_slots_require_replicas(self):
        with pytest.raises(SystemExit, match="--cache-slots"):
            main(["serve", "--cache-slots", "16", "--once", "-n", "100"])

    def test_zero_replicas_rejected(self):
        with pytest.raises(SystemExit, match="--replicas"):
            main(["serve", "--replicas", "0", "--once", "-n", "100"])


class TestServiceBench:
    def test_sweep_prints_report(self, capsys):
        args = ["service-bench", "--windows", "1", "4", "--clients", "4",
                "-n", "200", "--requests", "12", "--out", "-"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Service micro-batching" in out
        assert "tput_x" in out

    def test_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_service.json"
        args = ["service-bench", "--windows", "1", "4", "--clients", "4",
                "-n", "200", "--requests", "12", "--out", str(out_path)]
        assert main(args) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.bench.service/v1"
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_bad_windows_exit(self):
        with pytest.raises(SystemExit, match="baseline"):
            main(["service-bench", "--windows", "4", "8", "--clients", "8",
                  "-n", "100", "--requests", "8", "--out", "-"])

    def test_bad_processes_exit(self, capsys):
        # service-bench has no --processes: replica scaling is not swept.
        with pytest.raises(SystemExit):
            main(["service-bench", "--windows", "1", "--clients", "8",
                  "-n", "100", "--requests", "8", "--processes", "2",
                  "--out", "-"])
        assert "unrecognized arguments: --processes" in capsys.readouterr().err


class TestUpdateBench:
    _TINY = ["-n", "100", "--rounds", "2", "--updates", "6", "--queries", "3",
             "--compact-threshold", "6"]

    def test_stream_prints_report(self, capsys):
        args = ["update-bench", "--kinds", "mbrqt", *self._TINY, "--out", "-"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sustained updates" in out
        assert "epochs" in out and "compactions" in out

    def test_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_updates.json"
        args = ["update-bench", "--kinds", "mbrqt", *self._TINY,
                "--out", str(out_path)]
        assert main(args) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.bench.updates/v1"
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_invalid_compact_threshold_exits(self):
        with pytest.raises(SystemExit, match="compact_threshold"):
            main(["update-bench", "--kinds", "mbrqt", "-n", "50",
                  "--compact-threshold", "0", "--out", "-"])
