"""Replica workers and the cluster: bit-identity, hot swap, crash reap.

The load-bearing assertion lives in ``test_inline_replica_bit_identical``:
a replica answering from a *mapped* epoch artifact returns byte-for-byte
the answers the in-process :class:`~repro.service.engine.BatchEngine`
returns for the same request stream — same ids, same float bits — which
is the acceptance bar the whole serving tier stands on.
"""

import multiprocessing

import numpy as np
import pytest

from repro.serve.cluster import ReplicaCluster
from repro.serve.config import ServeConfig
from repro.serve.replica import ReplicaHandle, ReplicaSpec, load_epoch_version
from repro.service.config import ServiceConfig
from repro.service.engine import BatchEngine
from repro.service.request import Request
from repro.storage.mapped import write_epoch

RNG = np.random.default_rng(20260808)


def make_points(n=64, dims=2):
    return RNG.normal(size=(n, dims)) * 10.0


def make_requests(points, n, k=3, now_s=0.0, deadline_s=None):
    idx = RNG.integers(0, len(points), size=n)
    return [
        Request(
            request_id=i,
            point=points[j] + RNG.normal(size=points.shape[1]) * 0.1,
            k=k,
            submitted_s=now_s,
            deadline_s=deadline_s,
        )
        for i, j in enumerate(idx)
    ]


def export_current(engine, tmp_path):
    version = engine.versions.current
    return write_epoch(
        tmp_path / f"epoch-{version.epoch:06d}",
        version.snapshot,
        version.spec,
        epoch=version.epoch,
        size=version.size,
    )


@pytest.fixture(params=["mbrqt", "rstar"])
def config(request):
    return ServiceConfig(kind=request.param, pool_pages=32)


class TestInlineReplica:
    def test_inline_replica_bit_identical(self, config, tmp_path):
        points = make_points()
        engine = BatchEngine(points, config)
        epoch_dir = export_current(engine, tmp_path)
        requests = make_requests(points, 12)

        want = engine.execute(requests, now_s=0.5).answers

        spec = ReplicaSpec(
            replica_id=0,
            epoch_dir=str(epoch_dir),
            config=config,
            cache=None,
            pool_pages=config.pool_pages,
            node_cache_entries=config.node_cache_entries,
        )
        handle = ReplicaHandle(spec, inline=True)
        handle.start()
        try:
            got, info = handle.query(1, requests, now_s=0.5)
        finally:
            handle.stop()
        # Bit-identical: RawAnswer tuples compare exactly (ids and the
        # float64 distances), not approximately.
        assert got == want
        assert info["epoch"] == engine.epoch
        assert info["n_degraded"] == 0

    def test_degraded_batch_marked(self, config, tmp_path):
        points = make_points(n=32)
        engine = BatchEngine(points, config)
        epoch_dir = export_current(engine, tmp_path)
        # Deadline already past at flush time: budgeted browse, flagged.
        requests = make_requests(points, 4, now_s=0.0, deadline_s=0.1)
        spec = ReplicaSpec(0, str(epoch_dir), config, None, 32, 0)
        handle = ReplicaHandle(spec, inline=True)
        handle.start()
        try:
            answers, info = handle.query(1, requests, now_s=5.0)
        finally:
            handle.stop()
        assert info["n_degraded"] == len(requests)
        assert all(approx for (__, __, approx) in answers.values())

    def test_protocol_replies(self, config, tmp_path):
        points = make_points(n=16)
        engine = BatchEngine(points, config)
        epoch_dir = export_current(engine, tmp_path)
        spec = ReplicaSpec(3, str(epoch_dir), config, None, 32, 0)
        handle = ReplicaHandle(spec, inline=True)
        handle.start()
        try:
            assert handle.ping() == engine.epoch
            handle.query(1, make_requests(points, 2), now_s=0.0)
            stats = handle.stats()
            assert stats["replica_id"] == 3
            assert stats["batches"] == 1
            assert stats["answered"] == 2
            assert "logical_reads" in stats["io"]
            unknown = handle.request("frobnicate")
            assert unknown[0] == "error"
        finally:
            handle.stop()
        assert not handle.alive

    def test_load_epoch_version_is_mapped(self, config, tmp_path):
        points = make_points(n=16)
        engine = BatchEngine(points, config)
        epoch_dir = export_current(engine, tmp_path)
        version = load_epoch_version(str(epoch_dir), 16, 0)
        assert version.snapshot is None
        assert version.epoch == engine.epoch
        assert version.size == len(points)


class TestServeConfig:
    def test_serve_defaults(self):
        # The serve tier's pipeline: flush whenever a worker is free, in
        # batches of at most 16, at most 256 admitted but unanswered,
        # warm caches.
        service = ServeConfig().service
        assert (service.max_batch, service.max_delay_ms) == (16, 0.0)
        assert (service.queue_capacity, service.cold_flush) == (256, False)

    def test_service_trace_rejected(self, tmp_path):
        # One trace writer: a cluster traces to ServeConfig.trace only.
        with pytest.raises(ValueError, match="service.trace"):
            ServeConfig(service=ServiceConfig(trace=tmp_path / "t.json"))


class TestCluster:
    def test_hot_swap_on_publish(self, tmp_path):
        points = make_points(n=32)
        config = ServeConfig(
            replicas=2, service=ServiceConfig(cold_flush=False, pool_pages=32)
        )
        with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
            epoch0 = cluster.epoch
            far = np.array([500.0, 500.0])
            cluster.insert(far, point_id=9000)
            # Not yet published: replicas still answer from epoch 0.
            assert cluster.replicas[0].ping() == epoch0
            assert cluster.compact() is not None
            req = Request(0, far, k=1, submitted_s=0.0, deadline_s=None)
            for replica in cluster.replicas:
                assert replica.ping() == cluster.epoch
                answers, info = replica.query(1, [req], now_s=0.0)
                ids, dists, approx = answers[0]
                assert ids == (9000,)
                assert dists == (0.0,)
                assert not approx
            for stats in cluster.stats():
                assert stats["swaps"] == 1

    def test_auto_compact_swaps_fleet(self, tmp_path):
        points = make_points(n=16)
        config = ServeConfig(
            replicas=1,
            service=ServiceConfig(
                cold_flush=False, pool_pages=32, compact_threshold=4
            ),
        )
        with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
            epoch0 = cluster.epoch
            for i in range(4):
                cluster.insert(RNG.normal(size=2), point_id=1000 + i)
            assert cluster.epoch > epoch0
            assert cluster.replicas[0].ping() == cluster.epoch
            assert cluster.engine.pending_ops == 0

    def test_shared_cache_traffic_surfaces(self, tmp_path):
        points = make_points(n=64)
        config = ServeConfig(
            replicas=2,
            cache_slots=128,
            service=ServiceConfig(cold_flush=False, pool_pages=32),
        )
        with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
            requests = make_requests(points, 8)
            a0, __ = cluster.replicas[0].query(1, requests, now_s=0.0)
            a1, __ = cluster.replicas[1].query(1, requests, now_s=0.0)
            assert a0 == a1  # same epoch, same stream → identical answers
            stats = cluster.stats()
            io0, io1 = stats[0]["io"], stats[1]["io"]
            # Replica 0 warmed the shared segment; replica 1 hit it.
            assert io0["shared_cache_misses"] > 0
            assert io1["shared_cache_hits"] > 0


class TestProcessReplica:
    def test_cluster_waits_for_replicas_to_map_their_epoch(self, tmp_path, monkeypatch):
        # Construction returns only once every replica has mapped its
        # epoch: one that cannot come up fails the constructor (not the
        # first query), and the fleet it started is reaped.
        empty = tmp_path / "no-artifact"
        empty.mkdir()
        monkeypatch.setattr(ReplicaCluster, "_export_epoch", lambda self: empty)
        config = ServeConfig(replicas=1, service=ServiceConfig(pool_pages=32))
        before = {proc.pid for proc in multiprocessing.active_children()}
        with pytest.raises(RuntimeError, match="replica 0"):
            ReplicaCluster(make_points(n=16), config, tmp_path / "work")
        assert {proc.pid for proc in multiprocessing.active_children()} == before

    def test_process_replica_bit_identical(self, tmp_path):
        config = ServiceConfig(pool_pages=32)
        points = make_points(n=32)
        engine = BatchEngine(points, config)
        epoch_dir = export_current(engine, tmp_path)
        requests = make_requests(points, 6)
        want = engine.execute(requests, now_s=0.0).answers

        spec = ReplicaSpec(0, str(epoch_dir), config, None, 32, 0)
        handle = ReplicaHandle(spec, inline=False)
        handle.start()
        try:
            assert handle.ping() == engine.epoch
            got, __ = handle.query(1, requests, now_s=0.0)
            assert got == want
        finally:
            handle.stop()
        assert handle._proc.exitcode == 0

    def test_kill_is_detectable(self, tmp_path):
        config = ServiceConfig(pool_pages=32)
        engine = BatchEngine(make_points(n=16), config)
        epoch_dir = export_current(engine, tmp_path)
        spec = ReplicaSpec(0, str(epoch_dir), config, None, 32, 0)
        handle = ReplicaHandle(spec, inline=False)
        handle.start()
        handle.ping()
        handle.kill()
        handle._proc.join(timeout=30)
        assert not handle.alive
        with pytest.raises((EOFError, BrokenPipeError, OSError)):
            handle.request("ping")
        handle.join()
