"""The serving pipeline behind the front-end: quotas, bounded admission,
deadline sheds, idle-worker dispatch, failover, and the ndjson socket.

Shedding must happen *at admission* (``Overloaded`` raised from
``submit`` before the request queues) — several tests pin that by
checking the counters name the admission rule that shed, and that shed
requests never consume replica work.  The crash test kills a process
replica mid-stream and asserts its batch is rerouted to the survivor
without corrupting answers.
"""

import asyncio
import json
import sys
import threading

import numpy as np
import pytest

from repro.serve.cluster import ReplicaCluster
from repro.serve.config import ServeConfig, default_service_config
from repro.serve.frontend import Frontend
from repro.service import AnnService
from repro.service.engine import BatchEngine
from repro.service.queueing import Overloaded, ServiceClosed, TokenBucket
from repro.service.request import Request

RNG = np.random.default_rng(20260809)


def make_points(n=48, dims=2):
    return RNG.normal(size=(n, dims)) * 10.0


_SERVE_FIELDS = ("replicas", "cache_slots", "cache_slot_bytes", "trace")


def serve_config(**kwargs):
    """A ServeConfig; every non-topology keyword goes to its service."""
    serve = {key: kwargs.pop(key) for key in _SERVE_FIELDS if key in kwargs}
    service = default_service_config().replace(pool_pages=32, **kwargs)
    return ServeConfig(service=service, **serve)


@pytest.fixture
def points():
    return make_points()


def run(coro):
    return asyncio.run(coro)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, now_fn=lambda: clock[0])
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()  # burst exhausted, no time passed
        clock[0] = 1.0
        assert bucket.allow()  # one second → one token back
        assert not bucket.allow()

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3, now_fn=lambda: clock[0])
        clock[0] = 60.0
        for _ in range(3):
            assert bucket.allow()
        assert not bucket.allow()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1, now_fn=lambda: 0.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0, now_fn=lambda: 0.0)


class TestSubmitPath:
    @pytest.mark.parametrize("replicas", [1, 2, 4])
    def test_answers_bit_identical_to_engine(self, points, tmp_path, replicas):
        # The end-to-end serving bar: front-end answers equal the
        # in-process engine's RawAnswers for the same points, exactly,
        # whatever the fleet size (each replica maps a fair pool slice;
        # small batches spread the stream over the fleet).
        config = serve_config(replicas=replicas, max_batch=2)
        engine = BatchEngine(points, config.service)
        queries = [points[i] + 0.05 for i in range(10)]
        want = engine.execute(
            [
                Request(i, q, k=3, submitted_s=0.0, deadline_s=None)
                for i, q in enumerate(queries)
            ],
            now_s=0.0,
        ).answers

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                async with Frontend(cluster) as frontend:
                    return await asyncio.gather(
                        *(frontend.submit(q, k=3) for q in queries)
                    )

        answers = run(go())
        for i, answer in enumerate(answers):
            ids, dists, approx = want[i]
            assert answer.neighbor_ids == ids
            assert answer.distances == dists
            assert answer.approximate == approx

    def test_frontend_over_in_process_service(self, points):
        # The adapter takes any AnnService: the in-process engine answers
        # exactly what the engine does, and drain closes the service.
        config = default_service_config().replace(pool_pages=32)
        want = BatchEngine(points, config).execute(
            [Request(0, points[3], k=2, submitted_s=0.0, deadline_s=None)], now_s=0.0
        ).answers[0]

        async def go():
            service = AnnService(points, config)
            async with Frontend(service) as frontend:
                answer = await frontend.submit(points[3], k=2)
            return answer, service

        answer, service = run(go())
        assert (answer.neighbor_ids, answer.distances, answer.approximate) == want
        with pytest.raises(ServiceClosed):
            service.submit(points[0])

    def test_counters_and_drain_sections(self, points, tmp_path):
        config = serve_config(replicas=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                await asyncio.gather(
                    *(frontend.submit(points[i], k=2) for i in range(6))
                )
                sections = await frontend.drain()
                return frontend.counters, sections

        counters, sections = run(go())
        assert counters.admitted == 6
        assert counters.answered == 6
        assert counters.batches >= 1
        assert sections["service"]["answered"] == 6.0
        assert set(sections["replica"]) == {"replica-0", "replica-1"}
        answered = sum(
            r.get("answered", 0.0) for r in sections["replica"].values()
        )
        assert answered == 6.0
        assert all("io.logical_reads" in r for r in sections["replica"].values())

    def test_submit_after_drain_is_closed(self, points, tmp_path):
        config = serve_config(replicas=1)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                await frontend.drain()
                with pytest.raises(ServiceClosed):
                    await frontend.submit(points[0], k=1)

        run(go())

    def test_trace_artifact_has_replica_section(self, points, tmp_path):
        trace_path = tmp_path / "serve-trace.json"
        config = serve_config(replicas=2, trace=trace_path)

        async def go():
            with ReplicaCluster(
                points, config, tmp_path / "epochs", inline=True
            ) as cluster:
                async with Frontend(cluster) as frontend:
                    await frontend.submit(points[0], k=2)

        run(go())
        doc = json.loads(trace_path.read_text())
        from repro.obs.schema import validate_trace

        validate_trace(doc)
        assert doc["service"]["admitted"] == 1.0
        assert "replica-0" in doc["replica"]
        assert doc["meta"]["component"] == "repro.serve"


class TestShedding:
    def test_quota_shed(self, points, tmp_path):
        config = serve_config(replicas=1, quota_rps=0.001, quota_burst=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                async with Frontend(cluster) as frontend:
                    await frontend.submit(points[0], k=1, client="alice")
                    await frontend.submit(points[1], k=1, client="alice")
                    with pytest.raises(Overloaded):
                        await frontend.submit(points[2], k=1, client="alice")
                    # Quotas are per client: bob is unaffected.
                    await frontend.submit(points[3], k=1, client="bob")
                    return frontend.counters

        counters = run(go())
        assert counters.shed_quota == 1
        assert counters.answered == 3

    def test_admission_bound_sheds_before_queueing(self, points, tmp_path):
        config = serve_config(replicas=1, queue_capacity=2, max_batch=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                # Fill the admission window before any flush worker runs:
                # both tickets sit queued, capacity reached.
                t1 = cluster.submit(points[0], 1)
                t2 = cluster.submit(points[1], 1)
                with pytest.raises(Overloaded):
                    await frontend.submit(points[2], k=1)
                assert frontend.counters.shed_overload == 1
                assert len(cluster) == 2
                await frontend.start()
                await asyncio.to_thread(t1.result, 30.0)
                await asyncio.to_thread(t2.result, 30.0)
                await frontend.drain()
                return frontend.counters

        counters = run(go())
        assert counters.answered == 2
        assert counters.admitted == 2 and counters.submitted == 3

    def test_deadline_shed_uses_backlog_estimate(self, points, tmp_path):
        config = serve_config(replicas=1, deadline_ms=10.0)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                # A service whose flush estimate already exceeds the 10ms
                # budget must shed at admission, not queue-and-degrade.
                cluster._ewma_batch_s = 5.0
                cluster.submit(points[1], 1, deadline_ms=None)  # backlog of one
                with pytest.raises(Overloaded):
                    await frontend.submit(points[0], k=1)
                assert frontend.counters.shed_deadline == 1
                await frontend.start()
                await frontend.drain()

        run(go())

    def test_empty_backlog_never_deadline_sheds(self, points, tmp_path):
        config = serve_config(replicas=1, deadline_ms=0.001)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                async with Frontend(cluster) as frontend:
                    # Impossibly tight deadline, but zero backlog: the
                    # request is admitted (and will degrade downstream
                    # rather than shed) — admission sheds on *wait*, not
                    # on execution time it cannot know.
                    answer = await frontend.submit(points[0], k=1)
                    assert answer is not None

        run(go())


class TestRouting:
    def test_least_loaded_lane_chosen(self, points, tmp_path):
        # One queue, one flush worker per replica: while one replica is
        # blocked on a batch, the idle one takes the next batch.
        config = serve_config(replicas=2)
        release = threading.Event()
        served = []

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                for handle in cluster.replicas:
                    plain = handle.query

                    def query(batch_id, requests, now_s, plain=plain, rid=handle.replica_id):
                        served.append(rid)
                        if len(served) == 1:
                            release.wait(30.0)
                        return plain(batch_id, requests, now_s)

                    handle.query = query
                async with Frontend(cluster) as frontend:
                    first = asyncio.create_task(frontend.submit(points[0], k=1))
                    while not served:
                        await asyncio.sleep(0.001)
                    second = await asyncio.wait_for(frontend.submit(points[1], k=1), 30.0)
                    assert not first.done()
                    release.set()
                    return await first, second

        first, second = run(go())
        assert len(served) == 2 and served[0] != served[1]
        assert first.distances == (0.0,) and second.distances == (0.0,)


class TestConcurrency:
    def test_many_flush_workers_lose_no_update(self, points, tmp_path):
        # More flush workers than cores and a tiny switch interval: every
        # admitted request is answered exactly once, and the shared
        # counters and capacity bookkeeping add up.
        config = serve_config(replicas=4, max_batch=2)
        tickets = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                cluster.start()

                def client(offset):
                    for i in range(30):
                        point = points[(offset + i) % len(points)]
                        tickets.append(cluster.submit(point, 1))

                threads = [threading.Thread(target=client, args=(j,)) for j in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                answers = [ticket.result(timeout_s=30.0) for ticket in tickets]
                replica_answered = sum(s["answered"] for s in cluster.stats())
                counters = cluster.counters
                unanswered = cluster._queue.unanswered
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 120
        assert all(answer.distances == (0.0,) for answer in answers)
        assert counters.admitted == counters.answered == replica_answered == 120
        assert unanswered == 0


class TestCrashFailover:
    def test_killed_replica_reroutes_without_corruption(self, points, tmp_path):
        # Process-mode fleet; kill one replica mid-stream.  Every answer
        # that arrives must still be bit-identical to the single-process
        # engine — a reroute re-executes on an identical mapped epoch,
        # it never invents data.
        config = serve_config(replicas=2, max_batch=4)
        engine = BatchEngine(points, config.service)
        queries = [points[i % len(points)] + 0.05 for i in range(24)]
        want = engine.execute(
            [
                Request(i, q, k=3, submitted_s=0.0, deadline_s=None)
                for i, q in enumerate(queries)
            ],
            now_s=0.0,
        ).answers

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=False) as cluster:
                async with Frontend(cluster) as frontend:
                    tasks = [
                        asyncio.create_task(frontend.submit(q, k=3))
                        for q in queries
                    ]
                    await asyncio.sleep(0)  # let tickets queue
                    cluster.replicas[0].kill()
                    results = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                    return results, frontend.counters

        results, counters = run(go())
        answered = 0
        for i, result in enumerate(results):
            if isinstance(result, BaseException):
                # Allowed only as an explicit shed/closed, never a
                # protocol error leaking through.
                assert isinstance(result, (Overloaded, ServiceClosed))
                continue
            answered += 1
            ids, dists, approx = want[i]
            assert result.neighbor_ids == ids
            assert result.distances == dists
        # The surviving replica answered the stream (reroutes included).
        assert answered == len(queries)
        assert counters.replica_deaths == 1
        assert counters.rerouted > 0

    def test_all_replicas_dead_fails_closed(self, points, tmp_path):
        config = serve_config(replicas=1)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=False) as cluster:
                async with Frontend(cluster) as frontend:
                    await frontend.submit(points[0], k=1)  # warm path works
                    cluster.replicas[0].kill()
                    cluster.replicas[0]._proc.join(timeout=30)
                    with pytest.raises((Overloaded, ServiceClosed)):
                        # Either the dead pipe is discovered now (this
                        # submit's batch errors → ServiceClosed) or
                        # admission already knows there is no live worker.
                        await frontend.submit(points[1], k=1)
                    with pytest.raises(ServiceClosed):
                        await frontend.submit(points[2], k=1)

        run(go())


class TestSocketServer:
    def test_ndjson_roundtrip(self, points, tmp_path):
        config = serve_config(replicas=1)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                host, port = await frontend.serve()
                reader, writer = await asyncio.open_connection(host, port)
                msg = {
                    "op": "query",
                    "id": 42,
                    "point": [float(points[0][0]), float(points[0][1])],
                    "k": 1,
                }
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                stats = json.loads(await reader.readline())
                writer.write(b'{"op": "nope"}\n')
                await writer.drain()
                unknown = json.loads(await reader.readline())
                writer.close()
                await frontend.drain()
                return reply, stats, unknown

        reply, stats, unknown = run(go())
        assert reply["id"] == 42
        # Self-query: the nearest neighbour of a dataset point is itself.
        assert reply["distances"][0] == 0.0
        assert reply["approximate"] is False
        assert stats["service"]["answered"] == 1.0
        assert "error" in unknown

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "query", "id": 7, "point": [1.0, 2.0, 3.0]},
            {"op": "query", "id": 7, "point": [float("nan"), 0.0]},
            {"op": "query", "id": 7, "point": [0.0, 0.0], "k": 0},
            [1, 2],
            3,
            "x",
        ],
        ids=["wrong-dims", "nan", "k0", "list", "number", "string"],
    )
    def test_malformed_query_is_refused_without_killing_replicas(
        self, points, tmp_path, bad
    ):
        config = serve_config(replicas=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                host, port = await frontend.serve()
                reader, writer = await asyncio.open_connection(host, port)
                good = {"op": "query", "point": [float(x) for x in points[0]], "k": 1}
                for msg in (bad, good):
                    writer.write(json.dumps(msg).encode() + b"\n")
                    await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(2)]
                writer.close()
                await frontend.drain()
                return replies, frontend.counters

        (refused, answered), counters = run(go())
        assert refused["error"].startswith("bad request: ")
        # A client matching replies by id gets its refusal back.
        if isinstance(bad, dict):
            assert refused["id"] == 7
        assert counters.replica_deaths == 0
        assert answered["distances"] == [0.0]

    def test_deadline_ms_is_relative_to_admission(self, points, tmp_path):
        config = serve_config(replicas=1)
        seen = []

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                plain = cluster.replicas[0].query

                def query(batch_id, requests, now_s):
                    seen.extend(requests)
                    return plain(batch_id, requests, now_s)

                cluster.replicas[0].query = query
                frontend = Frontend(cluster)
                await frontend.start()
                host, port = await frontend.serve()
                reader, writer = await asyncio.open_connection(host, port)
                msg = {
                    "op": "query",
                    "id": 1,
                    "point": [float(x) for x in points[0]],
                    "deadline_ms": 5000,
                }
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                await frontend.drain()
                return reply

        reply = run(go())
        assert reply["id"] == 1 and reply["distances"] == [0.0]
        assert reply["approximate"] is False
        (request,) = seen
        assert request.deadline_s == request.submitted_s + 5000 / 1000.0

    def test_oversized_line_is_refused_without_killing_replicas(self, points, tmp_path):
        config = serve_config(replicas=2)
        # About 100 KB, past StreamReader's 64 KiB line limit.
        oversized = b'{"op": "query", "point": [' + b"0.0, " * 20_000 + b"0.0]}\n"
        good = {"op": "query", "point": [float(x) for x in points[0]], "k": 1}

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                host, port = await frontend.serve()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(oversized)
                await writer.drain()
                refused = json.loads(await reader.readline())
                rest = await reader.read()  # the server closed this connection
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps(good).encode() + b"\n")
                await writer.drain()
                answered = json.loads(await reader.readline())
                writer.close()
                await frontend.drain()
                return refused, rest, answered, frontend.counters

        refused, rest, answered, counters = run(go())
        assert refused == {"error": "bad request: line too long"}
        assert rest == b""
        assert counters.replica_deaths == 0
        assert answered["distances"] == [0.0]
