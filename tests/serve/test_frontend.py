"""Front-end policy: quotas, bounded admission, deadline sheds, failover.

Shedding must happen *at admission* (``Overloaded`` raised from
``submit`` before the request queues) — several tests pin that by
checking the counters name the admission stage that shed, and that shed
requests never consume replica work.  The crash test is the satellite's
"crash a replica" requirement: kill a process replica mid-stream and
assert the front-end reroutes or sheds without corrupting answers.
"""

import asyncio

import numpy as np
import pytest

from repro.serve.cluster import ReplicaCluster
from repro.serve.config import ServeConfig
from repro.serve.frontend import Frontend, TokenBucket
from repro.service.config import ServiceConfig
from repro.service.engine import BatchEngine
from repro.service.queueing import Overloaded, ServiceClosed
from repro.service.request import Request

RNG = np.random.default_rng(20260809)


def make_points(n=48, dims=2):
    return RNG.normal(size=(n, dims)) * 10.0


def serve_config(**kwargs):
    kwargs.setdefault(
        "service", ServiceConfig(cold_flush=False, pool_pages=32)
    )
    return ServeConfig(**kwargs)


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
    def test_answers_bit_identical_to_engine(self, points, tmp_path):
        # The end-to-end serving bar: front-end answers equal the
        # in-process engine's RawAnswers for the same points, exactly.
        config = serve_config(replicas=2)
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
        import json

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
        config = serve_config(replicas=1, admission_capacity=2, max_batch=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                # Fill the admission window without yielding to the
                # dispatcher: both tickets sit queued, capacity reached.
                lane, t1 = frontend._admit(points[0], 1, "c", None)
                frontend._enqueue(lane, t1)
                lane2, t2 = frontend._admit(points[1], 1, "c", None)
                frontend._enqueue(lane2, t2)
                with pytest.raises(Overloaded):
                    frontend._admit(points[2], 1, "c", None)
                assert frontend.counters.shed_overload == 1
                await asyncio.gather(t1.future, t2.future)
                await frontend.drain()
                return frontend.counters

        counters = run(go())
        assert counters.answered == 2

    def test_deadline_shed_uses_backlog_estimate(self, points, tmp_path):
        config = serve_config(replicas=1, deadline_ms=10.0)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                lane = frontend._lanes[0]
                # A lane whose one-batch EWMA already exceeds the 10ms
                # budget must shed at admission, not queue-and-degrade.
                lane.ewma_batch_s = 5.0
                lane.queue.append(object())  # backlog of one
                with pytest.raises(Overloaded):
                    frontend._admit(points[0], 1, "c", None)
                assert frontend.counters.shed_deadline == 1
                lane.queue.clear()
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
        config = serve_config(replicas=3)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                frontend._lanes[0].inflight = 5
                frontend._lanes[1].inflight = 1
                frontend._lanes[2].inflight = 3
                lane, ticket = frontend._admit(points[0], 1, "c", None)
                assert lane is frontend._lanes[1]
                for ln in frontend._lanes:
                    ln.inflight = 0
                frontend._enqueue(lane, ticket)
                await ticket.future
                await frontend.drain()

        run(go())


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
                        # admission already knows there is no live lane.
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
                import json

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
            {"point": [1.0, 2.0, 3.0]},
            {"point": [float("nan"), 0.0]},
            {"point": [0.0, 0.0], "k": 0},
        ],
        ids=["wrong-dims", "nan", "k0"],
    )
    def test_malformed_query_is_refused_without_killing_replicas(
        self, points, tmp_path, bad
    ):
        import json

        config = serve_config(replicas=2)

        async def go():
            with ReplicaCluster(points, config, tmp_path, inline=True) as cluster:
                frontend = Frontend(cluster)
                await frontend.start()
                host, port = await frontend.serve()
                reader, writer = await asyncio.open_connection(host, port)
                good = {"op": "query", "point": [float(x) for x in points[0]], "k": 1}
                for msg in ({"op": "query", **bad}, good):
                    writer.write(json.dumps(msg).encode() + b"\n")
                    await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(2)]
                writer.close()
                await frontend.drain()
                return replies, frontend.counters

        (refused, answered), counters = run(go())
        assert refused["error"].startswith("bad request: ")
        assert counters.replica_deaths == 0
        assert answered["distances"] == [0.0]

    def test_oversized_line_is_refused_without_killing_replicas(self, points, tmp_path):
        import json

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
