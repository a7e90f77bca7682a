"""``serve-socket``: the multi-process serving tier over its TCP front-end.

``ReplicaCluster(points, ServeConfig(replicas=1, cache_slots=...))``
behind ``Frontend.serve()`` on 127.0.0.1, over 10,000 clustered points.
This process's event loop writes open-loop Poisson ndjson queries over
two TCP connections; a small write share goes through
``cluster.insert`` / ``cluster.delete`` on one writer thread, enough to
publish, export and swap an epoch every few seconds.  It is the only
path through admission, the replica pipe, mapped epochs, the shared
node cache and epoch export and swap.  One replica, because the
front-end plus one replica already fill a two-core host.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from common import (
    ABORT_BACKLOG,
    LADDER,
    MISSED_MS,
    LADDER_SHARE,
    UNTRACED_SHARE,
    Churn,
    Outcome,
    PhaseLog,
    capacity_of,
    ladder_over,
    median,
    percentile,
    poisson_ops,
    ratio,
    rss_peak_mb,
)
from repro import Tracer
from repro.serve import Frontend, ReplicaCluster, ServeConfig

N_BASE = 10_000
N_INSERT_POOL = 4_096
N_READ_POOL = 16_384
RATE = 400.0
WRITE_SHARE = 0.04
CACHE_SLOTS = 256
CONNECTIONS = 2
SETUPS = 3
ANSWER_TIMEOUT_S = 30.0
#: Epoch artifacts go under the checkout, in a directory the run removes.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_work"


def epoch(cluster: ReplicaCluster) -> int:
    return cluster.epoch


class Client:
    """One ndjson connection; replies are matched to requests by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: dict[int, asyncio.Future] = {}
        self.task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        loop = asyncio.get_running_loop()
        while line := await self.reader.readline():
            reply = json.loads(line)
            fut = self.waiting.pop(reply.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result((loop.time(), reply))
        for fut in self.waiting.values():
            if not fut.done():
                fut.set_exception(ConnectionError("connection closed"))

    def send(self, request_id: int, point: np.ndarray) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiting[request_id] = fut
        msg = {"op": "query", "id": request_id, "point": point.tolist(), "k": 1}
        self.writer.write(json.dumps(msg).encode() + b"\n")
        return fut

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.task


class Stack:
    """One cluster, its front-end and client connections, the epochs it
    published, and a timer around each ``ReplicaHandle.query``."""

    def __init__(
        self, churn: Churn, cluster: ReplicaCluster, frontend: Frontend, clients: list[Client]
    ) -> None:
        self.cluster = cluster
        self.frontend = frontend
        self.clients = clients
        self.first_write = len(churn.writes)
        self.base_version = churn.live.version
        self.batches: list[tuple[float, dict]] = []  # (seconds, replica info)
        for handle in cluster.replicas:
            plain = handle.query

            def timed(batch_id, requests, now_s, plain=plain):
                t0 = time.perf_counter()
                answers, info = plain(batch_id, requests, now_s)
                self.batches.append((time.perf_counter() - t0, info))
                return answers, info

            handle.query = timed

    def epochs(self, churn: Churn) -> tuple[list[int], list[float], list[float]]:
        """Per epoch: the version it holds, when the compaction that made
        it started, and when the replicas had swapped to it."""
        published = [w for w in churn.writes[self.first_write :] if w.compacted]
        return (
            [self.base_version] + [w.version for w in published],
            [float("-inf")] + [w.start for w in published],
            [float("-inf")] + [w.end for w in published],
        )

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.frontend.drain()
        self.cluster.close()


class Serving(Churn):
    """The shared churn state plus the request ids and cluster workdirs."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, N_BASE, N_INSERT_POOL, N_READ_POOL, salt=2)
        self.workdir = workdir
        self.next_request = 0
        self.clusters = 0

    def send(self, client: Client, q: np.ndarray) -> asyncio.Future:
        self.next_request += 1
        return client.send(self.next_request, q)

    async def stack(self, config: ServeConfig) -> tuple[Stack, float, float]:
        """Build a cluster over the live set, serve it and wait until a
        replica has answered a real query; returns (stack, ready s, build s)."""
        self.clusters += 1
        ids = self.live.ids
        t0 = time.perf_counter()
        cluster = ReplicaCluster(
            self.points[ids], config, self.workdir / f"cluster-{self.clusters}", point_ids=ids
        )
        built = time.perf_counter() - t0
        frontend = Frontend(cluster)
        await frontend.start()
        host, port = await frontend.serve("127.0.0.1", 0)
        clients = []
        for __ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            clients.append(Client(reader, writer))
        stack = Stack(self, cluster, frontend, clients)
        row, q = self.read_point()
        done, reply = await asyncio.wait_for(self.send(clients[0], q), ANSWER_TIMEOUT_S)
        if "error" in reply or reply.get("approximate"):
            await stack.close()
            raise RuntimeError(f"serving stack never became ready: {reply}")
        ready = time.perf_counter() - t0
        self.record(row, reply["ids"][0], reply["distances"][0], [self.live.version])
        return stack, ready, built

    async def phase(
        self,
        stack: Stack,
        writer: ThreadPoolExecutor,
        out: Outcome,
        name: str,
        rate: float,
        seconds: float,
        wire: dict | None = None,
        ladder: bool = False,
    ) -> PhaseLog:
        """Drive one open-loop phase from the event loop, then collect.  A
        ``ladder`` step is abandoned once the backlog shows overload."""
        loop = asyncio.get_running_loop()
        log = PhaseLog(rate, out.phase(name))
        tally = log.tally
        reads, writes = [], []
        outstanding = 0

        def answered(__: asyncio.Future) -> None:
            nonlocal outstanding
            outstanding -= 1

        start = loop.time() + 0.005
        for op in poisson_ops(self.rng, rate, seconds, WRITE_SHARE):
            due = start + op.due_s
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            log.late_ms.append(1e3 * (now - due))
            if op.kind != "read":
                tally.sent += 1
                kind, pid, version = self.choose_write(op.kind)
                job = loop.run_in_executor(
                    writer, self.apply, stack.cluster, epoch, kind, pid, version
                )
                writes.append((due, job))
                continue
            if ladder and outstanding > ABORT_BACKLOG:
                log.aborted = True
                break
            tally.sent += 1
            row, q = self.read_point()
            fut = self.send(stack.clients[self.next_request % CONNECTIONS], q)
            outstanding += 1
            fut.add_done_callback(answered)
            reads.append((op.due_s, due, now, row, fut))

        for due, job in writes:
            write = await job
            if not write.ok:
                tally.failed += 1
                continue
            tally.ok += 1
            log.writes.append((due - start, 1e3 * (write.end - due)))
        versions, started, swapped = stack.epochs(self)
        for due_s, due, sent, row, fut in reads:
            try:
                done, reply = await asyncio.wait_for(fut, ANSWER_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError):
                tally.failed += 1
                log.reads.append((due_s, MISSED_MS))
                continue
            error = reply.get("error")
            if error is not None or reply.get("approximate") or not reply.get("ids"):
                if error == "overloaded":
                    tally.refused += 1
                else:
                    tally.failed += 1
                log.reads.append((due_s, MISSED_MS))
                continue
            tally.ok += 1
            log.reads.append((due_s, 1e3 * (done - due)))
            # Replicas serve published epochs only: at least the last one
            # swapped in before the send, at most the last one begun
            # before the reply.
            lo = bisect.bisect_right(swapped, sent) - 1
            hi = bisect.bisect_right(started, done) - 1
            candidates = versions[lo : max(lo, hi) + 1]
            self.record(row, reply["ids"][0], reply["distances"][0], candidates)
            if wire is not None:
                server = 1e3 * reply["latency_s"]
                wire["server"].append(server)
                wire["wire"].append(1e3 * (done - sent) - server)
        return log


async def _run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    serving = Serving(seed, workdir)
    config = ServeConfig(replicas=1, cache_slots=CACHE_SLOTS)
    setups, builds = [], []
    stack = None
    for __ in range(SETUPS):
        if stack is not None:
            await stack.close()
        stack, ready, built = await serving.stack(config)
        setups.append(ready)
        builds.append(built)
    out.phase("setup").sent = out.phase("setup").ok = SETUPS

    wire: dict = {"server": [], "wire": []}
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="writer") as writer:
        try:
            first_batch = len(stack.batches)
            name = "untraced" if trace else "nominal"
            nominal_s = seconds * UNTRACED_SHARE if trace else seconds
            nominal = await serving.phase(stack, writer, out, name, RATE, nominal_s, wire)
            batches = stack.batches[first_batch:]
            out.notes.append(nominal.line())
            steps = [nominal]
            for mult in LADDER if trace else ():
                rate = RATE * mult
                step_s = seconds * LADDER_SHARE / len(LADDER)
                name = f"ladder-{rate:.0f}"
                step = serving.phase(stack, writer, out, name, rate, step_s, ladder=True)
                steps.append(await step)
                out.notes.append(steps[-1].line())
                if ladder_over(steps):
                    break
        finally:
            await stack.close()

        if not trace:
            out.put("setup_s", median(setups), "s")
            out.put("join_s", median([b[0] for b in batches]), "s")
            out.put("read_p50_ms", nominal.p50, "ms")
            out.put("write_mean_ms", nominal.write_mean, "ms")
            out.put("rss_peak_mb", rss_peak_mb(), "MiB")
        else:
            out.put("bench.read_p99_ms", nominal.p99, "ms")
            out.put("bench.read_capacity_rps", capacity_of(steps), "1/s")
            traced_s = seconds * (1 - UNTRACED_SHARE - LADDER_SHARE)
            await _traced(serving, config, writer, out, traced_s, nominal, batches, builds)

    wrong = serving.oracle_wrong()
    out.phase("oracle").wrong = wrong
    out.notes.append(f"  oracle checked {len(serving.rows)} reads, {wrong} wrong")
    return out


async def _traced(
    serving: Serving,
    config: ServeConfig,
    writer: ThreadPoolExecutor,
    out: Outcome,
    seconds: float,
    untraced: PhaseLog,
    untraced_batches: list,
    builds: list[float],
) -> None:
    """The traced half of a ``--trace 1`` run: a fresh cluster whose
    front-end records into a Tracer."""
    stack, __, __ = await serving.stack(config.replace(trace=Tracer()))
    wire: dict = {"server": [], "wire": []}
    try:
        traced = await serving.phase(stack, writer, out, "traced", RATE, seconds, wire)
        replicas = stack.cluster.stats()
    finally:
        await stack.close()
    out.notes.append(traced.line())
    batches = stack.batches[1:]  # the first answered the readiness query
    n = max(len(batches), 1)

    def stat(key: str) -> float:
        return sum(info["stats"][key] for __, info in batches) / n

    writes = serving.writes[stack.first_write :]
    write_ms = [(w.compacted, 1e3 * (w.end - w.start)) for w in writes]
    counters = stack.frontend.counters
    shared = sum(r["io"]["shared_cache_hits"] for r in replicas)
    shared_lookups = shared + sum(r["io"]["shared_cache_misses"] for r in replicas)
    batch_s = [b[0] for b in batches]
    evals, misses = stat("distance_evaluations"), stat("page_misses")
    out.put("index.build_s", median(builds), "s")
    out.put("index.write_ms", median([ms for c, ms in write_ms if not c]), "ms")
    out.put("core.distance_evals", evals, "count")
    out.put("core.node_expansions", stat("node_expansions"), "count")
    out.put("core.pairs_per_eval", ratio(counters.answered, n * evals), "ratio")
    out.put("storage.logical_reads", stat("logical_reads"), "count")
    out.put("storage.page_misses", misses, "count")
    out.put("storage.pool_hit_rate", 1.0 - ratio(misses, stat("logical_reads")), "ratio")
    hits, cold = stat("node_cache_hits"), stat("node_cache_misses")
    out.put("storage.node_cache_hit_rate", ratio(hits, hits + cold), "ratio")
    out.put("serve.server_ms", median(wire["server"]), "ms")
    out.put("serve.wire_ms", median(wire["wire"]), "ms")
    out.put("serve.replica_batch_ms", 1e3 * median(batch_s), "ms")
    out.put("serve.batch_mean", ratio(counters.answered, counters.batches), "count")
    out.put("serve.publish_ms", median([ms for c, ms in write_ms if c]), "ms")
    out.put("serve.shared_cache_hit_rate", ratio(shared, shared_lookups), "ratio")
    out.put("bench.late_p99_ms", percentile(traced.late_ms, 99), "ms")
    batch_delta = median(batch_s) - median([b[0] for b in untraced_batches])
    out.put("bench.trace_overhead.join_s", batch_delta, "s")
    out.put("bench.trace_overhead.read_p50_ms", traced.p50 - untraced.p50, "ms")
    out.put("bench.trace_overhead.read_p99_ms", traced.p99 - untraced.p99, "ms")
    write_delta = traced.write_mean - untraced.write_mean
    out.put("bench.trace_overhead.write_mean_ms", write_delta, "ms")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_ROOT))
    try:
        return asyncio.run(_run(seed, seconds, trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
