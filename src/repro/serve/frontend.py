"""Asyncio front-end: admission control, replica routing, load shedding.

The front-end is the cluster's single client-facing door.  Its job is
entirely *policy* — the data path is the replicas' — and the policy is
applied strictly **at admission**, before a request ever queues:

1. **Quota** — a per-client token bucket (``quota_rps`` refill,
   ``quota_burst`` depth).  Over-quota submissions shed immediately.
2. **Bounded admission** — at most ``admission_capacity`` requests may
   be admitted-but-unanswered across the whole front-end; the next one
   sheds with :class:`~repro.service.queueing.Overloaded` *before*
   queueing, never after (a request that waits and then fails stole
   capacity from one that could have succeeded).
3. **Deadline-aware shedding** — each lane keeps an EWMA of its batch
   service time; if the backlog already implies a wait longer than the
   request's deadline budget, admitting it would only manufacture a
   degraded answer, so it sheds up front instead.
4. **Least-loaded routing** — admitted requests go to the live lane
   with the fewest queued+in-flight requests.

Each replica gets one dispatcher task that drains its lane queue in
micro-batches of up to ``max_batch`` and runs the blocking pipe
round-trip in the default executor, so the event loop never blocks on a
replica.  A replica crash (pipe EOF) marks the lane dead and **reroutes**
everything it held — queued and in-flight — onto surviving lanes;
only when no lane survives do requests fail.  Answers are unaffected:
a rerouted request re-executes on an identical mapped epoch.

:meth:`Frontend.drain` is the graceful exit: admissions stop (new
submissions shed), in-flight work completes, per-replica counters are
gathered, and — when tracing — the trace artifact is written with the
front-end's lifetime counters in the ``service`` section and the fleet's
in the ``replica`` section.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, fields
from typing import Any

from ..service.queueing import Overloaded, ServiceClosed
from ..service.request import Answer, Request, check_query
from ..obs.tracer import TraceSession
from .cluster import ReplicaCluster
from .replica import ReplicaHandle

__all__ = ["Frontend", "ServeCounters", "TokenBucket"]

_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)

_EWMA_ALPHA = 0.2
"""Weight of the newest batch in a lane's service-time estimate."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` depth.

    ``now_fn`` is injectable so tests drive time deterministically; the
    front-end passes the event loop's monotonic clock.
    """

    __slots__ = ("rate", "burst", "tokens", "_last_s", "_now")

    def __init__(self, rate: float, burst: int, now_fn: Any) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._now = now_fn
        self.tokens = float(burst)
        self._last_s = float(now_fn())

    def allow(self) -> bool:
        """Spend one token if available; refill lazily from elapsed time."""
        now_s = float(self._now())
        self.tokens = min(
            float(self.burst), self.tokens + (now_s - self._last_s) * self.rate
        )
        self._last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class ServeCounters:
    """Lifetime front-end counters (the trace's ``service`` section)."""

    submitted: int = 0
    admitted: int = 0
    answered: int = 0
    degraded: int = 0
    shed_quota: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    rerouted: int = 0
    failed: int = 0
    batches: int = 0
    replica_deaths: int = 0

    def as_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass
class _Ticket:
    """One admitted request riding a lane: the request plus its future."""

    request: Request
    future: asyncio.Future
    client: str


@dataclass
class _Lane:
    """Per-replica dispatch state owned by the event loop (single-threaded
    asyncio: no lock needed — only executor round-trips leave the loop)."""

    handle: ReplicaHandle
    queue: list[_Ticket] = field(default_factory=list)
    inflight: int = 0
    ewma_batch_s: float | None = None
    dead: bool = False
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None

    @property
    def load(self) -> int:
        return len(self.queue) + self.inflight


class Frontend:
    """The asyncio serving surface over one :class:`ReplicaCluster`.

    Use as an async context manager (or call :meth:`start` / :meth:`drain`
    explicitly).  :meth:`submit` is the programmatic client;
    :meth:`serve` binds the same path to a TCP socket speaking
    newline-delimited JSON.
    """

    def __init__(self, cluster: ReplicaCluster) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.counters = ServeCounters()
        self._lanes: list[_Lane] = []
        self._buckets: dict[str, TokenBucket] = {}
        self._next_request_id = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._lanes:
            raise RuntimeError("frontend already started")
        for handle in self.cluster.replicas:
            lane = _Lane(handle=handle)
            lane.task = asyncio.create_task(
                self._dispatch(lane), name=f"dispatch-{handle.replica_id}"
            )
            self._lanes.append(lane)

    async def __aenter__(self) -> "Frontend":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    # -- admission -----------------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _alive_lanes(self) -> list[_Lane]:
        return [lane for lane in self._lanes if not lane.dead]

    def _estimated_wait_s(self, lane: _Lane) -> float:
        """Backlog batches × EWMA batch seconds (0 until first sample)."""
        if lane.ewma_batch_s is None or lane.load == 0:
            return 0.0
        backlog_batches = -(-lane.load // self.config.max_batch)  # ceil
        return backlog_batches * lane.ewma_batch_s

    def _admit(
        self, point: Any, k: int, client: str, deadline_s: float | None
    ) -> tuple[_Lane, _Ticket]:
        """The whole shed-or-admit decision; raises before any queueing."""
        point, k = check_query(point, k, self.cluster.engine.dims)
        self.counters.submitted += 1
        if self._draining:
            # Not yet admitted, so no request id exists to carry.
            raise ServiceClosed(-1)
        if self.config.quota_rps is not None:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(
                    self.config.quota_rps, self.config.quota_burst, self._now
                )
                self._buckets[client] = bucket
            if not bucket.allow():
                self.counters.shed_quota += 1
                raise Overloaded(self.config.admission_capacity)
        lanes = self._alive_lanes()
        if not lanes:
            self.counters.failed += 1
            raise ServiceClosed(-1)
        if sum(lane.load for lane in lanes) >= self.config.admission_capacity:
            self.counters.shed_overload += 1
            raise Overloaded(self.config.admission_capacity)
        lane = min(lanes, key=lambda ln: ln.load)
        now_s = self._now()
        if deadline_s is None and self.config.deadline_ms is not None:
            deadline_s = now_s + self.config.deadline_ms / 1000.0
        if deadline_s is not None:
            budget_s = deadline_s - now_s
            if self._estimated_wait_s(lane) > budget_s:
                self.counters.shed_deadline += 1
                raise Overloaded(self.config.admission_capacity)
        self.counters.admitted += 1
        request_id = self._next_request_id
        self._next_request_id += 1
        request = Request(
            request_id=request_id,
            point=point,
            k=k,
            submitted_s=now_s,
            deadline_s=deadline_s,
        )
        ticket = _Ticket(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            client=client,
        )
        return lane, ticket

    async def submit(
        self,
        point: Any,
        k: int,
        client: str = "default",
        deadline_s: float | None = None,
    ) -> Answer:
        """Admit (or shed) one query and await its answer."""
        lane, ticket = self._admit(point, k, client, deadline_s)
        self._enqueue(lane, ticket)
        return await ticket.future

    def _enqueue(self, lane: _Lane, ticket: _Ticket) -> None:
        lane.queue.append(ticket)
        lane.wakeup.set()
        self._idle.clear()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, lane: _Lane) -> None:
        """One replica's pump: drain the lane queue in micro-batches."""
        batch_id = 0
        while True:
            if lane.dead:
                return
            if not lane.queue:
                lane.wakeup.clear()
                self._check_idle()
                await lane.wakeup.wait()
                continue
            batch = lane.queue[: self.config.max_batch]
            del lane.queue[: len(batch)]
            lane.inflight += len(batch)
            batch_id += 1
            await self._run_batch(lane, batch_id, batch)
            lane.inflight -= len(batch)
            self._check_idle()

    async def _run_batch(
        self, lane: _Lane, batch_id: int, batch: list[_Ticket]
    ) -> None:
        requests = [t.request for t in batch]
        now_s = self._now()
        loop = asyncio.get_running_loop()
        try:
            answers, info = await loop.run_in_executor(
                None, lane.handle.query, batch_id, requests, now_s
            )
        except _PIPE_ERRORS:
            self._lane_died(lane, batch)
            return
        elapsed = self._now() - now_s
        lane.ewma_batch_s = (
            elapsed
            if lane.ewma_batch_s is None
            else (1.0 - _EWMA_ALPHA) * lane.ewma_batch_s + _EWMA_ALPHA * elapsed
        )
        self.counters.batches += 1
        done_s = self._now()
        for ticket in batch:
            ids, dists, approximate = answers[ticket.request.request_id]
            answer = Answer(
                request_id=ticket.request.request_id,
                neighbor_ids=ids,
                distances=dists,
                approximate=approximate,
                queue_wait_s=now_s - ticket.request.submitted_s,
                latency_s=done_s - ticket.request.submitted_s,
                batch_size=len(batch),
            )
            self.counters.answered += 1
            if approximate:
                self.counters.degraded += 1
            if not ticket.future.done():
                ticket.future.set_result(answer)

    def _lane_died(self, lane: _Lane, inflight: list[_Ticket]) -> None:
        """Crash path: retire the lane, reroute everything it held."""
        lane.dead = True
        lane.wakeup.set()  # unblock its dispatcher so it can exit
        self.counters.replica_deaths += 1
        stranded = inflight + lane.queue
        lane.queue = []
        survivors = self._alive_lanes()
        for ticket in stranded:
            if ticket.future.done():
                continue
            if survivors:
                target = min(survivors, key=lambda ln: ln.load)
                self.counters.rerouted += 1
                self._enqueue(target, ticket)
            else:
                self.counters.failed += 1
                ticket.future.set_exception(
                    ServiceClosed(ticket.request.request_id)
                )
        self._check_idle()

    def _check_idle(self) -> None:
        if all(lane.load == 0 for lane in self._lanes):
            self._idle.set()

    # -- drain and stats -----------------------------------------------------

    async def drain(self) -> dict[str, Any]:
        """Graceful exit: stop admissions, finish in-flight, snapshot.

        Returns ``{"service": ..., "replica": ...}`` — the same two
        sections the trace artifact carries.
        """
        self._draining = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            pass  # report what we have; dispatchers are cancelled below
        for lane in self._lanes:
            if lane.task is not None:
                lane.task.cancel()
        await asyncio.gather(
            *(lane.task for lane in self._lanes if lane.task is not None),
            return_exceptions=True,
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        replica_section = await self._replica_section()
        service_section = self.counters.as_dict()
        session = TraceSession(self.config.trace)
        if session.active:
            session.finalize(
                meta={"component": "repro.serve", **_flatten_meta(self.config)},
                service=service_section,
                replica=replica_section,
            )
        return {"service": service_section, "replica": replica_section}

    async def _replica_section(self) -> dict[str, dict[str, float]]:
        """Per-replica counters, flattened for the trace schema."""
        loop = asyncio.get_running_loop()
        section: dict[str, dict[str, float]] = {}
        for lane in self._lanes:
            name = f"replica-{lane.handle.replica_id}"
            if lane.dead:
                section[name] = {"dead": 1.0}
                continue
            try:
                stats = await loop.run_in_executor(None, lane.handle.stats)
            except _PIPE_ERRORS:
                section[name] = {"dead": 1.0}
                continue
            flat: dict[str, float] = {"dead": 0.0}
            for key, value in stats.items():
                if key == "io":
                    for io_key, io_value in value.items():
                        flat[f"io.{io_key}"] = float(io_value)
                elif key != "replica_id":
                    flat[key] = float(value)
            section[name] = flat
        return section

    # -- the socket surface --------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the ndjson TCP endpoint; returns the bound ``(host, port)``.

        Protocol, one JSON object per line:

        * ``{"op": "query", "point": [...], "k": 3}`` →
          ``{"ids": [...], "distances": [...], "approximate": false}``
        * ``{"op": "stats"}`` → the front-end counters
        * shed/closed → ``{"error": "overloaded" | "closed"}``
        * a line past the stream limit → ``{"error": "bad request: line
          too long"}``, then the connection closes: the rest of that line
          is still in flight, so the stream cannot be resynchronised.

        Every reply echoes the request's ``"id"`` field when present.
        """
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran the reader's limit
                    writer.write(b'{"error": "bad request: line too long"}\n')
                    await writer.drain()
                    break
                if not line:
                    break
                reply = await self._handle_line(line, client)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except ConnectionResetError:
            pass
        finally:
            writer.close()

    async def _handle_line(self, line: bytes, client: str) -> dict[str, Any]:
        try:
            msg = json.loads(line)
            op = msg.get("op")
            reply: dict[str, Any] = {}
            if "id" in msg:
                reply["id"] = msg["id"]
            if op == "query":
                answer = await self.submit(
                    msg["point"],
                    msg.get("k", 1),
                    client=client,
                    deadline_s=msg.get("deadline_s"),
                )
                reply.update(
                    ids=list(answer.neighbor_ids),
                    distances=list(answer.distances),
                    approximate=answer.approximate,
                    latency_s=answer.latency_s,
                )
            elif op == "stats":
                reply.update(service=self.counters.as_dict())
            else:
                reply.update(error=f"unknown op {op!r}")
            return reply
        except Overloaded:
            return {"error": "overloaded", **_echo_id(line)}
        except ServiceClosed:
            return {"error": "closed", **_echo_id(line)}
        except (KeyError, ValueError, TypeError) as exc:
            return {"error": f"bad request: {exc}"}


def _echo_id(line: bytes) -> dict[str, Any]:
    try:
        msg = json.loads(line)
        return {"id": msg["id"]} if "id" in msg else {}
    except (ValueError, TypeError):
        return {}


def _flatten_meta(config: Any) -> dict[str, Any]:
    """ServeConfig.describe() flattened to scalars (trace meta is flat)."""
    out: dict[str, Any] = {}
    for key, value in config.describe().items():
        if isinstance(value, dict):
            for sub_key, sub_value in value.items():
                if isinstance(sub_value, (str, int, float, bool, type(None))):
                    out[f"{key}.{sub_key}"] = sub_value
        else:
            out[key] = value
    return out
