"""Asyncio front-end: an ndjson socket adapter over one :class:`AnnService`.

The serving policy — quotas, bounded admission, deadline shedding,
coalescing, flush workers, failover — is the service's
(:mod:`repro.service.service`); a :class:`~repro.serve.cluster.
ReplicaCluster` is a service whose flush workers are replicas.  The
front-end only bridges it to asyncio: :meth:`Frontend.submit` admits
through ``AnnService.submit`` and awaits the ticket, which the flush
worker that answered it hands back with ``call_soon_threadsafe``;
:meth:`Frontend.serve` binds the same path to newline-delimited JSON;
:meth:`Frontend.drain` is the graceful exit.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from typing import Any

from ..service.queueing import Overloaded, ServiceClosed
from ..service.request import Answer, PendingRequest
from ..service.service import AnnService, ServiceCounters

__all__ = ["DRAIN_TIMEOUT_S", "Frontend"]

DRAIN_TIMEOUT_S = 10.0
"""Upper bound on :meth:`Frontend.drain`'s wait for in-flight requests."""


class Frontend:
    """The asyncio serving surface over one :class:`AnnService`.

    Use as an async context manager (or call :meth:`start` / :meth:`drain`
    explicitly).  :meth:`submit` is the programmatic client;
    :meth:`serve` binds the same path to a TCP socket speaking
    newline-delimited JSON.
    """

    def __init__(self, service: AnnService) -> None:
        self.service = service
        self._inflight: set[asyncio.Future[Answer]] = set()
        self._draining = False
        self._server: asyncio.base_events.Server | None = None

    @property
    def counters(self) -> ServiceCounters:
        """The service's counters (readable after :meth:`drain`)."""
        return self.service.counters

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the service's flush workers."""
        self.service.start()

    async def __aenter__(self) -> "Frontend":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    # -- admission -----------------------------------------------------------

    async def submit(
        self,
        point: Any,
        k: int = 1,
        client: str = "default",
        deadline_ms: float | None = None,
    ) -> Answer:
        """Admit (or shed) one query and await its answer.

        ``deadline_ms`` is relative to admission, as in
        :meth:`AnnService.submit`; ``None`` applies the config default.
        """
        if self._draining:
            raise ServiceClosed(-1)
        if deadline_ms is None:
            deadline_ms = self.service.config.deadline_ms
        ticket = self.service.submit(point, k, deadline_ms, client)
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Answer] = loop.create_future()
        self._inflight.add(future)
        ticket.add_done_callback(partial(_handoff, loop, future))
        try:
            return await future
        finally:
            self._inflight.discard(future)

    # -- drain ---------------------------------------------------------------

    async def drain(self) -> dict[str, Any]:
        """Graceful exit: stop admissions, finish in-flight, close.

        Returns ``{"service": ..., "replica": ...}`` (``replica`` for a
        cluster only) — the sections the trace artifact carries.
        """
        self._draining = True
        if self._inflight:
            await asyncio.wait(set(self._inflight), timeout=DRAIN_TIMEOUT_S)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        return await asyncio.to_thread(self.service.close)

    # -- the socket surface --------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the ndjson TCP endpoint; returns the bound ``(host, port)``.

        Protocol, one JSON object per line:

        * ``{"op": "query", "point": [...], "k": 3, "deadline_ms": 50}``
          → ``{"ids": [...], "distances": [...], "approximate": false,
          "latency_s": ...}``.  ``k`` defaults to 1; ``deadline_ms`` is
          relative to admission and defaults to the service config's.
        * ``{"op": "stats"}`` → ``{"service": <the service counters>}``
        * shed by quota, capacity or deadline → ``{"error": "overloaded"}``;
          draining or no live worker → ``{"error": "closed"}``
        * a malformed request (not an object, bad point, bad ``k``) →
          ``{"error": "bad request: ..."}``; the connection stays open.
        * a line past the stream limit → ``{"error": "bad request: line
          too long"}``, then the connection closes: the rest of that line
          is still in flight, so the stream cannot be resynchronised.

        Every reply to an object line echoes its ``"id"`` field when
        present.
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
        reply: dict[str, Any] = {}
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise TypeError(f"expected a JSON object, got {type(msg).__name__}")
            if "id" in msg:
                reply["id"] = msg["id"]
            op = msg.get("op")
            if op == "query":
                answer = await self.submit(
                    msg["point"], msg.get("k", 1), client, msg.get("deadline_ms")
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
        except Overloaded:
            reply["error"] = "overloaded"
        except ServiceClosed:
            reply["error"] = "closed"
        except (KeyError, ValueError, TypeError) as exc:
            reply["error"] = f"bad request: {exc}"
        return reply


def _handoff(
    loop: asyncio.AbstractEventLoop, future: asyncio.Future[Answer], ticket: PendingRequest
) -> None:
    """Settle ``future`` from the completed ``ticket`` (flush-worker thread)."""
    try:
        loop.call_soon_threadsafe(_settle, future, ticket)
    except RuntimeError:
        pass  # the loop is closed, so nothing awaits the future any more


def _settle(future: asyncio.Future[Answer], ticket: PendingRequest) -> None:
    if future.done():
        return
    try:
        future.set_result(ticket.result(0))
    except Exception as exc:  # the ticket's own failure
        future.set_exception(exc)
