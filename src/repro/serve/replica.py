"""Replica workers: mapped-epoch query engines behind a message pipe.

A replica is one process (or, for deterministic tests, one thread) that
maps a published epoch artifact read-only, optionally plugs into the
cluster's :class:`~repro.serve.shared_cache.SharedNodeCache`, and
answers micro-batched flushes with **exactly** the single-process flush
path — :func:`repro.service.engine.execute_pinned` over bit-identical
pages — which is what makes non-degraded serve answers bit-identical to
:class:`~repro.service.service.AnnService` by construction, not by
testing alone.

The wire protocol is a strict request/reply alternation over one
``multiprocessing.Pipe`` (every command earns exactly one reply, so the
replica's flush worker needs no framing):

==============================  =========================================
command                         reply
==============================  =========================================
``("batch", id, reqs, now_s)``  ``("answers", id, answers, info)``
``("swap", epoch_dir)``         ``("swapped", replica_id, epoch)``
``("stats",)``                  ``("stats", replica_id, counters)``
``("ping",)``                   ``("pong", replica_id, epoch)``
``("stop",)``                   ``("stopped", replica_id)``
==============================  =========================================

Hot swap: when the writer publishes a new epoch the cluster broadcasts
``swap`` with the new artifact directory; the replica maps it, rebinds
the shared cache under the new epoch namespace (old-epoch entries can
never alias — the namespace is part of the key), and answers every
later batch from the new epoch.  In-flight batches finished on the old
mapping first: the pipe serialises commands, so a swap never lands
mid-flush.

Spawn discipline: replica processes always start from an explicit
``multiprocessing.get_context("spawn")`` — never the platform default —
because the cluster parent runs flush-worker threads, and forking a
threaded process deadlocks allocator/lock state.  The FORK-001
analyzer rule holds this package to that.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

from ..index.base import PagedIndex
from ..index.delta import EMPTY_DELTA
from ..service.config import ServiceConfig
from ..service.engine import execute_pinned
from ..service.request import Request
from ..storage.mapped import load_epoch_spec, map_manager, read_epoch_meta
from ..storage.versioning import IndexVersion
from .shared_cache import SharedCacheHandle, SharedNodeCache

__all__ = [
    "ReplicaHandle",
    "ReplicaSpec",
    "load_epoch_version",
    "replica_main",
]


def load_epoch_version(
    path: str,
    pool_pages: int,
    node_cache_entries: int,
    shared_cache: SharedNodeCache | None = None,
) -> IndexVersion:
    """Map a published epoch directory into a servable ``IndexVersion``.

    The returned version has ``snapshot=None`` (zero-copy: the pages live
    in the artifact file, not in this process); every flush mode serves
    it.
    """
    meta = read_epoch_meta(path)
    manager = map_manager(
        path, pool_pages=pool_pages, node_cache_entries=node_cache_entries
    )
    spec = load_epoch_spec(path)
    index = PagedIndex.attach(spec, manager)
    if shared_cache is not None:
        # Namespace by epoch number: stable across processes (unlike the
        # NodeFile's per-process uid) and distinct across swaps.
        index.file.bind_shared_cache(shared_cache, namespace=meta.epoch)
        manager.bind_shared_cache(shared_cache)
    return IndexVersion(
        epoch=meta.epoch,
        snapshot=None,
        spec=spec,
        manager=manager,
        index=index,
        size=meta.size,
    )


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica needs to boot, shippable in spawn arguments.

    ``cache`` (when present) carries a ``multiprocessing.Lock``, which
    pickles through ``Process`` argument inheritance but not over a pipe
    — so specs travel at spawn time only, never in the message protocol.
    """

    replica_id: int
    epoch_dir: str
    config: ServiceConfig
    cache: SharedCacheHandle | None
    pool_pages: int
    node_cache_entries: int


def replica_main(spec: ReplicaSpec, conn: Connection) -> None:
    """The replica loop: serve commands until ``stop`` or pipe EOF."""
    cache = SharedNodeCache.attach(spec.cache) if spec.cache is not None else None
    batches = 0
    answered = 0
    degraded = 0
    swaps = 0
    try:
        # Inside the try: a replica that cannot map its epoch closes the
        # pipe, so the parent's readiness ping sees EOF instead of hanging.
        version = load_epoch_version(
            spec.epoch_dir, spec.pool_pages, spec.node_cache_entries, cache
        )
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            if op == "batch":
                __, batch_id, requests, now_s = msg
                outcome = execute_pinned(
                    spec.config, requests, now_s, version, EMPTY_DELTA
                )
                batches += 1
                answered += len(outcome.answers)
                degraded += outcome.n_degraded
                info = {
                    "mode": outcome.mode,
                    "n_exact": outcome.n_exact,
                    "n_degraded": outcome.n_degraded,
                    "epoch": version.epoch,
                    "stats": outcome.stats.as_dict(),
                }
                conn.send(("answers", batch_id, outcome.answers, info))
            elif op == "swap":
                __, epoch_dir = msg
                version = load_epoch_version(
                    epoch_dir, spec.pool_pages, spec.node_cache_entries, cache
                )
                swaps += 1
                conn.send(("swapped", spec.replica_id, version.epoch))
            elif op == "stats":
                counters: dict[str, Any] = {
                    "replica_id": spec.replica_id,
                    "epoch": version.epoch,
                    "batches": batches,
                    "answered": answered,
                    "degraded": degraded,
                    "swaps": swaps,
                    "io": dict(version.manager.io_snapshot()),
                }
                conn.send(("stats", spec.replica_id, counters))
            elif op == "ping":
                conn.send(("pong", spec.replica_id, version.epoch))
            elif op == "stop":
                conn.send(("stopped", spec.replica_id))
                break
            else:
                conn.send(("error", spec.replica_id, f"unknown command {op!r}"))
    finally:
        if cache is not None:
            cache.close()
        conn.close()


class ReplicaHandle:
    """Parent-side handle on one replica: its pipe end and its lifetime.

    Two modes share the same protocol:

    * **process** (default) — a spawned ``multiprocessing.Process``
      running :func:`replica_main`; the real serving topology.
    * **inline** — a daemon thread running the same loop over an
      in-process pipe.  Deterministic and debuggable; most tests use
      it, so protocol behaviour is pinned without paying process
      startup per test.
    """

    def __init__(self, spec: ReplicaSpec, inline: bool = False) -> None:
        self.spec = spec
        self.inline = inline
        self._proc: Any = None
        self._thread: threading.Thread | None = None
        self.conn: Connection | None = None
        # Serialises whole request/reply exchanges: the replica's flush
        # worker and the cluster's swap broadcast share this pipe,
        # and the protocol is a strict alternation — interleaving two
        # commands before either reply would cross the replies.
        self._pipe_lock = threading.Lock()  # guards conn send/recv pairing

    @property
    def replica_id(self) -> int:
        return self.spec.replica_id

    def start(self) -> None:
        if self.conn is not None:
            raise RuntimeError("replica already started")
        if self.inline:
            parent_conn, child_conn = multiprocessing.get_context("spawn").Pipe()
            self._thread = threading.Thread(
                target=replica_main,
                args=(self.spec, child_conn),
                name=f"replica-{self.spec.replica_id}",
                daemon=True,
            )
            self._thread.start()
        else:
            ctx = multiprocessing.get_context("spawn")
            parent_conn, child_conn = ctx.Pipe()
            self._proc = ctx.Process(
                target=replica_main,
                args=(self.spec, child_conn),
                name=f"replica-{self.spec.replica_id}",
                daemon=True,
            )
            self._proc.start()
            # The child holds its own copy; keeping ours open would mask
            # EOF when the replica dies.
            child_conn.close()
        self.conn = parent_conn

    # -- protocol ------------------------------------------------------------

    def request(self, *msg: Any) -> tuple[Any, ...]:
        """Send one command and block for its single reply."""
        with self._pipe_lock:
            if self.conn is None:
                raise RuntimeError("replica not started")
            self.conn.send(msg)
            return tuple(self.conn.recv())

    def query(
        self, batch_id: int, requests: list[Request], now_s: float
    ) -> tuple[dict[int, Any], dict[str, Any]]:
        """Convenience wrapper: one batch in, ``(answers, info)`` out."""
        reply = self.request("batch", batch_id, requests, now_s)
        if reply[0] != "answers" or reply[1] != batch_id:
            raise RuntimeError(f"protocol violation: {reply[:2]!r}")
        return reply[2], reply[3]

    def swap(self, epoch_dir: str) -> int:
        """Hot-swap to a new epoch artifact; returns the new epoch."""
        reply = self.request("swap", epoch_dir)
        return int(reply[2])

    def stats(self) -> dict[str, Any]:
        reply = self.request("stats")
        return dict(reply[2])

    def ping(self) -> int:
        """Round-trip liveness probe; returns the replica's epoch."""
        reply = self.request("ping")
        return int(reply[2])

    # -- lifetime ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        if self.inline:
            return self._thread is not None and self._thread.is_alive()
        return self._proc is not None and self._proc.is_alive()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown: ``stop`` command, then join."""
        if self.conn is None:
            return
        if self.alive:
            try:
                self.request("stop")
            except (BrokenPipeError, EOFError, OSError):
                pass  # already dead; join below still reaps it
        self.join(timeout_s)

    def kill(self) -> None:
        """Hard-kill the worker (crash-injection for failover tests)."""
        if self.inline:
            raise RuntimeError("inline replicas cannot be killed")
        if self._proc is not None:
            self._proc.kill()

    def join(self, timeout_s: float = 10.0) -> None:
        if self.inline:
            if self._thread is not None:
                self._thread.join(timeout=timeout_s)
        elif self._proc is not None:
            self._proc.join(timeout=timeout_s)
        if self.conn is not None:
            self.conn.close()
            self.conn = None
