"""The online ANN query service: queue → coalescer → batched MBA.

:class:`AnnService` is the long-lived, in-process front door.  Callers
:meth:`submit` single-point (k-)NN requests (or small point sets via
:meth:`submit_many`) and receive a :class:`~repro.service.request.
PendingRequest` ticket; the service coalesces admitted requests under
the ``max_batch`` / ``max_delay_ms`` window and answers each flush with
one batched MBA traversal (:class:`~repro.service.engine.BatchEngine`)
over a read-only snapshot of the target dataset.

Two driving modes share every code path except who calls the pump:

* **Threaded** (:meth:`start` / ``with service.serving():`` / the CLI's
  ``serve``): a worker thread sleeps on a condition variable until the
  window policy ripens and flushes in the background; callers block on
  ``ticket.result()``.
* **Manual** (:meth:`pump`): the owner drives flushes explicitly — how
  the deterministic tests and the fake-clock load generator run, and
  what :meth:`query` uses when no worker is running.

Backpressure is explicit: :meth:`submit` raises
:class:`~repro.service.queueing.Overloaded` when the bounded queue is
full — the queue can never exceed ``queue_capacity``.  Deadlines degrade
gracefully: a request past its deadline at flush time gets its current
best candidates from a budgeted browse, flagged ``approximate=True``.

With ``config.trace`` set, every flush records a ``batch`` span with
queue-wait / coalesce / traverse / degrade stage attribution, and the
closing :meth:`close` writes the artifact with a ``service`` counter
section (see :mod:`repro.obs.schema`).
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, fields
from typing import Any, ContextManager, Iterator

import numpy as np

from ..core.stats import QueryStats
from .clock import Clock, SystemClock
from .config import ServiceConfig
from .engine import BatchEngine
from .queueing import MicroBatchQueue, Overloaded, ServiceClosed
from .request import Answer, PendingRequest, Request, check_query

__all__ = ["AnnService", "ServiceCounters", "BatchReport"]

_UNSET = object()
"""Sentinel distinguishing "no deadline_ms argument" from an explicit
``None`` (which disables the config default for one request)."""


@dataclass
class ServiceCounters:
    """Whole-lifetime service counters (the trace ``service`` section)."""

    submitted: int = 0
    answered: int = 0
    rejected: int = 0
    cancelled: int = 0
    """Requests admitted but still queued at close, failed with
    :class:`~repro.service.queueing.ServiceClosed`."""
    degraded: int = 0
    inserts: int = 0
    deletes: int = 0
    compactions: int = 0
    batches: int = 0
    singleton_flushes: int = 0
    batched_flushes: int = 0
    degraded_flushes: int = 0
    max_queue_len: int = 0
    queue_wait_s: float = 0.0
    busy_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class BatchReport:
    """What one flush did — the pump's return value, and the load
    generator's costing unit."""

    batch_size: int
    mode: str
    n_exact: int
    n_degraded: int
    queue_wait_s: float
    """Summed queue wait of the flushed requests (service clock)."""
    flushed_at_s: float
    stats: QueryStats


class AnnService:
    """Long-lived micro-batching ANN service over a *versioned* dataset.

    Reads ride immutable per-epoch snapshots; :meth:`insert` /
    :meth:`delete` land in the engine's delta index and are visible from
    the next flush, with automatic compaction (a zero-downtime epoch
    hot-swap) every ``compact_threshold`` pending operations.
    """

    def __init__(
        self,
        points: np.ndarray,
        config: ServiceConfig | None = None,
        *,
        point_ids: np.ndarray | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.engine = BatchEngine(points, self.config, point_ids=point_ids)
        self.counters = ServiceCounters()
        self.total_stats = QueryStats()
        self._queue = MicroBatchQueue(  # guarded-by: _cond
            self.config.queue_capacity, self.config.max_batch, self.config.max_delay_s
        )
        self._cond = threading.Condition()
        self._next_id = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self._worker: threading.Thread | None = None  # guarded-by: _cond
        # Tracing is wired for the whole service lifetime: the storage
        # source stays bound so every batch span carries pool/disk deltas.
        from ..obs.tracer import TraceSession

        self._session = TraceSession(self.config.trace)
        self._scope = ExitStack()
        if self._session.tracer is not None:
            # Bind the engine's delegating callable, not one manager's
            # bound method: compaction hot-swaps the storage manager per
            # epoch and the trace source must follow the live one.
            self._scope.enter_context(
                self._session.tracer.source("storage", self.engine.layer_counters)
            )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        point: np.ndarray,
        k: int = 1,
        deadline_ms: Any = _UNSET,
    ) -> PendingRequest:
        """Admit one (k-)NN request; returns the ticket to wait on.

        Raises :class:`Overloaded` when the queue is at capacity and
        ``RuntimeError`` after :meth:`close`.  ``deadline_ms`` overrides
        the config default for this request (``None`` disables it).
        """
        point, k = check_query(point, k, self.engine.dims)
        effective_ms = self.config.deadline_ms if deadline_ms is _UNSET else deadline_ms
        if effective_ms is not None and effective_ms <= 0:
            raise ValueError(f"deadline_ms must be positive (or None), got {effective_ms}")
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            now = self.clock.now()
            request = Request(
                request_id=self._next_id,
                point=point,
                k=k,
                submitted_s=now,
                deadline_s=None if effective_ms is None else now + effective_ms / 1000.0,
            )
            try:
                pending = PendingRequest(request)
                self._queue.offer(pending)
            except Overloaded:
                self.counters.rejected += 1
                raise
            self._next_id += 1
            self.counters.submitted += 1
            self.counters.max_queue_len = max(self.counters.max_queue_len, len(self._queue))
            self._cond.notify_all()
            return pending

    def submit_many(
        self, points: np.ndarray, k: int = 1, deadline_ms: Any = _UNSET
    ) -> list[PendingRequest]:
        """Admit a small point-set ANN query (one ticket per point).

        All-or-nothing is deliberately *not* promised: admission is
        per-point, so an :class:`Overloaded` mid-set leaves the earlier
        points admitted (their tickets are attached to the exception as
        ``exc.admitted``) — the caller chooses to wait or abandon.
        """
        tickets: list[PendingRequest] = []
        for point in np.asarray(points, dtype=np.float64):
            try:
                tickets.append(self.submit(point, k=k, deadline_ms=deadline_ms))
            except Overloaded as exc:
                exc.admitted = tickets  # type: ignore[attr-defined]
                raise
        return tickets

    def query(
        self,
        point: np.ndarray,
        k: int = 1,
        deadline_ms: Any = _UNSET,
        timeout_s: float | None = 30.0,
    ) -> Answer:
        """Synchronous convenience: submit and wait for the answer.

        With a worker running, the request rides the normal coalescing
        window; without one, the queue is pumped inline until this
        request's batch has flushed (so a single-threaded caller is the
        ``B=1`` singleton mode unless others queued first).
        """
        ticket = self.submit(point, k=k, deadline_ms=deadline_ms)
        if self._worker is None:
            while not ticket.done():
                self.pump(force=True)
        return ticket.result(timeout_s)

    # -- pumping and flushing ------------------------------------------------

    def pump(self, force: bool = False) -> BatchReport | None:
        """Flush one batch if the window policy allows (manual mode).

        ``force=True`` flushes whatever is queued without waiting for
        the window — used by :meth:`query`, shutdown draining, and the
        CLI's one-shot mode.  Returns the flush's report, or ``None``
        when nothing was released.
        """
        with self._cond:
            batch = self._queue.take(self.clock.now(), force=force)
        if not batch:
            return None
        return self._flush(batch)

    def _flush(self, batch: list[PendingRequest]) -> BatchReport:
        """Execute one released batch and fulfil its tickets.

        Runs *outside* the queue lock: submissions keep flowing while a
        flush is traversing.  Only one flush runs at a time — the single
        worker thread (or the single manual pumper) is the serialisation.
        """
        tracer = self._session.tracer
        now = self.clock.now()
        waits = [max(0.0, now - p.request.submitted_s) for p in batch]

        def span() -> ContextManager[Any]:
            if tracer is None:
                return nullcontext()
            return tracer.span("batch", size=len(batch))

        try:
            with span():
                if tracer is not None:
                    tracer.stage_add("queue_wait", sum(waits), calls=len(batch))
                    tracer.stage_add(
                        "coalesce", max(waits) if waits else 0.0, calls=1
                    )
                outcome = self.engine.execute(
                    [p.request for p in batch], now, trace=tracer
                )
                if tracer is not None:
                    tracer.counter("service.batches", 1)
                    tracer.counter("service.degraded", outcome.n_degraded)
        except BaseException as exc:
            # A flush that dies must not leave its tickets blocking
            # forever (the old hang: a worker killed by an engine error
            # abandoned the whole batch).  Fail them deterministically,
            # then let the error surface.
            for pending in batch:
                if not pending.done():
                    pending.fail(exc)
            raise
        after = self.clock.now()
        for pending, wait in zip(batch, waits):
            ids, dists, approximate = outcome.answers[pending.request.request_id]
            pending.fulfil(
                Answer(
                    request_id=pending.request.request_id,
                    neighbor_ids=ids,
                    distances=dists,
                    approximate=approximate,
                    queue_wait_s=wait,
                    latency_s=max(0.0, after - pending.request.submitted_s),
                    batch_size=len(batch),
                )
            )
        counters = self.counters
        counters.batches += 1
        counters.answered += len(batch)
        counters.degraded += outcome.n_degraded
        counters.queue_wait_s += sum(waits)
        counters.busy_s += max(0.0, after - now)
        mode_field = f"{outcome.mode}_flushes"
        setattr(counters, mode_field, getattr(counters, mode_field) + 1)
        self.total_stats.merge(outcome.stats)
        return BatchReport(
            batch_size=len(batch),
            mode=outcome.mode,
            n_exact=outcome.n_exact,
            n_degraded=outcome.n_degraded,
            queue_wait_s=sum(waits),
            flushed_at_s=now,
            stats=outcome.stats,
        )

    # -- the write path ------------------------------------------------------

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Insert one point into the served dataset, visible immediately.

        The point lands in the engine's delta index; queries from the
        very next flush include it.  Once ``compact_threshold``
        operations are pending, the delta is folded into a freshly built
        base index published as a new epoch — a zero-downtime hot swap
        (in-flight flushes finish on their pinned epoch).
        """
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.engine.dims,):
            raise ValueError(
                f"point must have shape ({self.engine.dims},), got {point.shape}"
            )
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
        self.engine.insert(point, point_id)
        with self._cond:
            self.counters.inserts += 1
        self._maybe_compact()

    def delete(self, point_id: int) -> bool:
        """Delete one point by id; ``False`` when the id is not present.

        Deletion is a tombstone in the delta index masking the base
        point from the very next flush onward; compaction physically
        removes it.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
        if not self.engine.delete(point_id):
            return False
        with self._cond:
            self.counters.deletes += 1
        self._maybe_compact()
        return True

    def compact(self) -> int | None:
        """Force a compaction now; returns the new epoch (or ``None``)."""
        epoch = self.engine.compact()
        if epoch is not None:
            with self._cond:
                self.counters.compactions += 1
        return epoch

    def _maybe_compact(self) -> None:
        if self.engine.pending_ops >= self.config.compact_threshold:
            self.compact()

    # -- worker thread -------------------------------------------------------

    def start(self) -> None:
        """Start the background flush worker (threaded mode)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._worker is not None:
                raise RuntimeError("service worker already running")
            self._worker = threading.Thread(
                target=self._run_worker, name="repro-ann-service", daemon=True
            )
        self._worker.start()

    def _run_worker(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        # Prompt shutdown: stop flushing immediately.
                        # close() fails whatever is still queued with
                        # ServiceClosed — deterministic, never a hang.
                        return
                    batch = self._queue.take(self.clock.now())
                    if batch:
                        break
                    # Sleep until the oldest request's window ripens (or a
                    # submit/close notifies); an empty queue waits untimed.
                    self._cond.wait(self._queue.ripe_in_s(self.clock.now()))
            self._flush(batch)

    @contextmanager
    def serving(self) -> Iterator["AnnService"]:
        """``with service.serving():`` — start the worker, close on exit."""
        self.start()
        try:
            yield self
        finally:
            self.close()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker, fail the unflushed queue, finalise the trace.

        Idempotent, and every admitted request *completes* before close
        returns — answered if its batch already flushed, otherwise
        failed with :class:`~repro.service.queueing.ServiceClosed`
        (counted as ``cancelled``).  Shutdown is deliberately prompt
        rather than draining: a worker wedged or killed mid-flush used
        to leave queued tickets blocking forever; now their fate is
        deterministic regardless of how the worker died.  Callers who
        want their answers drain with :meth:`pump` (``force=True``) or
        wait on their tickets before closing.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            self._cond.notify_all()
        if worker is not None:
            worker.join()
            with self._cond:
                self._worker = None
        while True:
            with self._cond:
                batch = self._queue.take(self.clock.now(), force=True)
            if not batch:
                break
            for pending in batch:
                pending.fail(ServiceClosed(pending.request.request_id))
                with self._cond:
                    self.counters.cancelled += 1
        self._scope.close()
        self._session.finalize(
            meta={
                **self.config.describe(),
                "api": "AnnService",
                "n_target": self.engine.size,
                "dims": self.engine.dims,
            },
            totals=self.total_stats.as_dict(),
            service=self.counters.as_dict(),
        )

    def __enter__(self) -> "AnnService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        """Currently queued (admitted, unflushed) requests."""
        with self._cond:
            return len(self._queue)
