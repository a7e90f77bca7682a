"""The online ANN query service: admission → coalescer → flush workers.

:class:`AnnService` is the one serving pipeline (drawn in
:mod:`repro.service`): :meth:`AnnService.submit` admits or sheds each
request and returns a :class:`~repro.service.request.PendingRequest`
ticket, admitted requests coalesce in one
:class:`~repro.service.queueing.MicroBatchQueue`, and each flush worker
— one thread, pulling the next batch when idle — answers a batch with
one batched MBA traversal.  Here the one worker runs the in-process
:class:`~repro.service.engine.BatchEngine`;
:class:`~repro.serve.cluster.ReplicaCluster` overrides
:meth:`AnnService._execute` so that its workers are replica processes.
A worker whose executor dies puts its batch back at the head of the
queue (``rerouted``); once no worker survives, queued tickets fail with
:class:`~repro.service.queueing.ServiceClosed`.

Two driving modes share every code path except who calls the pump:

* **Threaded** (:meth:`start` / ``with service.serving():`` / the CLI's
  ``serve``): the flush workers sleep on a condition variable until the
  window policy ripens and flush in the background; callers block on
  ``ticket.result()``.
* **Manual** (:meth:`pump`): the owner drives flushes explicitly — how
  the deterministic tests and the fake-clock load generator run, and
  what :meth:`query` uses when no worker is running.

Deadlines degrade gracefully: a request past its deadline at flush time
gets its current best candidates from a budgeted browse, flagged
``approximate=True``.  With ``config.trace`` set, every flush records a
``batch`` span with queue-wait / coalesce / traverse / degrade stage
attribution, and :meth:`close` writes the artifact with a ``service``
counter section (see :mod:`repro.obs.schema`); a cluster adds its
``replica`` section.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterator

import numpy as np

from ..core.stats import QueryStats
from .clock import Clock, SystemClock
from .config import ServiceConfig
from .engine import BatchEngine, FlushOutcome
from .queueing import MicroBatchQueue, Overloaded, ServiceClosed, TokenBucket
from .request import Answer, PendingRequest, Request, check_query

__all__ = ["AnnService", "ServiceCounters", "BatchReport", "WorkerLost"]

_UNSET = object()
"""Sentinel distinguishing "no deadline_ms argument" from an explicit
``None`` (which disables the config default for one request)."""

_EWMA_ALPHA = 0.2
"""Weight of the newest flush in the flush-time estimate."""


class WorkerLost(RuntimeError):
    """A flush worker's executor died; its batch can run on another."""


@dataclass
class ServiceCounters:
    """Whole-lifetime service counters (the trace ``service`` section)."""

    submitted: int = 0
    """Well-formed submissions, shed ones included."""
    admitted: int = 0
    answered: int = 0
    shed_quota: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    cancelled: int = 0
    """Requests admitted but still queued at close, failed with
    :class:`~repro.service.queueing.ServiceClosed`."""
    failed: int = 0
    """Requests failed because no flush worker survived."""
    degraded: int = 0
    rerouted: int = 0
    """Requests put back on the queue after their worker died."""
    replica_deaths: int = 0
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
    hot-swap) every ``compact_threshold`` pending operations — on a
    background thread in threaded mode, inline under :meth:`pump`.
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
        self.counters = ServiceCounters()  # guarded-by: _cond
        self.total_stats = QueryStats()  # guarded-by: _cond
        self._queue = MicroBatchQueue(  # guarded-by: _cond
            self.config.queue_capacity, self.config.max_batch, self.config.max_delay_s
        )
        self._cond = threading.Condition()
        self._next_id = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self._workers: list[threading.Thread] = []  # guarded-by: _cond
        self._dead: set[int] = set()  # guarded-by: _cond
        self._buckets: dict[str, TokenBucket] = {}  # guarded-by: _cond
        self._ewma_batch_s: float | None = None  # guarded-by: _cond
        self._compactor: threading.Thread | None = None  # guarded-by: _cond
        self._compact_error: Exception | None = None  # guarded-by: _cond
        # The tracer keeps one span stack, so traced flushes take turns.
        self._trace_lock = threading.Lock()
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
        client: str = "default",
    ) -> PendingRequest:
        """Admit one (k-)NN request; returns the ticket to wait on.

        Raises :class:`Overloaded` when a quota, capacity or deadline
        rule sheds the request, and
        :class:`~repro.service.queueing.ServiceClosed` after
        :meth:`close` or once no flush worker survives.
        ``deadline_ms`` overrides the config default for this request
        (``None`` disables it); ``client`` names the quota bucket.
        """
        point, k = check_query(point, k, self.engine.dims)
        effective_ms = self.config.deadline_ms if deadline_ms is _UNSET else deadline_ms
        if effective_ms is not None and effective_ms <= 0:
            raise ValueError(f"deadline_ms must be positive (or None), got {effective_ms}")
        with self._cond:
            if self._closed:
                raise ServiceClosed(-1)
            counters = self.counters
            counters.submitted += 1
            if len(self._dead) >= self._worker_count():
                counters.failed += 1
                raise ServiceClosed(-1)
            if self.config.quota_rps is not None and not self._buckets.setdefault(
                client, TokenBucket(self.config.quota_rps, self.config.quota_burst, self.clock.now)
            ).allow():
                counters.shed_quota += 1
                raise Overloaded(self.config.queue_capacity)
            if self._queue.full():
                counters.shed_overload += 1
                raise Overloaded(self.config.queue_capacity)
            if effective_ms is not None and self._estimated_wait_s() > effective_ms / 1000.0:
                counters.shed_deadline += 1
                raise Overloaded(self.config.queue_capacity)
            now = self.clock.now()
            pending = PendingRequest(
                Request(
                    request_id=self._next_id,
                    point=point,
                    k=k,
                    submitted_s=now,
                    deadline_s=None if effective_ms is None else now + effective_ms / 1000.0,
                )
            )
            self._queue.offer(pending)
            self._next_id += 1
            counters.admitted += 1
            counters.max_queue_len = max(counters.max_queue_len, len(self._queue))
            self._cond.notify()
            return pending

    def _estimated_wait_s(self) -> float:
        """Backlog batches per live worker × EWMA flush seconds (0 until
        the first flush, and with nothing admitted)."""
        unanswered = self._queue.unanswered
        if self._ewma_batch_s is None or unanswered == 0:
            return 0.0
        per_round = self.config.max_batch * max(1, self._worker_count() - len(self._dead))
        return -(-unanswered // per_round) * self._ewma_batch_s

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

        With workers running, the request rides the normal coalescing
        window; without them, the queue is pumped inline until this
        request's batch has flushed (so a single-threaded caller is the
        ``B=1`` singleton mode unless others queued first).
        """
        ticket = self.submit(point, k=k, deadline_ms=deadline_ms)
        if not self._workers:
            while not ticket.done():
                self.pump(force=True)
        return ticket.result(timeout_s)

    # -- pumping and flushing ------------------------------------------------

    def pump(self, force: bool = False) -> BatchReport | None:
        """Flush one batch if the window policy allows (manual mode).

        ``force=True`` flushes whatever is queued without waiting for
        the window — used by :meth:`query`, shutdown draining, and the
        load generators.  The batch runs on the first live worker.
        Returns the flush's report, or ``None`` when nothing was
        released (or the worker died and the batch went back).
        """
        with self._cond:
            batch = self._queue.take(self.clock.now(), force=force)
            worker = min(set(range(self._worker_count())) - self._dead, default=0)
        if not batch:
            return None
        return self._flush(batch, worker)

    def _worker_count(self) -> int:
        """Flush workers: one in-process engine."""
        return 1

    def _execute(self, worker: int, requests: list[Request], now_s: float) -> FlushOutcome:
        """Answer one batch on flush worker ``worker``: the engine, here.

        Raises :class:`WorkerLost` when the worker's executor died and
        the batch should run elsewhere.
        """
        return self.engine.execute(requests, now_s, trace=self._session.tracer)

    def _flush(self, batch: list[PendingRequest], worker: int) -> BatchReport | None:
        """Execute one released batch and fulfil its tickets.

        Runs *outside* the queue lock: submissions keep flowing while a
        flush is traversing, and other workers flush other batches.
        """
        tracer = self._session.tracer
        now = self.clock.now()
        waits = [max(0.0, now - p.request.submitted_s) for p in batch]
        try:
            if tracer is None:
                outcome = self._execute(worker, [p.request for p in batch], now)
            else:
                with self._trace_lock, tracer.span("batch", size=len(batch)):
                    tracer.stage_add("queue_wait", sum(waits), calls=len(batch))
                    tracer.stage_add("coalesce", max(waits), calls=1)
                    outcome = self._execute(worker, [p.request for p in batch], now)
                    tracer.counter("service.batches", 1)
                    tracer.counter("service.degraded", outcome.n_degraded)
        except WorkerLost:
            self._lose_worker(worker, batch)
            return None
        except BaseException as exc:
            # A flush that dies must not leave its tickets blocking
            # forever.  Fail them deterministically, then let the error
            # surface.
            with self._cond:
                self._queue.complete(len(batch))
            for pending in batch:
                if not pending.done():
                    pending.fail(exc)
            raise
        after = self.clock.now()
        elapsed = max(0.0, after - now)
        with self._cond:
            counters = self.counters
            counters.batches += 1
            counters.answered += len(batch)
            counters.degraded += outcome.n_degraded
            counters.queue_wait_s += sum(waits)
            counters.busy_s += elapsed
            mode_field = f"{outcome.mode}_flushes"
            setattr(counters, mode_field, getattr(counters, mode_field) + 1)
            self.total_stats.merge(outcome.stats)
            self._queue.complete(len(batch))
            self._ewma_batch_s = (
                elapsed
                if self._ewma_batch_s is None
                else (1.0 - _EWMA_ALPHA) * self._ewma_batch_s + _EWMA_ALPHA * elapsed
            )
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
        return BatchReport(
            batch_size=len(batch),
            mode=outcome.mode,
            n_exact=outcome.n_exact,
            n_degraded=outcome.n_degraded,
            queue_wait_s=sum(waits),
            flushed_at_s=now,
            stats=outcome.stats,
        )

    def _lose_worker(self, worker: int, batch: list[PendingRequest]) -> None:
        """Retire a dead worker: its batch goes back to the head of the
        queue for the survivors, or fails when none is left."""
        with self._cond:
            self._dead.add(worker)
            self.counters.replica_deaths += 1
            if len(self._dead) < self._worker_count():
                self.counters.rerouted += len(batch)
                self._queue.requeue(batch)
                self._cond.notify_all()
                return
            stranded = batch + self._queue.take_all()
            self.counters.failed += len(stranded)
            self._queue.complete(len(batch))
        for pending in stranded:
            pending.fail(ServiceClosed(pending.request.request_id))

    # -- the write path ------------------------------------------------------

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Insert one point into the served dataset.

        The point lands in the engine's delta index; in-process queries
        from the very next flush include it.  Once ``compact_threshold``
        operations are pending, a compaction folds the delta into a
        freshly built base index published as a new epoch — a
        zero-downtime hot swap (in-flight flushes finish on their pinned
        epoch) that runs in the background while flush workers run
        (:meth:`_maybe_compact`).
        """
        self._check_open()
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
        self._check_open()
        if not self.engine.delete(point_id):
            return False
        with self._cond:
            self.counters.deletes += 1
        self._maybe_compact()
        return True

    def compact(self) -> int | None:
        """Force a compaction now; returns the new epoch (or ``None``).

        Waits for an in-flight background compaction first.  If a
        background compaction failed since the last forced call, raises
        its error instead of compacting (the failed build left the old
        epoch serving and the delta intact).
        """
        with self._cond:
            compactor = self._compactor
        if compactor is threading.current_thread():
            # The background run: keep a failure for the next forced
            # call rather than lose it to the thread.
            try:
                return self._compact_now()
            except Exception as exc:
                with self._cond:
                    self._compact_error = exc
                return None
        if compactor is not None:
            compactor.join()
        with self._cond:
            error, self._compact_error = self._compact_error, None
        if error is not None:
            raise error
        return self._compact_now()

    def _compact_now(self) -> int | None:
        epoch = self.engine.compact(self._record_lock_hold)
        if epoch is not None:
            with self._cond:
                self.counters.compactions += 1
        return epoch

    def _record_lock_hold(self, freeze_s: float, publish_s: float) -> None:
        """Trace how long a compaction held the engine lock."""
        tracer = self._session.tracer
        if tracer is not None:
            with self._trace_lock:
                tracer.counter("service.compact_freeze_lock_ms", 1e3 * freeze_s)
                tracer.counter("service.compact_publish_lock_ms", 1e3 * publish_s)

    def _maybe_compact(self) -> None:
        """Compact once ``compact_threshold`` operations are pending.

        With flush workers running, the compaction runs on one
        background thread (skipped while one is in flight), so the
        write that crossed the threshold does not wait for the build.
        Driven by :meth:`pump`, it runs inline.  The thread's target is
        the ``compact`` attribute, so a wrapper put there times the
        whole background run.
        """
        if self.engine.pending_ops < self.config.compact_threshold:
            return
        with self._cond:
            if self._closed:
                return
            inline = not self._workers
            if not inline:
                if self._compactor is not None and self._compactor.is_alive():
                    return
                self._compactor = threading.Thread(
                    target=self.compact, name="repro-ann-compactor", daemon=True
                )
                self._compactor.start()
        if inline:
            self.compact()

    def _check_open(self) -> None:
        with self._cond:
            if self._closed:
                raise ServiceClosed(-1)

    # -- flush workers -------------------------------------------------------

    def start(self) -> None:
        """Start one background flush worker per executor (threaded mode)."""
        with self._cond:
            if self._closed:
                raise ServiceClosed(-1)
            if self._workers:
                raise RuntimeError("service worker already running")
            for worker in range(self._worker_count()):
                thread = threading.Thread(
                    target=self._run_worker,
                    args=(worker,),
                    name=f"repro-ann-service-{worker}",
                    daemon=True,
                )
                thread.start()  # it waits for _cond like any other worker
                self._workers.append(thread)

    def _run_worker(self, worker: int) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed or worker in self._dead:
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
            self._flush(batch, worker)

    @contextmanager
    def serving(self) -> Iterator["AnnService"]:
        """``with service.serving():`` — start the workers, close on exit."""
        self.start()
        try:
            yield self
        finally:
            self.close()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> dict[str, Any]:
        """Stop the workers, wait for an in-flight compaction, fail the
        unflushed queue, finalise the trace.

        Idempotent, and every admitted request *completes* before close
        returns — answered if its batch already flushed, otherwise
        failed with :class:`~repro.service.queueing.ServiceClosed`
        (counted as ``cancelled``).  Shutdown is deliberately prompt
        rather than draining: callers who want their answers drain with
        :meth:`pump` (``force=True``) or wait on their tickets before
        closing.  Returns the trace's counter sections (``service``,
        plus ``replica`` for a cluster; empty on a repeated call).
        """
        with self._cond:
            if self._closed:
                return {}
            self._closed = True
            workers = list(self._workers)
            compactor = self._compactor
            self._cond.notify_all()
        for thread in workers:
            thread.join()
        if compactor is not None:
            compactor.join()
        with self._cond:
            self._workers = []
            stranded = self._queue.take_all()
            self.counters.cancelled += len(stranded)
        for pending in stranded:
            pending.fail(ServiceClosed(pending.request.request_id))
        sections = self._trace_sections()
        self._scope.close()
        self._session.finalize(
            meta=self._trace_meta(), totals=self.total_stats.as_dict(), **sections
        )
        return sections

    def _trace_sections(self) -> dict[str, Any]:
        """The counter sections of the trace artifact."""
        return {"service": self.counters.as_dict()}

    def _trace_meta(self) -> dict[str, Any]:
        return {
            **self.config.describe(),
            "api": "AnnService",
            "n_target": self.engine.size,
            "dims": self.engine.dims,
        }

    def __enter__(self) -> "AnnService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        """Currently queued (admitted, unflushed) requests."""
        with self._cond:
            return len(self._queue)
