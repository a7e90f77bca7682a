"""Micro-batch execution core: one flush, one batched MBA traversal.

:class:`BatchEngine` owns the *target* side of the service.  The dataset
is bulk-built at startup and published as **epoch 0** of a refcounted
version chain (:class:`~repro.storage.versioning.VersionManager`); every
flush pins one epoch, runs start-to-finish against that epoch's
read-only snapshot — the same discipline :mod:`repro.parallel` uses for
worker processes — and releases it, so a long-lived service can never
mutate the store it queries and every flush accounts exactly for its
own I/O.

The **write path** layers on top without touching any tree:

* the engine keeps the current base epoch's points as two columns
  (``ids`` and ``points``, sorted by id) plus a live-id set for the
  duplicate-insert and absent-delete checks;
* :meth:`insert` / :meth:`delete` update the live-id set and record the
  operation in an LSM-style :class:`~repro.index.delta.DeltaIndex`;
* queries over-fetch the pinned base epoch by the tombstone count and
  merge the frozen delta view into every answer
  (:func:`~repro.index.delta.merge_answer`) — updates are visible
  immediately, exactly, without any base-index mutation;
* :meth:`compact` folds the delta into the base columns and bulk-builds
  them (:func:`~repro.index.mbrqt.build_mbrqt`, or an STR-loaded
  R*-tree) into a fresh epoch with its own builder manager, publishes
  it, and prunes the folded delta operations.  MBRQT is a regular
  decomposition, so every epoch's pages are a pure function of its
  survivors, whatever the write history.

One lock, ``_lock``, serialises writes, the pin of ``(epoch, delta
view)`` that opens every flush, and the two short ends of a compaction:
the freeze (and fold of the base columns) before the build, and the
publish (and prune of the delta) after it.  The build itself runs with
the lock released, so writes and flush pins go on while it runs;
compactions take turns on a second lock, ``_compacting``.  Every pin is
exact on either side of the publish: before it, ``(old epoch, full
delta)`` — the delta still holds every frozen operation; after it,
``(new epoch, pruned delta)`` — the prune drops only operations whose
sequence number the freeze covered.  Off the lock the writer no longer
waits for the build; an earlier off-lock variant that still made it
wait was measured and dropped (EXPERIMENTS.md, "Compaction under the
engine lock").

Per flush, the engine packs the coalesced query points into a tiny
query-side MBRQT (built in a scratch manager, so its build/read I/O is
charged to the batch that needed it) and answers all of them with one
:func:`~repro.core.mba.mba_join` traversal — the paper's batching
thesis applied to an online arrival stream.  Two execution modes:

* ``singleton`` — a flush of one request skips the scratch index and
  runs plain incremental browsing (:func:`~repro.index.queries.
  nearest_iter`); micro-batching degrades gracefully to exactly the
  one-at-a-time baseline.
* ``batched`` — every larger flush: scratch MBRQT + one MBA traversal.

Past-deadline requests never ride the exact traversal: they get a
*budgeted browse* — ``nearest_iter`` abandoned after ``degrade_budget``
node expansions — returning the best candidates found so far, flagged
approximate, so one late request cannot stall the whole batch.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Sequence

import numpy as np

from ..core.geometry import Rect
from ..core.mba import mba_join
from ..core.result import NeighborResult
from ..core.stats import QueryStats
from ..index.base import PagedIndex
from ..index.delta import DeltaIndex, DeltaView, merge_answer
from ..index.mbrqt import build_mbrqt
from ..index.queries import nearest_iter
from ..index.rstar import build_rstar
from ..obs.tracer import Tracer
from ..storage.manager import StorageManager, StorageSnapshot
from ..storage.versioning import IndexVersion, VersionManager
from .config import ServiceConfig
from .request import Request

__all__ = ["BatchEngine", "FlushOutcome", "RawAnswer", "execute_pinned"]

#: Pool budget of the per-flush scratch manager holding the query-side
#: index.  The scratch tree is tiny (max_batch points); a handful of
#: pages is plenty and keeps the batch's own memory footprint honest.
SCRATCH_POOL_PAGES = 8

#: ``request_id -> (neighbor_ids, distances, approximate)``.
RawAnswer = tuple[tuple[int, ...], tuple[float, ...], bool]


@dataclass(frozen=True)
class FlushOutcome:
    """What one flush produced: per-request answers plus attribution."""

    answers: dict[int, RawAnswer]
    stats: QueryStats
    mode: str
    """``"singleton"``, ``"batched"``, or ``"degraded"``
    (every request in the flush was past deadline)."""
    n_exact: int
    n_degraded: int
    epoch: int = 0
    """The base-index epoch this flush was pinned to."""


class BatchEngine:
    """Answers flushed batches against a pinned, read-only base epoch,
    merging the in-memory delta into every answer."""

    def __init__(
        self,
        points: np.ndarray,
        config: ServiceConfig,
        point_ids: np.ndarray | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError(
                f"target dataset must be a non-empty (n, D) array, got shape {points.shape}"
            )
        self.config = config
        self.dims = int(points.shape[1])
        if point_ids is None:
            point_ids = np.arange(len(points), dtype=np.int64)
        else:
            point_ids = np.asarray(point_ids, dtype=np.int64)
            if point_ids.shape != (len(points),):
                raise ValueError("point_ids must match points in cardinality")
        # Base columns are kept sorted by id, so an epoch's pages depend
        # on its survivors alone, not on the order they arrived in.
        order = np.argsort(point_ids, kind="stable")
        point_ids, points = point_ids[order], points[order]
        self._lock = threading.Lock()
        # Compactions take turns on their own lock, held across the
        # unlocked build, so one freeze is published before the next.
        self._compacting = threading.Lock()
        self._base_ids = point_ids  # guarded-by: _lock
        self._base_points = points  # guarded-by: _lock
        self._live = set(point_ids.tolist())  # guarded-by: _lock
        if len(self._live) != len(point_ids):
            raise ValueError("point_ids must be unique")
        self.delta = DeltaIndex(self.dims)  # guarded-by: _lock
        # Epoch 0: bulk-build the initial dataset and publish it.  The
        # serving path only ever sees read-only reopens, so no request
        # can write a published page.
        self.versions = VersionManager(self._build_version(0, point_ids, points))

    def _build_version(self, epoch: int, ids: np.ndarray, points: np.ndarray) -> IndexVersion:
        """Bulk-build ``(ids, points)`` as one immutable epoch (COW).

        Each epoch gets a *fresh* builder manager — no page of a
        published epoch is ever rewritten — then the snapshot is
        reopened read-only with the serving budgets.
        """
        builder = StorageManager(
            page_size=self.config.page_size,
            pool_pages=self.config.pool_pages,
            node_cache_entries=self.config.node_cache_entries,
        )
        if self.config.kind == "mbrqt":
            index = build_mbrqt(points, builder, point_ids=ids)
        else:
            index = build_rstar(points, builder, point_ids=ids, method="str")
        spec = index.detach()
        snapshot = builder.snapshot()
        manager = StorageManager.reopen(
            snapshot,
            pool_pages=self.config.pool_pages,
            node_cache_entries=self.config.node_cache_entries,
        )
        return IndexVersion(
            epoch=epoch,
            snapshot=snapshot,
            spec=spec,
            manager=manager,
            index=PagedIndex.attach(spec, manager),
            size=int(index.size),
        )

    # -- version-compatible views (current epoch) ----------------------------

    @property
    def manager(self) -> StorageManager:
        """The current epoch's read-only manager (metadata/bench reads)."""
        return self.versions.current.manager

    @property
    def index(self) -> PagedIndex:
        return self.versions.current.index

    @property
    def snapshot(self) -> StorageSnapshot:
        return self.versions.current.snapshot

    @property
    def size(self) -> int:
        """Points in the current base epoch (excludes pending delta)."""
        return self.versions.current.size

    @property
    def epoch(self) -> int:
        return self.versions.epoch

    def layer_counters(self) -> dict[str, float]:
        """Storage counters of the *current* epoch's manager.

        A delegating callable (not a bound method of one manager) so a
        long-lived trace source keeps reading the live epoch across hot
        swaps.
        """
        return self.versions.current.manager.layer_counters()

    # -- the write path ------------------------------------------------------

    @property
    def pending_ops(self) -> int:
        """Delta operations not yet folded into a published epoch."""
        with self._lock:
            return self.delta.n_ops

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Insert one point into the delta, visible immediately."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dims,):
            raise ValueError(
                f"point must have shape ({self.dims},), got {point.shape}"
            )
        point_id = int(point_id)
        with self._lock:
            if point_id in self._live:
                raise ValueError(f"point_id {point_id} already present")
            self._live.add(point_id)
            self.delta.insert(point, point_id)

    def delete(self, point_id: int) -> bool:
        """Delete by id; ``False`` when the id is not present."""
        point_id = int(point_id)
        with self._lock:
            if point_id not in self._live:
                return False
            self._live.remove(point_id)
            self.delta.delete(point_id)
            return True

    def compact(
        self, on_lock_hold: Callable[[float, float], None] | None = None
    ) -> int | None:
        """Fold the pending delta into a freshly built, published epoch.

        Returns the new epoch number, or ``None`` when the delta was
        empty (no epoch published).  Three steps, and one compaction at
        a time (``_compacting``):

        1. under ``_lock``, freeze the delta and fold the view into the
           base columns;
        2. with the lock released, bulk-build the survivors — writes
           land in the delta and flushes pin ``(old epoch, full delta)``
           meanwhile;
        3. under ``_lock``, publish the epoch, swap the base columns and
           prune the operations the view consumed; writes made during
           the build have later sequence numbers and survive.

        A build that raises leaves the old epoch serving and the delta
        and base columns unchanged, so the next compaction starts over.
        ``on_lock_hold(freeze_s, publish_s)`` receives how long steps 1
        and 3 held the lock.
        """
        with self._compacting:
            with self._lock:
                t0 = time.perf_counter()
                if self.delta.n_ops == 0:
                    return None
                view = self.delta.freeze()
                ids, points = view.fold(self._base_ids, self._base_points)
                epoch = self.versions.epoch + 1
                freeze_s = time.perf_counter() - t0
            version = self._build_version(epoch, ids, points)
            with self._lock:
                t0 = time.perf_counter()
                self.versions.publish(version)
                self._base_ids, self._base_points = ids, points
                self.delta.prune_through(view)
                publish_s = time.perf_counter() - t0
            if on_lock_hold is not None:
                on_lock_hold(freeze_s, publish_s)
            return epoch

    # -- flush execution -----------------------------------------------------

    def execute(
        self,
        requests: Sequence[Request],
        now_s: float,
        trace: Tracer | None = None,
    ) -> FlushOutcome:
        """Answer one flushed batch; every request gets an answer.

        ``now_s`` is the flush instant on the service clock — the instant
        deadlines are judged against, so degradation is a property of the
        batch, deterministic under a fake clock.

        The flush pins ``(epoch, delta view)`` atomically at entry and
        runs to completion against that pair: a compaction publishing
        mid-flush affects only later flushes.
        """
        if not requests:
            raise ValueError("cannot execute an empty batch")
        with self._lock:
            version = self.versions.pin()
            delta = self.delta.freeze()
        try:
            return execute_pinned(self.config, requests, now_s, version, delta, trace)
        finally:
            self.versions.release(version)


# -- the shared flush path ---------------------------------------------------
#
# Module-level on purpose: :class:`BatchEngine` (the single-process
# service) and :mod:`repro.serve.replica` (mapped-epoch worker
# processes) execute flushes through these *same* functions, so replica
# answers are bit-identical to the single-process service by
# construction — one code path, parameterised only by the config and
# the pinned (version, delta) pair.


def execute_pinned(
    config: ServiceConfig,
    requests: Sequence[Request],
    now_s: float,
    version: IndexVersion,
    delta: DeltaView,
    trace: Tracer | None = None,
) -> FlushOutcome:
    """Answer one flushed batch against an already-pinned epoch.

    The caller owns the pin/release bracket (and the delta freeze);
    this function never touches the version chain.  Mapped epochs
    (``version.snapshot is None``) are valid in every mode.
    """
    if config.cold_flush:
        version.manager.drop_caches()
    version.manager.reset_counters()
    stats = QueryStats()
    answers: dict[int, RawAnswer] = {}
    live = [r for r in requests if not r.past_deadline(now_s)]
    late = [r for r in requests if r.past_deadline(now_s)]

    def stage(name: str) -> ContextManager[None]:
        return trace.stage(name) if trace is not None else nullcontext()

    with ExitStack() as scope:
        if trace is not None and not trace.has_source("stats"):
            scope.enter_context(trace.source("stats", stats.as_dict))
        t0 = time.process_time()
        with stage("degrade"):
            for request in late:
                answers[request.request_id] = _budgeted_browse(
                    config, request, stats, version, delta
                )
        mode = "degraded"
        if live and version.size == 0:
            # Fully-tombstoned base: every answer comes from the
            # delta alone (a merge against zero base candidates).
            mode = "singleton" if len(live) == 1 else "batched"
            with stage("traverse"):
                for request in live:
                    ids, dists = merge_answer(
                        np.empty(0, dtype=np.int64),
                        np.empty(0),
                        request.point,
                        request.k,
                        delta,
                    )
                    answers[request.request_id] = (ids, dists, False)
        elif len(live) == 1:
            mode = "singleton"
            with stage("traverse"):
                answers[live[0].request_id] = _exact_single(
                    live[0], stats, version, delta
                )
        elif live:
            # Over-fetch by the tombstone count: each tombstone can
            # mask at most one base candidate, so k survivors remain.
            kmax = max(r.k for r in live) + delta.n_tombstones
            mode = "batched"
            with stage("traverse"):
                result = _batched_join(config, live, kmax, stats, trace, version)
            for i, request in enumerate(live):
                bucket = result.neighbors_of(i)[: request.k + delta.n_tombstones]
                ids, dists = merge_answer(
                    np.asarray([s_id for __, s_id in bucket], dtype=np.int64),
                    np.asarray([dist for dist, __ in bucket]),
                    request.point,
                    request.k,
                    delta,
                )
                answers[request.request_id] = (ids, dists, False)
        stats.cpu_time_s += time.process_time() - t0
    stats.add_io(version.manager.io_snapshot())
    return FlushOutcome(
        answers=answers,
        stats=stats,
        mode=mode,
        n_exact=len(live),
        n_degraded=len(late),
        epoch=version.epoch,
    )


# -- execution modes ---------------------------------------------------------


def _exact_single(
    request: Request,
    stats: QueryStats,
    version: IndexVersion,
    delta: DeltaView,
) -> RawAnswer:
    """Singleton fallback: incremental browsing, first k results.

    With an empty delta, bit-identical to a standalone
    ``nearest_iter`` over the same store — the golden test's baseline
    and the B=1 service mode.  With a delta, over-fetched by the
    tombstone count and merged.
    """
    k_eff = request.k + delta.n_tombstones
    ids: list[int] = []
    dists: list[float] = []
    for dist, point_id, __ in nearest_iter(version.index, request.point, stats):
        ids.append(point_id)
        dists.append(dist)
        if len(ids) >= k_eff:
            break
    merged_ids, merged_dists = merge_answer(
        np.asarray(ids, dtype=np.int64), np.asarray(dists),
        request.point, request.k, delta,
    )
    return merged_ids, merged_dists, False


def _budgeted_browse(
    config: ServiceConfig,
    request: Request,
    stats: QueryStats,
    version: IndexVersion,
    delta: DeltaView,
) -> RawAnswer:
    """Graceful degradation: browse under a node-expansion budget.

    The generator's frontier is exact at every step, so whatever it
    has yielded when the budget runs out is the true ordered prefix
    of the k-NN (over base ⊎ delta after the merge) — possibly
    short, never wrong — flagged approximate because completeness
    was sacrificed.
    """
    budget = config.degrade_budget
    k_eff = request.k + delta.n_tombstones
    ids: list[int] = []
    dists: list[float] = []
    if budget > 0:
        start = stats.node_expansions
        for dist, point_id, __ in nearest_iter(version.index, request.point, stats):
            ids.append(point_id)
            dists.append(dist)
            if len(ids) >= k_eff or stats.node_expansions - start >= budget:
                break
    merged_ids, merged_dists = merge_answer(
        np.asarray(ids, dtype=np.int64), np.asarray(dists),
        request.point, request.k, delta,
    )
    return merged_ids, merged_dists, True


def _build_query_index(
    config: ServiceConfig,
    points: np.ndarray,
    storage: StorageManager,
    point_ids: np.ndarray | None,
    universe: Rect | None = None,
) -> PagedIndex:
    if config.kind == "mbrqt":
        return build_mbrqt(points, storage, point_ids=point_ids, universe=universe)
    return build_rstar(points, storage, point_ids=point_ids)


def _scratch_index(
    config: ServiceConfig,
    live: Sequence[Request],
    storage: StorageManager,
    version: IndexVersion,
) -> PagedIndex:
    """Pack the batch's query points into a tiny query-side index.

    Query ids are batch positions (0..n-1), so the join result maps
    straight back to requests.  The MBRQT universe is widened to
    cover the target's root cell: queries may fall outside the
    target's bounding box, and a shared universe keeps the partition
    boundaries aligned where the two trees overlap (Section 3.2).
    """
    q_points = np.stack([r.point for r in live])
    universe = None
    if config.kind == "mbrqt":
        root = version.index.root_rect
        universe = Rect(
            np.minimum(q_points.min(axis=0), root.lo),
            np.maximum(q_points.max(axis=0), root.hi),
        )
    return _build_query_index(
        config,
        q_points,
        storage,
        np.arange(len(live), dtype=np.int64),
        universe=universe,
    )


def _batched_join(
    config: ServiceConfig,
    live: Sequence[Request],
    kmax: int,
    stats: QueryStats,
    trace: Tracer | None,
    version: IndexVersion,
) -> NeighborResult:
    scratch = StorageManager(
        page_size=config.page_size, pool_pages=SCRATCH_POOL_PAGES
    )
    q_index = _scratch_index(config, live, scratch, version)
    result, __ = mba_join(
        q_index,
        version.index,
        metric=config.metric,
        k=kmax,
        exclude_self=False,
        stats=stats,
        trace=trace,
    )
    stats.add_io(scratch.io_snapshot())
    return result

