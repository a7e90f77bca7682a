"""Sharded parallel ANN/AkNN executor over worker processes.

Why this is exact (not approximate): NXNDIST is monotone under
query-side containment (paper Lemma 3.2), so the MBA traversal rooted at
any subtree of ``IR`` is an independent, *complete* sub-join over that
subtree's query points — no query point's k-NN can be missed by running
its subtree alone against all of ``IS``.  Shards therefore need no
coordination beyond the seed bound each root LPQ inherits
(:func:`~repro.parallel.sharding.shard_seed_bound`), and the reduction
is a disjoint-key merge: order-independent, with the stable by-query-id
output ordering :meth:`~repro.core.result.NeighborResult.pairs` already
guarantees.

Cost accounting stays honest:

* Each worker reopens the storage snapshot **read-only** with its own
  cold buffer pool holding an exact-partition share of ``pool_pages``
  (:func:`~repro.storage.manager.worker_pool_pages`), so the aggregate
  pool memory of a sharded run never exceeds the serial run's — the
  Figure 3(b) regime is preserved, and parallel speedup cannot come from
  quietly multiplying cache.
* Every worker counts exactly its own logical reads, misses and
  simulated I/O time; the merged :class:`~repro.core.stats.QueryStats`
  is the exact sum of the per-shard counters (verified by tests).

Workers run :func:`~repro.core.mba.mba_join` unchanged — one call per
assigned subtree root — via :class:`concurrent.futures.
ProcessPoolExecutor`.  ``n_workers=1`` runs the same shard pipeline
in-process, which keeps 1-worker baselines comparable to N-worker runs.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from contextlib import ExitStack
from typing import Any

from ..core.mba import mba_join
from ..core.pruning import PruningMetric
from ..core.result import NeighborResult
from ..core.stats import QueryStats
from ..index.base import PagedIndex, PagedIndexSpec, ShardRoot
from ..obs.tracer import Tracer
from ..storage.manager import (
    IOSnapshot,
    StorageManager,
    StorageSnapshot,
    worker_node_cache_entries,
    worker_pool_pages,
)
from .sharding import pack_shards, shard_seed_bound

__all__ = ["parallel_mba_join", "ShardTask", "ShardReport", "ShardOutcome", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """Picklable work order for one shard (one worker process)."""

    shard_id: int
    roots: tuple[ShardRoot, ...]
    seed_bounds: tuple[float, ...]
    snapshot: StorageSnapshot
    r_spec: PagedIndexSpec
    s_spec: PagedIndexSpec | None
    """Target index spec; ``None`` marks a self-join sharing ``r_spec``."""
    pool_pages: int
    node_cache_entries: int
    """Per-worker decoded-node cache budget (0 disables the layer)."""
    metric: PruningMetric
    k: int
    exclude_self: bool
    depth_first: bool
    bidirectional: bool
    filter_stage: bool
    batch_tighten: bool
    early_break: bool
    trace: bool = False
    """Build a per-worker tracer and ship its span tree back (a span dict
    pickles fine; a live tracer would not)."""


@dataclass(frozen=True)
class ShardReport:
    """Per-shard outcome: what one worker did and what it cost."""

    shard_id: int
    n_roots: int
    points: int
    stats: QueryStats
    io: IOSnapshot
    trace: dict[str, Any] | None = None
    """The worker's ``shard`` span dict when tracing was requested."""


ShardOutcome = tuple[int, NeighborResult, QueryStats, IOSnapshot, "dict[str, Any] | None"]
"""What :func:`run_shard` ships back: id, merged result, counters, I/O,
and the worker's span dict (``None`` when the task did not request one)."""


def run_shard(task: ShardTask) -> ShardOutcome:
    """Execute one shard (module-level so ProcessPoolExecutor can pickle it).

    Reopens the snapshot read-only with this shard's pool slice, then runs
    one :func:`mba_join` per assigned subtree root, accumulating into a
    single result and counter bundle.  With ``task.trace`` the whole shard
    runs under a worker-local ``shard`` span — the worker binds its own
    ``stats`` and ``storage`` counter sources, so the span's deltas are
    exactly this worker's costs — and the span dict rides home in the
    outcome tuple for the coordinator to graft into its trace.
    """
    manager = StorageManager.reopen(
        task.snapshot,
        pool_pages=task.pool_pages,
        node_cache_entries=task.node_cache_entries,
    )
    index_r = PagedIndex.attach(task.r_spec, manager)
    index_s = index_r if task.s_spec is None else PagedIndex.attach(task.s_spec, manager)
    stats = QueryStats()
    merged = NeighborResult(task.k)
    trace = Tracer() if task.trace else None
    t0 = time.process_time()
    with ExitStack() as scope:
        if trace is not None:
            scope.enter_context(trace.source("stats", stats.as_dict))
            scope.enter_context(trace.source("storage", manager.layer_counters))
            scope.enter_context(
                trace.span(
                    "shard",
                    shard_id=task.shard_id,
                    n_roots=len(task.roots),
                    pool_pages=task.pool_pages,
                    node_cache_entries=task.node_cache_entries,
                )
            )
        for root, seed in zip(task.roots, task.seed_bounds):
            result, __ = mba_join(
                index_r,
                index_s,
                metric=task.metric,
                k=task.k,
                exclude_self=task.exclude_self,
                depth_first=task.depth_first,
                bidirectional=task.bidirectional,
                filter_stage=task.filter_stage,
                batch_tighten=task.batch_tighten,
                early_break=task.early_break,
                stats=stats,
                root_entry=root,
                seed_bound=seed,
                trace=trace,
            )
            merged.merge(result)
    stats.cpu_time_s += time.process_time() - t0
    io = manager.io_snapshot()
    stats.add_io(io)
    span_dict = trace.root.children[0] if trace is not None else None
    return task.shard_id, merged, stats, io, span_dict


def parallel_mba_join(
    index_r: PagedIndex,
    index_s: PagedIndex,
    storage: StorageManager,
    n_workers: int,
    metric: PruningMetric = PruningMetric.NXNDIST,
    k: int = 1,
    exclude_self: bool = False,
    depth_first: bool = True,
    bidirectional: bool = True,
    filter_stage: bool = True,
    batch_tighten: bool = True,
    early_break: bool = True,
    trace: Tracer | None = None,
) -> tuple[NeighborResult, QueryStats, list[ShardReport]]:
    """Sharded all-(k-)nearest-neighbour join, exact and deterministic.

    Partitions ``index_r`` into top-level subtrees, bin-packs them into
    ``n_workers`` shards, runs :func:`mba_join` per shard in worker
    processes against a read-only snapshot of ``storage``, and merges the
    per-shard results and counters.  Returns ``(result, stats, reports)``
    where ``stats`` is the exact sum of the per-shard counters (plus the
    coordinator's seed-bound distance evaluations) and ``reports`` lists
    each shard's own counters and I/O snapshot for the scaling benchmark.

    With ``trace`` every worker records a ``shard`` span (against its own
    counter sources); the coordinator grafts those spans as children of
    the current span, so a sharded trace shows per-worker attribution.
    Worker counters never pass through the coordinator's sources — the
    trace document's ``totals`` carry the merged counters instead.

    Both indexes must be persisted in ``storage``; the result is
    identical — pairs and distances — to a serial ``mba_join`` call.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    for index in (index_r, index_s):
        if index.file.store is not storage.store:
            raise ValueError("both indexes must be persisted in `storage`")

    # Plan shards.  Coordinator reads (root splitting) are counted against
    # the parent storage like any other traversal I/O.
    coord_stats = QueryStats()
    roots = index_r.shard_roots(min_roots=n_workers)
    shards = pack_shards(roots, n_workers)
    cache_budget = storage.node_cache.max_entries if storage.node_cache is not None else 0
    need_count = k + 1 if exclude_self else k
    snapshot = storage.snapshot()
    r_spec = index_r.detach()
    s_spec = None if index_s is index_r else index_s.detach()

    tasks = []
    for shard_id, shard_roots in enumerate(shards):
        seeds = tuple(
            shard_seed_bound(
                root.rect, index_s.root_rect, index_s.size, metric, need_count
            )
            for root in shard_roots
        )
        coord_stats.record_distances(len(seeds))
        # Per-worker budget slices partition the serial budgets exactly
        # (the aggregate cache memory of a sharded run must not exceed
        # serial's), so each task carries its own share.
        tasks.append(
            ShardTask(
                shard_id=shard_id,
                roots=tuple(shard_roots),
                seed_bounds=seeds,
                snapshot=snapshot,
                r_spec=r_spec,
                s_spec=s_spec,
                pool_pages=worker_pool_pages(
                    storage.pool.capacity_pages, len(shards), shard_id
                ),
                node_cache_entries=worker_node_cache_entries(
                    cache_budget, len(shards), shard_id
                ),
                metric=metric,
                k=k,
                exclude_self=exclude_self,
                depth_first=depth_first,
                bidirectional=bidirectional,
                filter_stage=filter_stage,
                batch_tighten=batch_tighten,
                early_break=early_break,
                trace=trace is not None,
            )
        )

    if len(tasks) == 1:
        outcomes = [run_shard(tasks[0])]
    else:
        # Explicit spawn context (FORK-001): forking from a process that
        # already started threads — a traced run, a serving parent —
        # clones held locks into the child and deadlocks.
        with ProcessPoolExecutor(
            max_workers=len(tasks),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            outcomes = list(pool.map(run_shard, tasks))

    # Deterministic, order-independent reduction: shard id order, disjoint
    # query-id merge, counter summation.
    outcomes.sort(key=lambda o: o[0])
    result = NeighborResult(k)
    stats = coord_stats
    reports: list[ShardReport] = []
    for shard_id, shard_result, shard_stats, io, span_dict in outcomes:
        result.merge(shard_result)
        stats.merge(shard_stats)
        if trace is not None and span_dict is not None:
            trace.attach(span_dict)
        reports.append(
            ShardReport(
                shard_id=shard_id,
                n_roots=len(shards[shard_id]),
                points=sum(r.count for r in shards[shard_id]),
                stats=shard_stats,
                io=io,
                trace=span_dict,
            )
        )
    return result, stats, reports
