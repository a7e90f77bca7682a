"""Method registry: one name → one runnable ANN/AkNN join.

The CLI, the benchmark harness, and tests all need to turn the string
``"bnn"`` into a concrete execution — previously each had its own
if/elif ladder, and they drifted (the CLI knew about ``--workers``, the
harness did not; the harness knew modeled dims, the CLI did not).
:data:`REGISTRY` is the single table: each :class:`JoinMethod` declares
which index it needs, which knobs it honours, and how to run it against
a prepared :class:`JoinRequest`.

:func:`run_join` is the shared driver reproducing the measurement
discipline the CLI and harness both used: timed index build, counter
reset + cold caches, timed query, I/O folded into the returned
:class:`~repro.core.stats.QueryStats`.  It is trace-aware — give it a
:class:`~repro.obs.Tracer` and the build and query phases become spans
(the MBA/RBA engine adds per-stage attribution underneath).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..config import JoinConfig
from ..core.frontier import frontier_join
from ..core.mba import mba_join
from ..core.result import NeighborResult
from ..core.stats import QueryStats
from ..index.base import PagedIndex
from ..obs.tracer import Tracer
from ..parallel.executor import ShardReport, parallel_mba_join
from ..storage.manager import StorageManager
from .bnn import bnn_join
from .gorder import gorder_join
from .hnn import hnn_join
from .mnn import mnn_join

__all__ = [
    "JoinMethod",
    "JoinRequest",
    "JoinOutcome",
    "REGISTRY",
    "get_method",
    "method_names",
    "run_join",
]


@dataclass
class JoinRequest:
    """Everything a registered runner may consume for one execution."""

    points: np.ndarray
    storage: StorageManager
    config: JoinConfig
    exclude_self: bool
    tracer: Tracer | None = None
    index: PagedIndex | None = None
    """Built by :func:`run_join` when the method declares an index kind."""
    reports: tuple[ShardReport, ...] | None = None
    """Filled by sharded runners (per-worker outcome records)."""


Runner = Callable[[JoinRequest], tuple[NeighborResult, QueryStats]]


@dataclass(frozen=True)
class JoinMethod:
    """One registry entry: a join algorithm and the knobs it honours."""

    name: str
    summary: str
    index_kind: str | None
    """Index built over the dataset before the query (``None``: no index)."""
    supports_metric: bool
    supports_workers: bool
    run: Runner


def _require_index(req: JoinRequest) -> PagedIndex:
    if req.index is None:
        raise RuntimeError("runner invoked without its declared index")
    return req.index


def _run_mba(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    index = _require_index(req)
    cfg = req.config
    if cfg.workers > 1:
        result, stats, reports = parallel_mba_join(
            index,
            index,
            req.storage,
            n_workers=cfg.workers,
            metric=cfg.metric,
            k=cfg.k,
            exclude_self=req.exclude_self,
            trace=req.tracer,
        )
        req.reports = tuple(reports)
        return result, stats
    return mba_join(
        index,
        index,
        metric=cfg.metric,
        k=cfg.k,
        exclude_self=req.exclude_self,
        trace=req.tracer,
    )


def _run_frontier(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    index = _require_index(req)
    cfg = req.config
    return frontier_join(
        index,
        index,
        metric=cfg.metric,
        k=cfg.k,
        exclude_self=req.exclude_self,
        trace=req.tracer,
    )


def _run_bnn(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    return bnn_join(
        _require_index(req),
        req.points,
        metric=req.config.metric,
        k=req.config.k,
        exclude_self=req.exclude_self,
    )


def _run_mnn(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    return mnn_join(
        _require_index(req), req.points, k=req.config.k, exclude_self=req.exclude_self
    )


def _run_gorder(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    return gorder_join(
        req.points, req.points, req.storage, k=req.config.k, exclude_self=req.exclude_self
    )


def _run_hnn(req: JoinRequest) -> tuple[NeighborResult, QueryStats]:
    return hnn_join(
        req.points, req.points, req.storage, k=req.config.k, exclude_self=req.exclude_self
    )


REGISTRY: dict[str, JoinMethod] = {
    m.name: m
    for m in (
        JoinMethod(
            "mba", "MBRQT-based ANN — the paper's algorithm", "mbrqt", True, True, _run_mba
        ),
        JoinMethod(
            "rba", "R*-tree-based ANN (Section 3.3.2)", "rstar", True, True, _run_mba
        ),
        JoinMethod(
            "mba-frontier",
            "level-synchronous vectorized MBA frontier engine",
            "mbrqt",
            True,
            False,
            _run_frontier,
        ),
        JoinMethod(
            "bnn", "batched NN over an R*-tree (Zhang et al.)", "rstar", True, False, _run_bnn
        ),
        JoinMethod(
            "mnn", "index-nested-loops kNN baseline", "rstar", False, False, _run_mnn
        ),
        JoinMethod(
            "gorder", "GORDER block nested loops (Xia et al.)", None, False, False, _run_gorder
        ),
        JoinMethod(
            "hnn", "hash-based ANN, no index (Zhang et al.)", None, False, False, _run_hnn
        ),
    )
}


def method_names() -> tuple[str, ...]:
    """Registered method names, in registration (presentation) order."""
    return tuple(REGISTRY)


def get_method(name: str) -> JoinMethod:
    """Look up a registered method; ``KeyError`` lists the valid names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown join method {name!r}; registered: {', '.join(REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class JoinOutcome:
    """What one :func:`run_join` execution produced and what it cost."""

    method: str
    result: NeighborResult
    stats: QueryStats
    build_s: float
    query_s: float
    reports: tuple[ShardReport, ...] | None


@contextmanager
def _maybe_span(tracer: Tracer | None, name: str, **attrs: Any) -> Iterator[None]:
    if tracer is None:
        yield
        return
    with tracer.span(name, **attrs):
        yield


def run_join(
    name: str,
    points: np.ndarray,
    storage: StorageManager,
    config: JoinConfig,
    exclude_self: bool = True,
    tracer: Tracer | None = None,
) -> JoinOutcome:
    """Build, run and account one registered self-join method.

    The shared measurement discipline (previously duplicated by the CLI
    and the benchmark harness): the index build is timed separately, the
    counters are reset and every cache dropped so the query starts cold,
    and after the query the storage I/O is folded into ``stats`` — except
    for sharded runs, whose workers already counted exactly their own
    I/O.  With ``tracer`` the build and query run under ``index-build``
    and ``query`` spans against a ``storage`` counter source.
    """
    method = get_method(name)
    cfg = config
    if cfg.workers > 1 and not method.supports_workers:
        raise ValueError(
            f"workers applies only to the sharded MBA/RBA executor, not {name!r}"
        )
    req = JoinRequest(
        points=np.asarray(points, dtype=np.float64),
        storage=storage,
        config=cfg,
        exclude_self=exclude_self,
        tracer=tracer,
    )
    # Imported here: repro.api imports repro.config at module load, and
    # this module is reachable from repro.join's package init — the lazy
    # import keeps `import repro.join` free of the api module.
    from ..api import build_index

    with ExitStack() as scope:
        if tracer is not None and not tracer.has_source("storage"):
            scope.enter_context(tracer.source("storage", storage.layer_counters))
        t0 = time.process_time()
        if method.index_kind is not None:
            with _maybe_span(tracer, "index-build", kind=method.index_kind, method=name):
                req.index = build_index(req.points, storage, kind=method.index_kind)
        build_s = time.process_time() - t0

        storage.reset_counters()
        storage.drop_caches()
        t0 = time.process_time()
        with _maybe_span(
            tracer, "query", method=name, k=cfg.k, workers=cfg.workers,
            metric=str(cfg.metric.value),
        ):
            result, stats = method.run(req)
        query_s = time.process_time() - t0

    stats.cpu_time_s += query_s
    if cfg.workers <= 1 or not method.supports_workers:
        # Serial runs fold the storage I/O here; a sharded run's workers
        # already counted their own (the coordinator saw only planning).
        stats.add_io(storage.io_snapshot())
    return JoinOutcome(
        method=name,
        result=result,
        stats=stats,
        build_s=build_s,
        query_s=query_s,
        reports=req.reports,
    )
