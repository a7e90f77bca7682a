"""High-level public API.

Most users need only these functions::

    from repro import JoinConfig, all_nearest_neighbors

    result, stats = all_nearest_neighbors(r_points, s_points)
    for r_id, s_id, dist in result.pairs():
        ...

    # Every knob lives on the validated, frozen JoinConfig:
    cfg = JoinConfig(k=5, workers=4, node_cache_entries=256, trace="t.json")
    result, stats = all_nearest_neighbors(r_points, config=cfg)

Everything is built on the lower-level pieces, which remain public for
power users: index builders (:func:`build_index`), the traversal engine
(:func:`repro.core.mba.mba_join`), the baselines in :mod:`repro.join`,
and the storage substrate in :mod:`repro.storage`.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, nullcontext
from typing import Any, ContextManager

import numpy as np

from .config import INDEX_KINDS, JoinConfig
from .core.geometry import Rect
from .core.mba import mba_join
from .core.result import NeighborResult
from .core.stats import QueryStats
from .index.base import PagedIndex
from .index.mbrqt import build_mbrqt
from .index.rstar import build_rstar
from .obs.tracer import TraceDestination, TraceSession
from .parallel.executor import parallel_mba_join
from .storage.manager import StorageManager

__all__ = [
    "build_index",
    "build_join_indexes",
    "all_nearest_neighbors",
    "aknn_join",
]

_INDEX_KINDS = INDEX_KINDS


def build_index(
    points: np.ndarray,
    storage: StorageManager,
    kind: str = "mbrqt",
    point_ids: np.ndarray | None = None,
    universe: Rect | None = None,
    **kwargs: Any,
) -> PagedIndex:
    """Build a disk-resident spatial index over ``points``.

    ``kind`` is ``"mbrqt"`` (the paper's index) or ``"rstar"``.
    ``universe`` applies to MBRQT only: the root cell of the regular
    decomposition (see :func:`repro.index.mbrqt.build_mbrqt`).
    """
    if kind == "mbrqt":
        return build_mbrqt(points, storage, point_ids=point_ids, universe=universe, **kwargs)
    if kind == "rstar":
        return build_rstar(points, storage, point_ids=point_ids, **kwargs)
    raise ValueError(f"unknown index kind {kind!r}; expected one of {_INDEX_KINDS}")


def build_join_indexes(
    r_points: np.ndarray,
    s_points: np.ndarray,
    storage: StorageManager,
    kind: str = "mbrqt",
    r_ids: np.ndarray | None = None,
    s_ids: np.ndarray | None = None,
    **kwargs: Any,
) -> tuple[PagedIndex, PagedIndex]:
    """Build matching indexes over both join inputs.

    For MBRQT the two trees share the union universe, aligning their
    partition boundaries — the property Section 3.2 of the paper credits
    for the quadtree's pruning advantage.
    """
    r_points = np.asarray(r_points, dtype=np.float64)
    s_points = np.asarray(s_points, dtype=np.float64)
    if kind == "mbrqt":
        lo = np.minimum(r_points.min(axis=0), s_points.min(axis=0))
        hi = np.maximum(r_points.max(axis=0), s_points.max(axis=0))
        universe = Rect(lo, hi)
        index_r = build_mbrqt(r_points, storage, point_ids=r_ids, universe=universe, **kwargs)
        index_s = build_mbrqt(s_points, storage, point_ids=s_ids, universe=universe, **kwargs)
        return index_r, index_s
    if kind == "rstar":
        index_r = build_rstar(r_points, storage, point_ids=r_ids, **kwargs)
        index_s = build_rstar(s_points, storage, point_ids=s_ids, **kwargs)
        return index_r, index_s
    raise ValueError(f"unknown index kind {kind!r}; expected one of {_INDEX_KINDS}")


def _resolve_config(
    config: JoinConfig | None,
    trace: TraceDestination,
    base: JoinConfig | None = None,
) -> JoinConfig:
    """One JoinConfig out of ``config=`` and the ``trace=`` shorthand.

    The ``trace=`` keyword wins over ``config.trace``: it is the
    documented way to request a trace without building a config object.
    """
    cfg = config if config is not None else (base if base is not None else JoinConfig())
    if trace is not None:
        cfg = cfg.replace(trace=trace)
    return cfg


def all_nearest_neighbors(
    r_points: np.ndarray,
    s_points: np.ndarray | None = None,
    config: JoinConfig | None = None,
    *,
    storage: StorageManager | None = None,
    trace: TraceDestination = None,
) -> tuple[NeighborResult, QueryStats]:
    """All-(k-)nearest-neighbour query with the paper's MBA algorithm.

    Builds the indexes (MBRQT by default), runs the DF-BI traversal with
    NXNDIST pruning, and returns the neighbour result plus cost counters.
    When ``s_points`` is omitted, the query is a self-join over
    ``r_points`` and ``exclude_self`` defaults to True (a point is not its
    own neighbour — the convention clustering applications expect).

    Parameters
    ----------
    r_points, s_points:
        Query and target datasets (``s_points=None`` makes a self-join).
    config:
        A :class:`~repro.config.JoinConfig` carrying every knob: index
        ``kind``, pruning ``metric``, ``k``, ``exclude_self``, ``workers``,
        ``node_cache_entries`` and ``trace``.  ``workers > 1`` shards the
        query index across worker processes
        (:func:`repro.parallel.parallel_mba_join`); the result is identical
        to the serial run, and the returned counters are the sum over the
        workers (each with ``pool/workers`` buffer-pool and
        ``node_cache_entries/workers`` decoded-cache slices).
    storage:
        Optional pre-built :class:`StorageManager` (e.g. a specific pool
        size).  When omitted, a default manager is created honouring
        ``config.node_cache_entries``; when given, its own cache setting
        wins and a conflicting nonzero ``node_cache_entries`` raises.
    trace:
        Shorthand for ``config.trace`` — a path writes the JSON trace
        artifact there, a live :class:`~repro.obs.Tracer` records into it.
        Traced and untraced runs return bit-identical results.
    """
    # A self-join with a positional config — all_nearest_neighbors(r, cfg)
    # — reads naturally but lands the config in the s_points slot; shift
    # it rather than letting np.asarray blow up on a dataclass.
    if isinstance(s_points, JoinConfig):
        if config is not None:
            raise TypeError("two JoinConfig arguments given (s_points slot and config=)")
        config, s_points = s_points, None
    cfg = _resolve_config(config, trace)
    r_points = np.asarray(r_points, dtype=np.float64)
    self_join = s_points is None
    exclude_self = cfg.resolve_exclude_self(self_join)
    if storage is None:
        storage = StorageManager(node_cache_entries=cfg.node_cache_entries)
    elif cfg.node_cache_entries > 0 and storage.node_cache is None:
        raise ValueError(
            "config.node_cache_entries > 0 but `storage` was built without a "
            "decoded-node cache; pass node_cache_entries to StorageManager "
            "(or drop it from the JoinConfig)"
        )

    session = TraceSession(cfg.trace)
    tracer = session.tracer

    def span(name: str, **attrs: Any) -> ContextManager[Any]:
        return tracer.span(name, **attrs) if tracer is not None else nullcontext()

    with ExitStack() as scope:
        if tracer is not None:
            scope.enter_context(tracer.source("storage", storage.layer_counters))
        with span("index-build", kind=cfg.kind, self_join=self_join):
            if self_join:
                index_r = build_index(r_points, storage, kind=cfg.kind)
                index_s = index_r
            else:
                index_r, index_s = build_join_indexes(
                    r_points, np.asarray(s_points), storage, kind=cfg.kind
                )

        storage.reset_counters()
        storage.drop_caches()
        with span("query", k=cfg.k, metric=str(cfg.metric.value), workers=cfg.workers):
            if cfg.workers > 1:
                result, stats, __ = parallel_mba_join(
                    index_r, index_s, storage, n_workers=cfg.workers,
                    metric=cfg.metric, k=cfg.k, exclude_self=exclude_self,
                    trace=tracer,
                )
            else:
                t0 = time.process_time()
                result, stats = mba_join(
                    index_r, index_s, metric=cfg.metric, k=cfg.k,
                    exclude_self=exclude_self, trace=tracer,
                )
                stats.cpu_time_s += time.process_time() - t0
                stats.add_io(storage.io_snapshot())

    session.finalize(
        meta={
            **cfg.describe(),
            "api": "all_nearest_neighbors",
            "self_join": self_join,
            "n_r": int(len(r_points)),
            "n_s": int(len(r_points) if self_join else len(np.asarray(s_points))),
        },
        totals=stats.as_dict(),
    )
    return result, stats


def aknn_join(
    r_points: np.ndarray,
    s_points: np.ndarray | None = None,
    config: JoinConfig | None = None,
    *,
    storage: StorageManager | None = None,
    trace: TraceDestination = None,
) -> tuple[NeighborResult, QueryStats]:
    """All-k-nearest-neighbour query (Section 3.4); sugar over
    :func:`all_nearest_neighbors` with ``k`` defaulting to 10.

    An explicit ``config`` is used as-is (its ``k`` wins).
    """
    if isinstance(s_points, JoinConfig):
        if config is not None:
            raise TypeError("two JoinConfig arguments given (s_points slot and config=)")
        config, s_points = s_points, None
    cfg = _resolve_config(config, trace, base=JoinConfig(k=10))
    return all_nearest_neighbors(r_points, s_points, cfg, storage=storage)
