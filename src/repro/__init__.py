"""repro — reproduction of "Efficient Evaluation of All-Nearest-Neighbor
Queries" (Chen & Patel, ICDE 2007).

The library implements the paper's contributions — the NXNDIST pruning
metric, the MBRQT index, and the MBA/RBA traversal with three-stage
pruning — together with every substrate and baseline the evaluation
depends on: a paged storage manager with an LRU buffer pool, a full
R*-tree, and the BNN, MNN and GORDER join algorithms.

Quickstart::

    import numpy as np
    from repro import JoinConfig, all_nearest_neighbors

    rng = np.random.default_rng(0)
    r = rng.random((1000, 2))
    s = rng.random((1000, 2))
    result, stats = all_nearest_neighbors(r, s)
    print(result.nn_of(0), stats)

    # Every knob (and observability) goes through JoinConfig:
    cfg = JoinConfig(k=5, workers=4, trace="trace.json")
    result, stats = all_nearest_neighbors(r, config=cfg)
"""

from .api import aknn_join, all_nearest_neighbors, build_index, build_join_indexes
from .config import JoinConfig
from .obs import Tracer, TraceSession, format_trace_report, load_trace, validate_trace
from .core import (
    NeighborResult,
    PruningMetric,
    QueryStats,
    Rect,
    RectArray,
    maxmaxdist,
    mba_join,
    minmaxdist,
    minmindist,
    nxndist,
)
from .data import fc_surrogate, table2_datasets, tac_surrogate
from .index import PagedIndex, build_mbrqt, build_rstar, nearest_iter, radius_query, range_query
from .join import (
    bnn_join,
    brute_force_join,
    closest_pairs,
    distance_join,
    distance_semi_join,
    gorder_join,
    hnn_join,
    knn_search,
    mnn_join,
    mux_knn_join,
)
from .parallel import parallel_mba_join
from .storage import StorageManager

__version__ = "1.0.0"

__all__ = [
    "all_nearest_neighbors",
    "aknn_join",
    "JoinConfig",
    "Tracer",
    "TraceSession",
    "load_trace",
    "validate_trace",
    "format_trace_report",
    "build_index",
    "build_join_indexes",
    "mba_join",
    "parallel_mba_join",
    "bnn_join",
    "gorder_join",
    "hnn_join",
    "mnn_join",
    "mux_knn_join",
    "knn_search",
    "distance_join",
    "closest_pairs",
    "distance_semi_join",
    "range_query",
    "radius_query",
    "nearest_iter",
    "brute_force_join",
    "build_mbrqt",
    "build_rstar",
    "PagedIndex",
    "StorageManager",
    "PruningMetric",
    "NeighborResult",
    "QueryStats",
    "Rect",
    "RectArray",
    "nxndist",
    "maxmaxdist",
    "minmaxdist",
    "minmindist",
    "tac_surrogate",
    "fc_surrogate",
    "table2_datasets",
    "__version__",
]
