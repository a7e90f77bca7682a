"""Core contribution of the paper: metrics, LPQ machinery, MBA traversal."""

from .geometry import Rect, RectArray
from .lpq import LPQ, make_node_lpq, make_object_lpq
from .mba import mba_join
from .metrics import (
    dist_point_points,
    maxdist_per_dim,
    maxmaxdist,
    maxmaxdist_batch,
    maxmaxdist_cross,
    maxmin_per_dim,
    minmaxdist,
    minmindist,
    minmindist_batch,
    minmindist_cross,
    minmindist_point_batch,
    nxndist,
    nxndist_batch,
    nxndist_cross,
)
from .order import morton_codes, morton_order
from .pruning import PruningMetric
from .result import NeighborResult
from .stats import QueryStats

__all__ = [
    "Rect",
    "RectArray",
    "LPQ",
    "make_node_lpq",
    "make_object_lpq",
    "mba_join",
    "dist_point_points",
    "maxdist_per_dim",
    "maxmin_per_dim",
    "minmindist",
    "maxmaxdist",
    "minmaxdist",
    "nxndist",
    "minmindist_batch",
    "maxmaxdist_batch",
    "nxndist_batch",
    "minmindist_point_batch",
    "minmindist_cross",
    "maxmaxdist_cross",
    "nxndist_cross",
    "morton_codes",
    "morton_order",
    "PruningMetric",
    "NeighborResult",
    "QueryStats",
]
