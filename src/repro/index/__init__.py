"""Disk-resident spatial indexes: MBRQT (the paper's) and R*-tree."""

from .base import (
    BuildInternal,
    BuildLeaf,
    Node,
    PagedIndex,
    PagedIndexSpec,
    ShardRoot,
    empty_build_leaf,
)
from .delta import DeltaIndex, DeltaView, merge_answer
from .mbrqt import build_mbrqt
from .queries import nearest_iter, radius_query, range_query
from .rstar import RStarTreeBuilder, build_rstar

__all__ = [
    "Node",
    "BuildLeaf",
    "BuildInternal",
    "PagedIndex",
    "PagedIndexSpec",
    "ShardRoot",
    "empty_build_leaf",
    "build_mbrqt",
    "build_rstar",
    "RStarTreeBuilder",
    "DeltaIndex",
    "DeltaView",
    "merge_answer",
    "range_query",
    "radius_query",
    "nearest_iter",
]
