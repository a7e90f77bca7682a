"""ANN/AkNN join algorithms: the paper's baselines and references.

* :func:`bnn_join` — batched NN over an R*-tree (Zhang et al.), with the
  pruning metric pluggable exactly as in the paper's Figure 3(a).
* :func:`gorder_join` — GORDER block nested loops (Xia et al.).
* :func:`hnn_join` — hash-based ANN for the no-index case (Zhang et
  al.), discussed in the paper's Section 2.
* :func:`mnn_join` / :func:`knn_search` — index-nested-loops baseline and
  the single-point kNN query.
* :func:`mux_knn_join` — simplified MuX kNN join (Böhm & Krebs), the
  specialised-structure method the paper's Section 2 discusses.
* :func:`distance_join` / :func:`closest_pairs` /
  :func:`distance_semi_join` — the related join family of Section 2.
* :func:`brute_force_join` — the exact reference for correctness
  testing.

The paper's own algorithm (MBA/RBA) lives in :mod:`repro.core.mba`.
:mod:`repro.join.registry` maps method names (``"mba"``, ``"bnn"``, …)
to runnable entries — the dispatch table shared by the CLI and the
benchmark harness.
"""

from .bnn import bnn_join
from .distance_join import closest_pairs, distance_join, distance_semi_join
from .gorder import GOrderedFile, gorder_join, grid_order, pca_transform
from .hnn import hnn_join
from .mnn import knn_search, mnn_join
from .mux import MuxFile, mux_knn_join
from .naive import brute_force_join
from .registry import (
    REGISTRY,
    JoinMethod,
    JoinOutcome,
    JoinRequest,
    get_method,
    method_names,
    run_join,
)

__all__ = [
    "REGISTRY",
    "JoinMethod",
    "JoinOutcome",
    "JoinRequest",
    "get_method",
    "method_names",
    "run_join",
    "bnn_join",
    "hnn_join",
    "distance_join",
    "closest_pairs",
    "distance_semi_join",
    "gorder_join",
    "GOrderedFile",
    "grid_order",
    "pca_transform",
    "knn_search",
    "mnn_join",
    "mux_knn_join",
    "MuxFile",
    "brute_force_join",
]
