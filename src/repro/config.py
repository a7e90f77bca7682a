"""The public API's front door: one validated, frozen configuration object.

Every join knob lives on :class:`JoinConfig`::

    from repro import JoinConfig, all_nearest_neighbors

    cfg = JoinConfig(k=5, workers=4, node_cache_entries=256, trace="t.json")
    result, stats = all_nearest_neighbors(points, config=cfg)

The config object is the single place where validation happens.  The
CLI builds a :class:`JoinConfig` from its flags too, so Python callers
and command-line runs go through identical validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .core.pruning import PruningMetric
from .obs.tracer import TraceDestination, Tracer

__all__ = ["JoinConfig", "INDEX_KINDS"]

INDEX_KINDS = ("mbrqt", "rstar")


@dataclass(frozen=True)
class JoinConfig:
    """Validated, immutable configuration for one ANN/AkNN join.

    Parameters
    ----------
    kind:
        Index family — ``"mbrqt"`` (the paper's quadtree, giving MBA) or
        ``"rstar"`` (giving RBA).
    metric:
        Pruning upper bound; accepts a :class:`PruningMetric` or its
        string value (``"nxndist"`` / ``"maxmaxdist"``).
    k:
        Neighbours per query point (k=1 is ANN, k>1 AkNN).
    exclude_self:
        Self-join convention; ``None`` (default) resolves to True for
        self-joins and False for two-dataset joins at call time.
    workers:
        Worker processes for the sharded executor; 1 runs serially.
    node_cache_entries:
        Decoded-node LRU budget above the buffer pool (0 disables the
        layer).  Sharded runs slice the budget per worker, so aggregate
        cache memory never exceeds the serial run's.
    trace:
        Observability destination: a path writes the schema-validated
        JSON trace artifact there; a :class:`~repro.obs.Tracer` records
        into that tracer (``tracer.document`` after the call); ``None``
        disables tracing entirely (the default — tracing is strictly
        pay-for-what-you-use).
    """

    kind: str = "mbrqt"
    metric: PruningMetric = PruningMetric.NXNDIST
    k: int = 1
    exclude_self: bool | None = None
    workers: int = 1
    node_cache_entries: int = 0
    trace: TraceDestination = None

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise ValueError(
                f"unknown index kind {self.kind!r}; expected one of {INDEX_KINDS}"
            )
        # Accept the string spelling everywhere a metric is configured
        # (the CLI, JSON configs); normalise onto the enum.
        if not isinstance(self.metric, PruningMetric):
            object.__setattr__(self, "metric", PruningMetric(self.metric))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.node_cache_entries < 0:
            raise ValueError(
                f"node_cache_entries must be >= 0, got {self.node_cache_entries}"
            )
        if self.trace is not None and not isinstance(self.trace, (str, Tracer)):
            # Path objects are fine too; import locally to keep the
            # isinstance tuple simple.
            from pathlib import Path

            if not isinstance(self.trace, Path):
                raise TypeError(
                    "trace must be a path, a Tracer, or None; "
                    f"got {type(self.trace).__name__}"
                )

    def resolve_exclude_self(self, self_join: bool) -> bool:
        """The effective ``exclude_self`` for a concrete call.

        ``None`` keeps the long-standing convention: a self-join does not
        report a point as its own neighbour, a two-dataset join reports
        every true nearest neighbour.
        """
        if self.exclude_self is None:
            return self_join
        return self.exclude_self

    def describe(self) -> dict[str, Any]:
        """Flat, JSON-friendly view (used for trace ``meta``)."""
        return {
            "kind": self.kind,
            "metric": str(self.metric.value),
            "k": self.k,
            "exclude_self": self.exclude_self,
            "workers": self.workers,
            "node_cache_entries": self.node_cache_entries,
        }

    def replace(self, **changes: Any) -> "JoinConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

