"""One validated, frozen configuration object for the query service.

:class:`ServiceConfig` mirrors :class:`~repro.config.JoinConfig` — same
frozen-dataclass shape, same validation style — and *shares* the join
validation outright: the join-side knobs (``kind``, ``metric``,
``node_cache_entries``, ``trace``) are folded into an embedded
:class:`JoinConfig` in ``__post_init__``, so an invalid value fails with
exactly the error the offline API would raise.

The service-side knobs — the coalescing window, the admission policy
(capacity, quotas, deadlines) and the flush discipline — are documented
on the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..config import JoinConfig
from ..core.pruning import PruningMetric
from ..obs.tracer import TraceDestination
from ..storage.disk import DEFAULT_PAGE_SIZE
from ..storage.manager import DEFAULT_POOL_PAGES

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Validated, immutable configuration for one :class:`~repro.service.
    service.AnnService`.

    Parameters
    ----------
    kind, metric, node_cache_entries, trace:
        Join-side knobs, validated through the embedded
        :class:`~repro.config.JoinConfig` (see :attr:`join`).  ``trace``
        names the service's trace destination: the artifact (with
        per-batch spans and the ``service`` counter section) is written
        when the service closes.
    max_batch:
        Largest flush the coalescer releases (>= 1; 1 disables batching
        — every request takes the singleton ``nearest_iter`` path).
    max_delay_ms:
        Coalescing window: a non-full batch flushes once its oldest
        request has waited this long (>= 0; 0 = flush whenever the
        worker is free).
    queue_capacity:
        Admission bound on requests admitted but not yet answered (>= 1).
    quota_rps / quota_burst:
        Per-client token bucket: ``quota_rps`` tokens per second refill a
        bucket ``quota_burst`` deep (``None`` disables quotas).
    deadline_ms:
        Default deadline applied to every request that does not carry
        its own; ``None`` disables deadlines by default.
    degrade_budget:
        Node expansions granted to a past-deadline request's budgeted
        best-candidate browse (>= 0; 0 returns an empty approximate
        answer immediately).
    pool_pages / page_size:
        Storage geometry of the service's read-only snapshot manager
        (and of the per-flush query-side scratch index).
    cold_flush:
        Drop the buffer pool before each flush: the harness's cold-run
        measurement discipline, modelling a pool shared with heavy
        unrelated traffic.  A dedicated cache can turn it off.
    compact_threshold:
        Pending delta operations (inserts + tombstones) at which
        :meth:`~repro.service.service.AnnService.insert` /
        :meth:`~repro.service.service.AnnService.delete` trigger an
        automatic compaction: the delta is folded into a freshly built
        base index published as a new epoch, on a background thread
        while flush workers run (>= 1; raise it to batch
        more updates per rebuild, lower it to keep query-time delta
        merging cheap).
    """

    kind: str = "mbrqt"
    metric: PruningMetric = PruningMetric.NXNDIST
    max_batch: int = 32
    max_delay_ms: float = 2.0
    queue_capacity: int = 1024
    quota_rps: float | None = None
    quota_burst: int = 8
    deadline_ms: float | None = None
    degrade_budget: int = 32
    pool_pages: int = DEFAULT_POOL_PAGES
    page_size: int = DEFAULT_PAGE_SIZE
    node_cache_entries: int = 0
    cold_flush: bool = True
    compact_threshold: int = 64
    trace: TraceDestination = None

    #: The embedded join configuration (built in ``__post_init__``); the
    #: single place join-side validation happens, shared with the
    #: offline API.
    join: JoinConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Join-side validation is JoinConfig's; an invalid kind/metric/
        # node_cache_entries/trace raises its exact error.
        join = JoinConfig(
            kind=self.kind,
            metric=self.metric,
            node_cache_entries=self.node_cache_entries,
            trace=self.trace,
            exclude_self=False,
        )
        object.__setattr__(self, "join", join)
        # JoinConfig normalised the metric string onto the enum; mirror it.
        object.__setattr__(self, "metric", join.metric)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.quota_rps is not None and self.quota_rps <= 0:
            raise ValueError(f"quota_rps must be positive (or None), got {self.quota_rps}")
        if self.quota_burst < 1:
            raise ValueError(f"quota_burst must be >= 1, got {self.quota_burst}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive (or None), got {self.deadline_ms}"
            )
        if self.degrade_budget < 0:
            raise ValueError(f"degrade_budget must be >= 0, got {self.degrade_budget}")
        if self.pool_pages < 1:
            raise ValueError(f"pool_pages must be >= 1, got {self.pool_pages}")
        if self.compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {self.compact_threshold}"
            )

    @property
    def max_delay_s(self) -> float:
        return self.max_delay_ms / 1000.0

    def describe(self) -> dict[str, Any]:
        """Flat, JSON-friendly view (used for trace ``meta``)."""
        return {
            "kind": self.kind,
            "metric": str(self.metric.value),
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
            "queue_capacity": self.queue_capacity,
            "quota_rps": self.quota_rps,
            "quota_burst": self.quota_burst,
            "deadline_ms": self.deadline_ms,
            "degrade_budget": self.degrade_budget,
            "pool_pages": self.pool_pages,
            "page_size": self.page_size,
            "node_cache_entries": self.node_cache_entries,
            "cold_flush": self.cold_flush,
            "compact_threshold": self.compact_threshold,
        }

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
