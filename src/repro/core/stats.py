"""Cost counters shared by every algorithm in the library.

The paper reports CPU time and I/O time on its 2007 testbed.  Absolute
wall-clock numbers do not transfer across hardware (or to pure Python), so
every algorithm here also maintains *machine-independent* counters — the
quantities the paper's own explanations appeal to when accounting for the
observed speedups:

* ``distance_evaluations`` — number of pairwise metric evaluations
  (point–point, point–MBR, or MBR–MBR).  Vectorised kernels add the batch
  size, so the count equals what a scalar implementation would do.
* ``node_expansions`` — index nodes whose children were fetched.
* ``lpq_enqueues`` / ``lpq_filter_discards`` — Local Priority Queue traffic
  and the effectiveness of the Filter Stage (Section 3.3.3).
* ``lpq_push_batches`` / ``lpq_pops`` — how that traffic arrived (batch
  pushes) and left (pops); the ratio of enqueues to push batches is the
  batch width the columnar LPQ's fast paths amortise over.
* ``pruned_entries`` — candidate entries rejected by the pruning bound.
* page I/O counters, filled in by the storage layer.

:class:`QueryStats` instances are plain mutable records; algorithms create
one per query (or accept one from the caller) and the benchmark harness
aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

__all__ = ["QueryStats"]


@dataclass(slots=True)
class QueryStats:
    """Mutable bundle of cost counters for one ANN/AkNN execution.

    ``slots=True`` makes a typo'd counter (``stats.node_expansion``) an
    ``AttributeError`` instead of a silently dropped cost; the static
    counter-discipline rule in :mod:`repro.analysis` catches the same
    mistake at review time.  Ad-hoc per-method values go in ``extra``.
    """

    distance_evaluations: int = 0
    node_expansions: int = 0
    lpq_enqueues: int = 0
    lpq_filter_discards: int = 0
    pruned_entries: int = 0
    result_pairs: int = 0

    # LPQ batch traffic: how many push operations carried the enqueued
    # entries (so enqueues / push_batches is the mean batch width the
    # columnar fast paths see), and how many entries left queues via
    # ``pop``.  The trace layer reads these per span/stage to attribute
    # queue churn; they are maintained unconditionally because a bare
    # integer increment is noise next to the work each batch does.
    lpq_push_batches: int = 0
    lpq_pops: int = 0

    # Storage-layer counters (filled by BufferPool / PageStore).
    logical_reads: int = 0
    page_misses: int = 0
    pages_written: int = 0

    # Decoded-node cache traffic (filled from the StorageManager's
    # DecodedNodeCache; zero when the cache layer is disabled).
    node_cache_hits: int = 0
    node_cache_misses: int = 0

    # Timing: measured CPU seconds plus simulated I/O seconds from the
    # disk cost model.
    cpu_time_s: float = 0.0
    io_time_s: float = 0.0

    extra: dict[str, float] = field(default_factory=dict)

    def record_distances(self, count: int) -> None:
        """Count ``count`` pairwise metric evaluations (batch size of a
        vectorised kernel call)."""
        self.distance_evaluations += count

    def add_io(self, io: Mapping[str, Any]) -> None:
        """Fold one storage I/O snapshot into these counters.

        ``io`` is a :meth:`~repro.storage.manager.StorageManager.
        io_snapshot` mapping; taking the mapping rather than the manager
        keeps the core free of storage imports.
        """
        self.logical_reads += io["logical_reads"]
        self.page_misses += io["page_misses"]
        self.io_time_s += io["io_time_s"]
        self.node_cache_hits += io["node_cache_hits"]
        self.node_cache_misses += io["node_cache_misses"]

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another stats record into this one (in place)."""
        for f in fields(self):
            if f.name == "extra":
                self.extra.update(other.extra)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, float]:
        """Flatten counters (plus ``extra`` keys) into one plain dict."""
        out: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"
        }
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, counters: Mapping[str, float]) -> "QueryStats":
        """Rebuild a record from its :meth:`as_dict` flattening (unknown
        keys land in ``extra``)."""
        names = {f.name for f in fields(cls) if f.name != "extra"}
        stats = cls()
        for key, value in counters.items():
            if key in names:
                setattr(stats, key, value)
            else:
                stats.extra[key] = value
        return stats

    @property
    def total_time_s(self) -> float:
        """CPU time plus simulated I/O time — the paper's stacked-bar height."""
        return self.cpu_time_s + self.io_time_s

    def __str__(self) -> str:
        parts = [
            f"cpu={self.cpu_time_s:.3f}s",
            f"io={self.io_time_s:.3f}s(sim)",
            f"dist={self.distance_evaluations}",
            f"expand={self.node_expansions}",
            f"misses={self.page_misses}/{self.logical_reads}",
        ]
        return "QueryStats(" + ", ".join(parts) + ")"
