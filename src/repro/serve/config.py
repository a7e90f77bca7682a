"""One validated, frozen configuration object for the serving tier.

:class:`ServeConfig` mirrors the :class:`~repro.service.config.
ServiceConfig` pattern one layer up: the pipeline's knobs (batching,
admission, quotas, deadlines, engine) live in the *embedded*
``ServiceConfig``, validated by it and shared with the single-process
service, and the serve-side knobs cover only the topology:

* ``replicas`` — worker processes answering batches against the mapped
  epoch, each one a flush worker of the cluster's queue.  Scale-out
  happens here.
* ``cache_slots`` / ``cache_slot_bytes`` — geometry of the
  cross-process :class:`~repro.serve.shared_cache.SharedNodeCache`
  (0 slots disables the layer).
* ``trace`` — the cluster's trace destination (``service.trace`` must
  stay unset: there is one trace writer).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..obs.tracer import TraceDestination
from ..service.config import ServiceConfig
from .shared_cache import DEFAULT_SLOT_BYTES

__all__ = ["ServeConfig", "default_service_config"]


def default_service_config() -> ServiceConfig:
    """The pipeline defaults a serving cluster runs with.

    A replica is free as soon as it has answered, so the coalescer
    flushes whatever is queued the moment a worker is idle
    (``max_delay_ms=0``).  Unlike the benchmarking service, a serving
    replica keeps its caches warm across flushes
    (``cold_flush=False``): dropping the pool before every flush models
    a pool shared with unrelated traffic, which is exactly what a
    dedicated replica does *not* have.
    """
    return ServiceConfig(
        max_batch=16, max_delay_ms=0.0, queue_capacity=256, cold_flush=False
    )


@dataclass(frozen=True)
class ServeConfig:
    """Validated, immutable configuration for one serving cluster."""

    replicas: int = 2
    cache_slots: int = 0
    cache_slot_bytes: int = DEFAULT_SLOT_BYTES
    trace: TraceDestination = None
    service: ServiceConfig = field(default_factory=default_service_config)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.cache_slots < 0:
            raise ValueError(f"cache_slots must be >= 0, got {self.cache_slots}")
        if self.cache_slots > 0 and self.cache_slot_bytes < 1:
            raise ValueError(
                f"cache_slot_bytes must be >= 1, got {self.cache_slot_bytes}"
            )
        if self.service.trace is not None:
            raise ValueError(
                "service.trace must be None: a cluster traces to ServeConfig.trace"
            )

    def describe(self) -> dict[str, Any]:
        """Flat, JSON-friendly view (used for trace/bench ``meta``)."""
        return {
            "replicas": self.replicas,
            "cache_slots": self.cache_slots,
            "cache_slot_bytes": self.cache_slot_bytes,
            "service": self.service.describe(),
        }

    def replace(self, **changes: Any) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
