"""One validated, frozen configuration object for the serving tier.

:class:`ServeConfig` mirrors the :class:`~repro.service.config.
ServiceConfig` pattern one layer up: the engine-side knobs live in an
*embedded* ``ServiceConfig`` (validated by it, shared with the
single-process service), and the serve-side knobs cover the topology
and the admission policy of the front-end:

* ``replicas`` — worker processes answering batches against the mapped
  epoch.  Scale-out happens here.
* ``cache_slots`` / ``cache_slot_bytes`` — geometry of the
  cross-process :class:`~repro.serve.shared_cache.SharedNodeCache`
  (0 slots disables the layer).
* ``max_batch`` — the dispatcher's micro-batch bound per replica send.
* ``admission_capacity`` — bound on requests admitted but not yet
  answered; submissions beyond it shed with
  :class:`~repro.service.queueing.Overloaded` *before* queueing.
* ``quota_rps`` / ``quota_burst`` — per-client token bucket (``None``
  disables quotas).
* ``deadline_ms`` — deadline-aware shedding: a request whose estimated
  queue wait already exceeds this is shed at admission rather than
  queued to miss its deadline quietly.
* ``drain_timeout_s`` — upper bound on the graceful-drain wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..obs.tracer import TraceDestination
from ..service.config import ServiceConfig
from .shared_cache import DEFAULT_SLOT_BYTES

__all__ = ["ServeConfig", "default_service_config"]


def default_service_config() -> ServiceConfig:
    """The engine-side defaults a serving replica wants.

    Unlike the benchmarking service, a serving replica keeps its caches
    warm across flushes (``cold_flush=False``): the measurement
    discipline of dropping the pool before every flush models a shared
    pool under unrelated traffic, which is exactly what a dedicated
    replica does *not* have.
    """
    return ServiceConfig(cold_flush=False)


@dataclass(frozen=True)
class ServeConfig:
    """Validated, immutable configuration for one serving cluster."""

    replicas: int = 2
    cache_slots: int = 0
    cache_slot_bytes: int = DEFAULT_SLOT_BYTES
    max_batch: int = 16
    admission_capacity: int = 256
    quota_rps: float | None = None
    quota_burst: int = 8
    deadline_ms: float | None = None
    drain_timeout_s: float = 10.0
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
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.admission_capacity < 1:
            raise ValueError(
                f"admission_capacity must be >= 1, got {self.admission_capacity}"
            )
        if self.quota_rps is not None and self.quota_rps <= 0:
            raise ValueError(
                f"quota_rps must be positive (or None), got {self.quota_rps}"
            )
        if self.quota_burst < 1:
            raise ValueError(f"quota_burst must be >= 1, got {self.quota_burst}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive (or None), got {self.deadline_ms}"
            )
        if self.drain_timeout_s <= 0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )

    def describe(self) -> dict[str, Any]:
        """Flat, JSON-friendly view (used for trace/bench ``meta``)."""
        return {
            "replicas": self.replicas,
            "cache_slots": self.cache_slots,
            "cache_slot_bytes": self.cache_slot_bytes,
            "max_batch": self.max_batch,
            "admission_capacity": self.admission_capacity,
            "quota_rps": self.quota_rps,
            "quota_burst": self.quota_burst,
            "deadline_ms": self.deadline_ms,
            "drain_timeout_s": self.drain_timeout_s,
            "service": self.service.describe(),
        }

    def replace(self, **changes: Any) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
