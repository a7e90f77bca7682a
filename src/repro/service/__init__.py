"""Online ANN query service with a micro-batched MBA execution core.

The serving layer between "reproduction" and "system": an arriving
stream of nearest-neighbour requests is coalesced into small ad-hoc
query sets and answered with the paper's batched traversal, turning
MBA's amortisation thesis into an online latency/throughput win.

Pipeline (the only one: the multi-process tier in :mod:`repro.serve`
swaps the flush workers, nothing else)::

    submit() ──> admission: quota → capacity → deadline ──> Overloaded
                    │
              one MicroBatchQueue (max_batch / max_delay_ms)
                    │
          flush workers: an idle worker pulls the next batch
          (in-process: one engine thread; cluster: one per replica)
                    │
            scratch MBRQT over the batch + one mba_join over a
            read-only epoch (singleton flushes use nearest_iter)

See :class:`AnnService` for the service, :class:`ServiceConfig` for the
knobs, and :mod:`repro.bench.service` for the closed-loop load
generator behind ``BENCH_service.json``.
"""

from __future__ import annotations

from .clock import Clock, FakeClock, SystemClock
from .config import ServiceConfig
from .engine import BatchEngine, FlushOutcome
from .queueing import MicroBatchQueue, Overloaded, ServiceClosed, TokenBucket
from .request import Answer, PendingRequest, Request
from .service import AnnService, BatchReport, ServiceCounters

__all__ = [
    "AnnService",
    "Answer",
    "BatchEngine",
    "BatchReport",
    "Clock",
    "FakeClock",
    "FlushOutcome",
    "MicroBatchQueue",
    "Overloaded",
    "PendingRequest",
    "Request",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceCounters",
    "SystemClock",
    "TokenBucket",
]
