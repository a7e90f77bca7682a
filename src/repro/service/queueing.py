"""Admission control and the micro-batch coalescing policy.

* **Admission control** — :class:`MicroBatchQueue` bounds the requests
  admitted but not yet answered; :class:`Overloaded` sheds at the door
  instead of growing the queue (an online service must shed load, not
  accumulate unbounded latency).  :class:`TokenBucket` is the
  per-client quota the service checks first.
* **Coalescing policy** — a batch is released when it is *full*
  (``max_batch`` requests) or *ripe* (the oldest queued request has
  waited ``max_delay_s``); the sweep in ``BENCH_service.json``
  quantifies that latency/amortisation trade.

The queue itself is not locked — the owning :class:`~repro.service.
service.AnnService` serialises access under its own condition variable,
which also carries the flush workers' wakeups.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .request import PendingRequest

__all__ = ["Overloaded", "ServiceClosed", "MicroBatchQueue", "TokenBucket"]


class ServiceClosed(RuntimeError):
    """The service shut down before this admitted request was flushed.

    Raised from ``ticket.result()`` — never silently dropped: a caller
    holding a ticket always learns its fate, either an answer or this
    (see ``AnnService.close``).  ``request_id == -1`` means the request
    was never admitted: the service was already closed, or no flush
    worker survives.
    """

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        super().__init__(
            "service is closed"
            if request_id < 0
            else f"service closed before request {request_id} was flushed"
        )


class Overloaded(RuntimeError):
    """Admission rejected: over capacity, over quota, or past deadline.

    Carries ``capacity`` so callers (and load generators) can report the
    bound that was hit.  Backpressure is explicit — the caller decides
    whether to retry, shed, or block.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        super().__init__(
            f"service queue is at capacity ({capacity}); request rejected"
        )


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` depth.

    ``now_fn`` is injectable so tests drive time deterministically; the
    service passes its own clock.
    """

    __slots__ = ("rate", "burst", "tokens", "_last_s", "_now")

    def __init__(self, rate: float, burst: int, now_fn: Callable[[], float]) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._now = now_fn
        self.tokens = float(burst)
        self._last_s = float(now_fn())

    def allow(self) -> bool:
        """Spend one token if available; refill lazily from elapsed time."""
        now_s = float(self._now())
        self.tokens = min(
            float(self.burst), self.tokens + (now_s - self._last_s) * self.rate
        )
        self._last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class MicroBatchQueue:
    """FIFO of pending requests with a bound and a release policy.

    ``capacity`` bounds the requests admitted but not yet answered:
    :meth:`take` hands a batch to a flush worker without freeing its
    slots, and :meth:`complete` frees them once the batch is answered
    (or failed).
    """

    __slots__ = ("capacity", "max_batch", "max_delay_s", "_pending", "_unanswered")

    def __init__(self, capacity: int, max_batch: int, max_delay_s: float) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.capacity = capacity
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        # Owner-confined: AnnService serialises access under its _cond.
        self._pending: deque[PendingRequest] = deque()  # guarded-by: owner
        self._unanswered = 0  # guarded-by: owner

    def __len__(self) -> int:
        """Queued requests (taken batches are in flight, not queued)."""
        return len(self._pending)

    @property
    def unanswered(self) -> int:
        """Admitted requests not yet completed: queued plus in flight."""
        return self._unanswered

    def full(self) -> bool:
        """Whether one more admission would exceed ``capacity``."""
        return self._unanswered >= self.capacity

    def offer(self, pending: PendingRequest) -> None:
        """Admit one request or raise :class:`Overloaded` (never grows past
        ``capacity``)."""
        if self.full():
            raise Overloaded(self.capacity)
        self._pending.append(pending)
        self._unanswered += 1

    def complete(self, n: int) -> None:
        """Free the slots of ``n`` taken requests that are now answered."""
        self._unanswered -= n

    def requeue(self, batch: list[PendingRequest]) -> None:
        """Put a taken batch back at the head, in order (its flush worker
        died); its slots stay held."""
        self._pending.extendleft(reversed(batch))

    def oldest_wait_s(self, now_s: float) -> float:
        """How long the head of the queue has been waiting (0 if empty)."""
        if not self._pending:
            return 0.0
        return max(0.0, now_s - self._pending[0].request.submitted_s)

    def ready(self, now_s: float) -> bool:
        """Whether the release policy would flush a batch right now."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        return self.oldest_wait_s(now_s) >= self.max_delay_s

    def ripe_in_s(self, now_s: float) -> float | None:
        """Seconds until the window policy ripens (None if empty).

        A flush worker uses this as its condition-wait timeout, so it
        sleeps exactly until the oldest request's window expires instead
        of polling.
        """
        if not self._pending:
            return None
        return max(0.0, self.max_delay_s - self.oldest_wait_s(now_s))

    def take(self, now_s: float, force: bool = False) -> list[PendingRequest]:
        """Pop the next batch (up to ``max_batch``), or ``[]``.

        ``force=True`` bypasses the window policy — used by explicit
        flushes and shutdown draining; the batch size bound still holds.
        """
        if not force and not self.ready(now_s):
            return []
        batch: list[PendingRequest] = []
        while self._pending and len(batch) < self.max_batch:
            batch.append(self._pending.popleft())
        return batch

    def take_all(self) -> list[PendingRequest]:
        """Pop every queued request and free its slot: the caller fails
        them (shutdown, or no flush worker left)."""
        batch = list(self._pending)
        self._pending.clear()
        self._unanswered -= len(batch)
        return batch
