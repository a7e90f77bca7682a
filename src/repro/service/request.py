"""Request/answer types and the ticket a caller waits on.

A submitted query becomes an immutable :class:`Request` (what the
engine executes) wrapped in a :class:`PendingRequest` (what the caller
holds).  Answers are immutable too and carry their own cost attribution
— queue wait, end-to-end latency, the batch they rode in — so a client
can see exactly what micro-batching did to its request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Request", "Answer", "PendingRequest", "check_query"]


def check_query(point: Any, k: Any, dims: int) -> tuple[np.ndarray, int]:
    """Validate one query before admission; returns ``(point, k)``.

    The point must have shape ``(dims,)`` with every coordinate finite,
    and ``k`` must be an integer ``>= 1``.  Raises ``ValueError``
    otherwise, so a malformed query is refused at the door instead of
    failing (or answering NaN) inside a batched flush.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (dims,):
        raise ValueError(f"query point must have shape ({dims},), got {point.shape}")
    if not np.isfinite(point).all():
        raise ValueError(f"query point must be finite, got {point.tolist()}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be >= 1 and an integer, got {k!r}")
    return point, int(k)


@dataclass(frozen=True)
class Request:
    """One admitted nearest-neighbour query, on the service clock.

    ``deadline_s`` is *absolute* (same clock as ``submitted_s``);
    ``None`` means the request never degrades.
    """

    request_id: int
    point: np.ndarray
    k: int
    submitted_s: float
    deadline_s: float | None

    def past_deadline(self, now_s: float) -> bool:
        """Whether the request's deadline has expired at ``now_s``."""
        return self.deadline_s is not None and now_s > self.deadline_s


@dataclass(frozen=True)
class Answer:
    """The service's reply to one request.

    ``approximate`` marks a gracefully degraded answer: the request was
    past its deadline when its batch flushed, so it received the best
    candidates a budgeted browse could find instead of blocking the
    batch on an exact search.  Non-degraded answers are exact and
    bit-identical to a standalone
    :func:`~repro.index.queries.nearest_iter` lookup.
    """

    request_id: int
    neighbor_ids: tuple[int, ...]
    distances: tuple[float, ...]
    approximate: bool
    queue_wait_s: float
    latency_s: float
    batch_size: int

    @property
    def found(self) -> int:
        """How many neighbours were returned (may be < k when degraded)."""
        return len(self.neighbor_ids)


_Callback = Callable[["PendingRequest"], object]

_CALLBACK_LOCK = threading.Lock()
"""Guards every ticket's callback list: a lock per ticket would cost
memory on each of the many tickets that never get a callback."""


class PendingRequest:
    """The caller-side ticket: blocks until the service answers.

    Thread-safe: the service fulfils (or fails) it from a flush worker
    (or from an in-line flush) and every waiter wakes.
    ``result`` raises ``TimeoutError`` rather than returning ``None`` so
    a caller can never mistake "not answered yet" for an empty answer;
    a ticket completed via :meth:`fail` re-raises the stored exception —
    notably :class:`~repro.service.queueing.ServiceClosed` for requests
    still queued at shutdown — so no admitted request is ever left
    blocking forever.
    """

    __slots__ = ("request", "_event", "_answer", "_error", "_callbacks")

    def __init__(self, request: Request) -> None:
        self.request = request
        self._event = threading.Event()
        self._answer: Answer | None = None
        self._error: BaseException | None = None
        # Written under _CALLBACK_LOCK only.
        self._callbacks: list[_Callback] | None = None  # guarded-by: owner

    def fulfil(self, answer: Answer) -> None:
        """Deliver the answer and wake every waiter (service-side)."""
        self._answer = answer
        self._complete()

    def fail(self, error: BaseException) -> None:
        """Complete the ticket exceptionally and wake every waiter.

        The stored exception is re-raised from every :meth:`result` call
        — deterministic completion for requests the service can no
        longer answer (shutdown, a flush that died mid-execution).
        """
        self._error = error
        self._complete()

    def _complete(self) -> None:
        with _CALLBACK_LOCK:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks or ():
            fn(self)

    def add_done_callback(self, fn: _Callback) -> None:
        """Call ``fn(ticket)`` once the ticket completes.

        ``fn`` runs on the thread that completes the ticket (a flush
        worker), or at once on this thread when it already has.
        """
        with _CALLBACK_LOCK:
            if not self._event.is_set():
                self._callbacks = [*(self._callbacks or ()), fn]
                return
        fn(self)

    def done(self) -> bool:
        """Whether the ticket has completed (answered *or* failed)."""
        return self._event.is_set()

    def result(self, timeout_s: float | None = None) -> Answer:
        """Block until completed; raise ``TimeoutError`` after ``timeout_s``.

        Re-raises the stored exception when the ticket was failed.
        """
        if not self._event.wait(timeout_s):
            raise TimeoutError(
                f"request {self.request.request_id} not answered within {timeout_s}s"
            )
        if self._error is not None:
            raise self._error
        answer = self._answer
        assert answer is not None
        return answer
