"""Tests for the bounded admission queue and the coalescing policy."""

import numpy as np
import pytest

from repro.service import MicroBatchQueue, Overloaded, PendingRequest, Request


def make_pending(request_id: int, submitted_s: float = 0.0) -> PendingRequest:
    return PendingRequest(
        Request(
            request_id=request_id,
            point=np.zeros(2),
            k=1,
            submitted_s=submitted_s,
            deadline_s=None,
        )
    )


class TestAdmission:
    def test_bound_is_hard(self):
        q = MicroBatchQueue(capacity=2, max_batch=8, max_delay_s=1.0)
        q.offer(make_pending(0))
        q.offer(make_pending(1))
        with pytest.raises(Overloaded) as exc:
            q.offer(make_pending(2))
        assert exc.value.capacity == 2
        assert len(q) == 2  # the rejected request was never admitted

    def test_rejection_message_names_capacity(self):
        q = MicroBatchQueue(capacity=1, max_batch=1, max_delay_s=0.0)
        q.offer(make_pending(0))
        with pytest.raises(Overloaded, match="capacity \\(1\\)"):
            q.offer(make_pending(1))

    def test_take_frees_capacity(self):
        # A taken batch is in flight: its slots free only once answered.
        q = MicroBatchQueue(capacity=1, max_batch=1, max_delay_s=0.0)
        q.offer(make_pending(0))
        assert [p.request.request_id for p in q.take(0.0)] == [0]
        assert len(q) == 0 and q.unanswered == 1
        with pytest.raises(Overloaded):
            q.offer(make_pending(1))
        q.complete(1)
        q.offer(make_pending(1))  # does not raise

    def test_requeue_puts_batch_back_at_head_in_order(self):
        q = MicroBatchQueue(capacity=8, max_batch=2, max_delay_s=0.0)
        for i in range(3):
            q.offer(make_pending(i))
        batch = q.take(0.0)
        q.requeue(batch)
        assert q.unanswered == 3
        assert [p.request.request_id for p in q.take_all()] == [0, 1, 2]
        assert q.unanswered == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0, "max_batch": 1, "max_delay_s": 0.0},
            {"capacity": 1, "max_batch": 0, "max_delay_s": 0.0},
            {"capacity": 1, "max_batch": 1, "max_delay_s": -1.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatchQueue(**kwargs)


class TestCoalescingPolicy:
    def test_not_ready_before_window(self):
        q = MicroBatchQueue(capacity=8, max_batch=4, max_delay_s=1.0)
        q.offer(make_pending(0, submitted_s=10.0))
        assert not q.ready(10.5)
        assert q.take(10.5) == []

    def test_ready_when_full(self):
        q = MicroBatchQueue(capacity=8, max_batch=2, max_delay_s=100.0)
        q.offer(make_pending(0, submitted_s=0.0))
        assert not q.ready(0.0)
        q.offer(make_pending(1, submitted_s=0.0))
        assert q.ready(0.0)

    def test_ready_when_oldest_ripens(self):
        q = MicroBatchQueue(capacity=8, max_batch=4, max_delay_s=1.0)
        q.offer(make_pending(0, submitted_s=10.0))
        assert q.ready(11.0)
        assert [p.request.request_id for p in q.take(11.0)] == [0]

    def test_take_respects_max_batch_and_fifo(self):
        q = MicroBatchQueue(capacity=8, max_batch=2, max_delay_s=0.0)
        for i in range(5):
            q.offer(make_pending(i))
        assert [p.request.request_id for p in q.take(0.0)] == [0, 1]
        assert [p.request.request_id for p in q.take(0.0)] == [2, 3]
        assert [p.request.request_id for p in q.take(0.0)] == [4]
        assert q.take(0.0) == []

    def test_force_bypasses_window_not_size(self):
        q = MicroBatchQueue(capacity=8, max_batch=2, max_delay_s=100.0)
        for i in range(3):
            q.offer(make_pending(i, submitted_s=0.0))
        batch = q.take(0.0, force=True)
        assert [p.request.request_id for p in batch] == [0, 1]

    def test_ripe_in_s(self):
        q = MicroBatchQueue(capacity=8, max_batch=4, max_delay_s=2.0)
        assert q.ripe_in_s(0.0) is None
        q.offer(make_pending(0, submitted_s=10.0))
        assert q.ripe_in_s(10.5) == pytest.approx(1.5)
        assert q.ripe_in_s(13.0) == 0.0

    def test_oldest_wait_never_negative(self):
        q = MicroBatchQueue(capacity=8, max_batch=4, max_delay_s=2.0)
        q.offer(make_pending(0, submitted_s=10.0))
        assert q.oldest_wait_s(9.0) == 0.0
