"""End-to-end tests for the micro-batching ANN service.

The acceptance criteria of the serving layer live here:

* **Bit-identity** — non-degraded service answers (singleton and
  batched flushes alike) equal per-request ``nearest_iter`` answers over
  an identically built index, bitwise.
* **Determinism under a fake clock** — deadline degradation and
  backpressure are decided by injected time, not races: past-deadline
  requests come back flagged approximate, over-capacity submissions
  raise ``Overloaded``, and the queue never exceeds its bound.
"""

import json

import numpy as np
import pytest

from repro.api import build_index
from repro.data import gstd
from repro.index.queries import nearest_iter
from repro.obs import validate_trace
from repro.service import AnnService, FakeClock, Overloaded, ServiceClosed, ServiceConfig
from repro.storage.manager import StorageManager

N_TARGET = 400
DIMS = 2


@pytest.fixture(scope="module")
def target_points():
    return gstd.generate(N_TARGET, DIMS, "uniform", seed=11)


@pytest.fixture(scope="module")
def query_points():
    return gstd.generate(40, DIMS, "uniform", seed=12)


def reference_answers(points, queries, k=1, kind="mbrqt", page_size=512):
    """Per-request ``nearest_iter`` ground truth over a separate index."""
    storage = StorageManager(page_size=page_size, pool_pages=64)
    index = build_index(points, storage, kind=kind)
    out = []
    for q in queries:
        ids, dists = [], []
        for dist, pid, __ in nearest_iter(index, q):
            ids.append(pid)
            dists.append(dist)
            if len(ids) >= k:
                break
        out.append((tuple(ids), tuple(dists)))
    return out


def service_config(**overrides):
    defaults = dict(page_size=512, max_delay_ms=0.0, queue_capacity=256)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def drain(service, tickets):
    """Pump until every ticket is answered; return the answers in order."""
    while not all(t.done() for t in tickets):
        assert service.pump(force=True) is not None
    return [t.result(timeout_s=0) for t in tickets]


#: ``(kind, k, max_batch)`` per case.  ``max_batch=8`` spreads the
#: queries over several flushes; ``max_batch=64`` answers every query in
#: one large flush.
BATCHED_CASES = [
    pytest.param(kind, k, 8, id=f"{k}-{kind}")
    for k in (1, 3)
    for kind in ("mbrqt", "rstar")
] + [pytest.param("mbrqt", 1, 64, id="one-flush-64")]


class TestBitIdentity:
    @pytest.mark.parametrize(("kind", "k", "max_batch"), BATCHED_CASES)
    def test_batched_equals_nearest_iter(
        self, target_points, query_points, kind, k, max_batch
    ):
        expected = reference_answers(target_points, query_points, k=k, kind=kind)
        cfg = service_config(kind=kind, max_batch=max_batch)
        service = AnnService(target_points, cfg)
        tickets = service.submit_many(query_points, k=k)
        answers = drain(service, tickets)
        service.close()
        assert service.counters.batched_flushes > 0
        assert service.counters.batches == -(-len(query_points) // max_batch)
        for answer, (ids, dists) in zip(answers, expected):
            assert not answer.approximate
            assert answer.neighbor_ids == ids
            assert answer.distances == dists  # bitwise: no tolerance

    def test_singleton_flush_equals_nearest_iter(self, target_points, query_points):
        expected = reference_answers(target_points, query_points[:3])
        service = AnnService(target_points, service_config(max_batch=1))
        answers = [service.query(q) for q in query_points[:3]]
        service.close()
        assert service.counters.singleton_flushes == 3
        assert service.counters.batched_flushes == 0
        for answer, (ids, dists) in zip(answers, expected):
            assert (answer.neighbor_ids, answer.distances) == (ids, dists)

    def test_mixed_k_in_one_batch(self, target_points, query_points):
        ks = [1, 2, 3, 1, 4]
        queries = query_points[: len(ks)]
        service = AnnService(target_points, service_config(max_batch=8))
        tickets = [service.submit(q, k=k) for q, k in zip(queries, ks)]
        answers = drain(service, tickets)
        service.close()
        for answer, q, k in zip(answers, queries, ks):
            (ids, dists) = reference_answers(target_points, [q], k=k)[0]
            assert answer.found == k
            assert (answer.neighbor_ids, answer.distances) == (ids, dists)


class TestDeadlines:
    def test_past_deadline_is_flagged_approximate(self, target_points, query_points):
        clock = FakeClock()
        cfg = service_config(max_batch=8, deadline_ms=10.0, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=clock)
        late = [service.submit(q) for q in query_points[:2]]
        clock.advance(0.05)  # blow the 10 ms deadline
        fresh = [service.submit(q) for q in query_points[2:4]]
        report = service.pump(force=True)
        service.close()
        assert report is not None and report.batch_size == 4
        assert report.n_degraded == 2 and report.n_exact == 2
        for ticket in late:
            assert ticket.result(timeout_s=0).approximate
        for ticket in fresh:
            assert not ticket.result(timeout_s=0).approximate
        assert service.counters.degraded == 2

    def test_degraded_prefix_is_still_correct(self, target_points, query_points):
        # The budgeted browse yields the true ordered k-NN prefix: short
        # answers are allowed, wrong ones are not.
        clock = FakeClock()
        cfg = service_config(deadline_ms=1.0, degrade_budget=1_000_000)
        service = AnnService(target_points, cfg, clock=clock)
        ticket = service.submit(query_points[0], k=3)
        clock.advance(1.0)
        service.pump(force=True)
        service.close()
        answer = ticket.result(timeout_s=0)
        (ids, dists) = reference_answers(target_points, [query_points[0]], k=3)[0]
        assert answer.approximate
        assert answer.neighbor_ids == ids[: answer.found]
        assert answer.distances == dists[: answer.found]

    def test_zero_budget_returns_empty_answer(self, target_points, query_points):
        clock = FakeClock()
        cfg = service_config(deadline_ms=1.0, degrade_budget=0)
        service = AnnService(target_points, cfg, clock=clock)
        ticket = service.submit(query_points[0])
        clock.advance(1.0)
        service.pump(force=True)
        service.close()
        answer = ticket.result(timeout_s=0)
        assert answer.approximate and answer.found == 0

    def test_per_request_deadline_overrides_config(self, target_points, query_points):
        clock = FakeClock()
        cfg = service_config(deadline_ms=1.0)
        service = AnnService(target_points, cfg, clock=clock)
        never = service.submit(query_points[0], deadline_ms=None)
        tight = service.submit(query_points[1])
        clock.advance(1.0)
        service.pump(force=True)
        service.close()
        assert not never.result(timeout_s=0).approximate
        assert tight.result(timeout_s=0).approximate

    def test_all_degraded_flush_mode(self, target_points, query_points):
        clock = FakeClock()
        service = AnnService(target_points, service_config(deadline_ms=1.0), clock=clock)
        for q in query_points[:3]:
            service.submit(q)
        clock.advance(1.0)
        report = service.pump(force=True)
        service.close()
        assert report is not None and report.mode == "degraded"
        assert service.counters.degraded_flushes == 1

    def test_invalid_deadline_rejected_at_submit(self, target_points, query_points):
        service = AnnService(target_points, service_config())
        with pytest.raises(ValueError, match="deadline_ms"):
            service.submit(query_points[0], deadline_ms=0.0)
        service.close()


class TestBackpressure:
    def test_overloaded_and_bound_never_exceeded(self, target_points, query_points):
        cfg = service_config(queue_capacity=2, max_batch=8, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=FakeClock())
        service.submit(query_points[0])
        service.submit(query_points[1])
        assert len(service) == 2
        with pytest.raises(Overloaded) as exc:
            service.submit(query_points[2])
        assert exc.value.capacity == 2
        assert len(service) == 2
        assert service.counters.shed_overload == 1
        assert service.counters.submitted == 3
        assert service.counters.admitted == 2
        assert service.counters.max_queue_len == 2
        service.pump(force=True)  # flush frees capacity
        service.submit(query_points[2])
        assert len(service) == 1
        service.close()

    def test_submit_many_attaches_admitted_on_overload(
        self, target_points, query_points
    ):
        cfg = service_config(queue_capacity=3, max_batch=8, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=FakeClock())
        with pytest.raises(Overloaded) as exc:
            service.submit_many(query_points[:5])
        assert len(exc.value.admitted) == 3
        answers = drain(service, exc.value.admitted)
        service.close()
        assert all(not a.approximate for a in answers)


class TestLifecycle:
    def test_threaded_serving_round_trip(self, target_points, query_points):
        expected = reference_answers(target_points, query_points[:8])
        cfg = service_config(max_batch=4, max_delay_ms=1.0)
        service = AnnService(target_points, cfg)
        with service.serving():
            tickets = [service.submit(q) for q in query_points[:8]]
            answers = [t.result(timeout_s=30.0) for t in tickets]
        for answer, (ids, dists) in zip(answers, expected):
            assert (answer.neighbor_ids, answer.distances) == (ids, dists)
        assert service.counters.answered == 8

    def test_close_fails_pending_requests_with_service_closed(
        self, target_points, query_points
    ):
        # The shutdown-hang regression: requests admitted but not yet
        # flushed at close must complete *deterministically* — with
        # ServiceClosed, counted as cancelled — never block forever.
        cfg = service_config(max_batch=4, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=FakeClock())
        tickets = [service.submit(q) for q in query_points[:6]]
        service.close()
        assert all(t.done() for t in tickets)
        assert len(service) == 0
        for ticket in tickets:
            with pytest.raises(ServiceClosed) as exc:
                ticket.result(timeout_s=0)
            assert exc.value.request_id == ticket.request.request_id
        assert service.counters.cancelled == 6
        assert service.counters.answered == 0

    def test_close_after_drain_cancels_nothing(self, target_points, query_points):
        cfg = service_config(max_batch=4, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=FakeClock())
        tickets = [service.submit(q) for q in query_points[:4]]
        answers = drain(service, tickets)
        service.close()
        assert service.counters.cancelled == 0
        assert len(answers) == 4 and all(a.found == 1 for a in answers)

    def test_flush_failure_fails_tickets_instead_of_hanging(
        self, target_points, query_points, monkeypatch
    ):
        # A flush that dies mid-execution must fail its batch's tickets
        # with the engine's error, not abandon them.
        service = AnnService(target_points, service_config(max_batch=4))
        boom = RuntimeError("engine exploded")

        def explode(requests, now_s, trace=None):
            raise boom

        monkeypatch.setattr(service.engine, "execute", explode)
        tickets = [service.submit(q) for q in query_points[:2]]
        with pytest.raises(RuntimeError, match="engine exploded"):
            service.pump(force=True)
        for ticket in tickets:
            assert ticket.done()
            with pytest.raises(RuntimeError, match="engine exploded"):
                ticket.result(timeout_s=0)
        service.close()

    def test_close_is_idempotent_and_submit_after_close_raises(
        self, target_points, query_points
    ):
        service = AnnService(target_points, service_config())
        service.close()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(query_points[0])

    def test_context_manager_closes(self, target_points, query_points):
        with AnnService(target_points, service_config()) as service:
            assert service.query(query_points[0]).found == 1
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(query_points[0])

    def test_double_start_rejected(self, target_points):
        service = AnnService(target_points, service_config())
        service.start()
        with pytest.raises(RuntimeError, match="already running"):
            service.start()
        service.close()

    def test_result_timeout(self, target_points, query_points):
        cfg = service_config(max_batch=8, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=FakeClock())
        ticket = service.submit(query_points[0])
        with pytest.raises(TimeoutError):
            ticket.result(timeout_s=0.01)
        service.close()

    def test_submit_validation(self, target_points, query_points):
        service = AnnService(target_points, service_config())
        with pytest.raises(ValueError, match="k must be >= 1"):
            service.submit(query_points[0], k=0)
        with pytest.raises(ValueError, match="shape"):
            service.submit(np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            service.submit(np.array([np.nan, 0.0]))
        service.close()

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            AnnService(np.empty((0, 2)), service_config())


class TestAnswerAttribution:
    def test_queue_wait_and_batch_size_on_fake_clock(self, target_points, query_points):
        clock = FakeClock()
        cfg = service_config(max_batch=4, max_delay_ms=1000.0)
        service = AnnService(target_points, cfg, clock=clock)
        first = service.submit(query_points[0])
        clock.advance(0.5)
        second = service.submit(query_points[1])
        clock.advance(0.25)
        service.pump(force=True)
        service.close()
        a, b = first.result(timeout_s=0), second.result(timeout_s=0)
        assert a.queue_wait_s == pytest.approx(0.75)
        assert b.queue_wait_s == pytest.approx(0.25)
        assert a.batch_size == b.batch_size == 2


class TestTracing:
    def test_service_trace_artifact(self, tmp_path, target_points, query_points):
        out = tmp_path / "service_trace.json"
        cfg = service_config(max_batch=4, trace=str(out))
        service = AnnService(target_points, cfg)
        tickets = [service.submit(q) for q in query_points[:6]]
        drain(service, tickets)
        service.close()
        doc = json.loads(out.read_text())
        assert validate_trace(doc) is doc
        assert doc["service"]["submitted"] == 6.0
        assert doc["service"]["answered"] == 6.0
        assert doc["service"]["batches"] >= 1.0
        assert doc["meta"]["api"] == "AnnService"
        batch_spans = [s for s in doc["root"]["children"] if s["name"] == "batch"]
        assert batch_spans, "every flush must record a batch span"
        stages = batch_spans[0]["stages"]
        assert "queue_wait" in stages and "coalesce" in stages and "traverse" in stages

    def test_untraced_by_default(self, target_points, query_points):
        service = AnnService(target_points, service_config())
        service.query(query_points[0])
        service.close()  # no artifact, no error
