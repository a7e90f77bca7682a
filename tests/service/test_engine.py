"""Engine-level tests: scratch-index packing and flush execution."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.stats import QueryStats
from repro.service import BatchEngine, ServiceConfig
from repro.service.request import Request
from tests.service.test_service import reference_answers


def make_requests(queries, k=1, deadline_s=None):
    return [
        Request(request_id=i, point=np.asarray(q, dtype=np.float64), k=k,
                submitted_s=0.0, deadline_s=deadline_s)
        for i, q in enumerate(queries)
    ]


class TestExecute:
    def test_empty_batch_rejected(self, rng):
        engine = BatchEngine(rng.random((50, 2)), ServiceConfig(page_size=512))
        with pytest.raises(ValueError, match="empty batch"):
            engine.execute([], now_s=0.0)

    def test_queries_outside_target_universe(self, rng):
        # The scratch MBRQT widens its universe to cover both the batch
        # and the target root cell, so a query far outside the target's
        # bounding box still gets its true nearest neighbour.
        points = rng.random((200, 2))  # inside the unit square
        outside = np.array([[5.0, 5.0], [-3.0, 0.5], [0.5, 9.0], [7.0, -2.0]])
        engine = BatchEngine(points, ServiceConfig(page_size=512))
        outcome = engine.execute(make_requests(outside), now_s=0.0)
        expected = reference_answers(points, outside)
        assert outcome.mode == "batched"
        for i, (ids, dists) in enumerate(expected):
            got_ids, got_dists, approximate = outcome.answers[i]
            assert not approximate
            assert (got_ids, got_dists) == (ids, dists)

    def test_every_request_gets_an_answer(self, rng):
        points = rng.random((100, 2))
        engine = BatchEngine(points, ServiceConfig(page_size=512))
        requests = make_requests(rng.random((7, 2)), k=2)
        outcome = engine.execute(requests, now_s=0.0)
        assert set(outcome.answers) == {r.request_id for r in requests}
        assert outcome.n_exact == 7 and outcome.n_degraded == 0

    def test_stats_account_io_and_cpu(self, rng):
        points = rng.random((300, 2))
        engine = BatchEngine(points, ServiceConfig(page_size=512))
        outcome = engine.execute(make_requests(rng.random((8, 2))), now_s=0.0)
        assert isinstance(outcome.stats, QueryStats)
        assert outcome.stats.logical_reads > 0
        assert outcome.stats.node_expansions > 0

    def test_cold_flush_repays_io_every_time(self, rng):
        points = rng.random((300, 2))
        engine = BatchEngine(points, ServiceConfig(page_size=512, cold_flush=True))
        requests = make_requests(rng.random((4, 2)))
        first = engine.execute(requests, now_s=0.0)
        second = engine.execute(requests, now_s=0.0)
        assert second.stats.page_misses == first.stats.page_misses

    def test_warm_flush_hits_the_pool(self, rng):
        points = rng.random((300, 2))
        engine = BatchEngine(points, ServiceConfig(page_size=512, cold_flush=False))
        requests = make_requests(rng.random((4, 2)))
        first = engine.execute(requests, now_s=0.0)
        second = engine.execute(requests, now_s=0.0)
        assert second.stats.page_misses < first.stats.page_misses


def _brute_knn(alive, probe, k):
    """``(distance, id)`` pairs of the k nearest live points."""
    scored = sorted(
        (float(np.sqrt(((pt - probe) ** 2).sum())), pid) for pid, pt in alive.items()
    )
    return scored[:k]


class TestTombstoneMasking:
    """The base epoch is fetched at the requested k and tombstones are
    masked exactly; a request whose first k base neighbours hold a
    tombstone falls back to a browse that skips it."""

    @given(st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_answers_match_brute_force_over_survivors(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        n = data.draw(st.integers(10, 150))
        points = rng.random((n, 2))
        engine = BatchEngine(points, ServiceConfig(page_size=512))
        alive = dict(enumerate(points))
        dead: list[int] = []
        next_id = n
        for __ in range(data.draw(st.integers(1, 4))):
            for op in data.draw(
                st.lists(st.sampled_from(["insert", "delete", "reinsert"]), max_size=10)
            ):
                if op == "delete" and len(alive) > 1:
                    victim = data.draw(st.sampled_from(sorted(alive)))
                    assert engine.delete(victim)
                    del alive[victim]
                    dead.append(victim)
                elif op == "reinsert" and dead:
                    pid = dead.pop(data.draw(st.integers(0, len(dead) - 1)))
                    alive[pid] = rng.random(2)
                    engine.insert(alive[pid], pid)
                else:
                    alive[next_id] = rng.random(2)
                    engine.insert(alive[next_id], next_id)
                    next_id += 1
            if data.draw(st.booleans()):
                engine.compact()
            queries = rng.random((data.draw(st.integers(1, 8)), 2))
            ks = [data.draw(st.integers(1, 4)) for __ in queries]
            # Delete some queries' current nearest neighbours, so their
            # first k base candidates hold a tombstone.
            for q in queries:
                if len(alive) > 1 and data.draw(st.booleans()):
                    ((__, victim),) = _brute_knn(alive, q, 1)
                    assert engine.delete(victim)
                    del alive[victim]
                    dead.append(victim)
            requests = [
                Request(request_id=i, point=q, k=k, submitted_s=0.0, deadline_s=None)
                for i, (q, k) in enumerate(zip(queries, ks))
            ]
            outcome = engine.execute(requests, now_s=0.0)
            for i, (q, k) in enumerate(zip(queries, ks)):
                ids, dists, approximate = outcome.answers[i]
                assert not approximate
                assert dists == tuple(d for d, __ in _brute_knn(alive, q, k))
                for pid, dist in zip(ids, dists):
                    assert float(np.sqrt(((alive[pid] - q) ** 2).sum())) == dist

    @pytest.mark.parametrize("n_queries", [1, 6])
    def test_far_tombstones_cost_no_extra_work(self, rng, n_queries):
        # Tombstones far from every query mask nothing there, so the
        # flush does exactly the work of the same flush with no delta.
        near = rng.random((300, 2))
        far = 50.0 + rng.random((16, 2))
        engine = BatchEngine(np.vstack([near, far]), ServiceConfig(page_size=512))
        requests = make_requests(rng.random((n_queries, 2)), k=2)
        clean = engine.execute(requests, now_s=0.0)
        for pid in range(300, 316):
            assert engine.delete(pid)
        masked = engine.execute(requests, now_s=0.0)
        assert masked.mode == clean.mode
        assert masked.answers == clean.answers
        assert masked.stats.distance_evaluations == clean.stats.distance_evaluations
        assert masked.stats.node_expansions == clean.stats.node_expansions


class TestReadOnlyDiscipline:
    def test_target_manager_is_a_readonly_reopen(self, rng):
        engine = BatchEngine(rng.random((50, 2)), ServiceConfig(page_size=512))
        assert engine.manager.readonly
