"""The service write path: live updates, tombstones, and epoch hot swaps."""

import json
import threading
import time

import numpy as np
import pytest

from repro.data import gstd
from repro.obs import validate_trace
from repro.service import AnnService, FakeClock

from tests.service.test_service import reference_answers, service_config

N_TARGET = 300
DIMS = 2


@pytest.fixture(scope="module")
def target_points():
    return gstd.generate(N_TARGET, DIMS, "uniform", seed=21)


@pytest.fixture(scope="module")
def query_points():
    return gstd.generate(24, DIMS, "uniform", seed=22)


def fresh_service(target_points, **overrides):
    overrides.setdefault("compact_threshold", 10_000)  # no auto-compaction
    return AnnService(target_points, service_config(**overrides))


class TestVisibility:
    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_insert_visible_before_compaction(self, target_points, kind):
        service = fresh_service(target_points, kind=kind)
        probe = np.array([0.5, 0.5])
        service.insert(probe, 9999)
        answer = service.query(probe, k=1)
        service.close()
        assert answer.neighbor_ids == (9999,)
        assert answer.distances == (0.0,)

    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_delete_masks_base_point_immediately(self, target_points, kind):
        service = fresh_service(target_points, kind=kind)
        probe = target_points[7]
        before = service.query(probe, k=1)
        assert before.neighbor_ids == (7,)
        assert service.delete(7)
        after = service.query(probe, k=1)
        service.close()
        assert after.neighbor_ids != (7,)

    def test_delete_missing_id_is_a_noop(self, target_points):
        service = fresh_service(target_points)
        assert not service.delete(123456)
        service.close()
        assert service.counters.deletes == 0

    def test_mixed_stream_matches_scratch_rebuild(self, target_points, query_points):
        # Interleave inserts and deletes, never compacting, and require
        # every answer to equal nearest_iter over a scratch index of the
        # survivors — the delta/tombstone merge must be exact, not just
        # plausible.
        rng = np.random.default_rng(5)
        service = fresh_service(target_points, max_batch=8)
        alive = {i: p for i, p in enumerate(target_points)}
        next_id = N_TARGET
        for __ in range(40):
            if alive and rng.random() < 0.5:
                victim = int(rng.choice(list(alive)))
                assert service.delete(victim)
                del alive[victim]
            else:
                pt = rng.random(DIMS)
                service.insert(pt, next_id)
                alive[next_id] = pt
                next_id += 1
        ids = np.array(list(alive))
        pts = np.stack(list(alive.values()))
        expected = reference_answers(pts, query_points, k=3)
        tickets = [service.submit(q, k=3) for q in query_points]
        while not all(t.done() for t in tickets):
            service.pump(force=True)
        service.close()
        for ticket, (want_ids, want_dists) in zip(tickets, expected):
            answer = ticket.result(timeout_s=0)
            # Map reference ids (positions into ``pts``) to real ids.
            mapped = tuple(int(ids[i]) for i in want_ids)
            assert sorted(zip(answer.distances, answer.neighbor_ids)) == sorted(
                zip(want_dists, mapped)
            )


class TestCompaction:
    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_auto_compaction_advances_epoch_and_preserves_answers(
        self, target_points, query_points, kind
    ):
        service = AnnService(
            target_points,
            service_config(kind=kind, compact_threshold=8, max_batch=4),
        )
        assert service.engine.epoch == 0
        rng = np.random.default_rng(6)
        for j in range(8):
            service.insert(rng.random(DIMS), N_TARGET + j)
        assert service.engine.epoch == 1  # threshold hit → hot swap
        assert service.engine.pending_ops == 0
        assert service.counters.compactions == 1

        all_pts = np.vstack(
            [target_points, np.stack(_reinsert_points(6, 8))]
        )
        # Answers after the swap equal a scratch build over the union.
        expected = reference_answers(all_pts, query_points, k=2)
        for q, (want_ids, want_dists) in zip(query_points, expected):
            answer = service.query(q, k=2)
            assert (answer.neighbor_ids, answer.distances) == (
                tuple(want_ids),
                tuple(want_dists),
            )
        service.close()

    def test_manual_compact_folds_tombstones(self, target_points):
        service = fresh_service(target_points)
        for pid in range(10):
            assert service.delete(pid)
        assert service.engine.pending_ops == 10
        epoch = service.compact()
        assert epoch == 1
        assert service.engine.pending_ops == 0
        assert service.engine.size == N_TARGET - 10
        # The tombstoned points are physically gone from the new base.
        answer = service.query(target_points[3], k=1)
        service.close()
        assert answer.neighbor_ids != (3,)

    def test_compact_with_empty_delta_is_a_noop(self, target_points):
        service = fresh_service(target_points)
        assert service.compact() is None
        assert service.engine.epoch == 0
        service.close()
        assert service.counters.compactions == 0

    def test_delete_everything_then_compact_yields_empty_base(self):
        points = gstd.generate(20, DIMS, "uniform", seed=23)
        service = fresh_service(points)
        for pid in range(20):
            assert service.delete(pid)
        assert service.compact() == 1
        assert service.engine.size == 0
        empty = service.query(np.array([0.5, 0.5]), k=3)
        assert empty.neighbor_ids == ()
        # The empty base still serves delta-only inserts.
        service.insert(np.array([0.25, 0.25]), 500)
        answer = service.query(np.array([0.25, 0.25]), k=1)
        service.close()
        assert answer.neighbor_ids == (500,)

    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_delete_then_reinsert_serves_the_new_location(self, target_points, kind):
        # Id 7 moves to (5, 5), outside the base's bounding box.  Before
        # and after compaction, no answer may carry its stale base copy.
        service = fresh_service(target_points, kind=kind)
        old, new = target_points[7], np.array([5.0, 5.0])
        assert service.delete(7)
        service.insert(new, 7)
        alive = {i: p for i, p in enumerate(target_points) if i != 7}
        alive[7] = new
        ids = np.array(list(alive))
        pts = np.stack(list(alive.values()))
        for compacted in (False, True):
            if compacted:
                assert service.compact() == 1
                assert service.engine.size == N_TARGET
            for probe in (old, new):
                want_ids, want_dists = reference_answers(pts, [probe], k=3, kind=kind)[0]
                answer = service.query(probe, k=3)
                assert answer.neighbor_ids == tuple(int(ids[i]) for i in want_ids)
                assert answer.distances == want_dists
        service.close()

    def test_inflight_reads_pin_their_epoch(self, target_points):
        # A compaction between submit and flush must not disturb the
        # version registry: the flush pins whatever is current at flush
        # time and releases it cleanly.
        service = fresh_service(target_points)
        ticket = service.submit(target_points[0], k=1)
        service.insert(np.array([0.9, 0.9]), 7777)
        assert service.compact() == 1
        while not ticket.done():
            service.pump(force=True)
        assert ticket.result(timeout_s=0).neighbor_ids == (0,)
        service.close()
        assert service.engine.versions.live_epochs == (1,)


def _reinsert_points(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.random(DIMS) for __ in range(n)]


class TestLifecycleAndCounters:
    def test_writes_rejected_after_close(self, target_points):
        service = fresh_service(target_points)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.insert(np.array([0.1, 0.1]), 1000)
        with pytest.raises(RuntimeError, match="closed"):
            service.delete(3)

    def test_counters_track_write_traffic(self, target_points):
        service = AnnService(
            target_points, service_config(compact_threshold=6)
        )
        for j in range(4):
            service.insert(np.array([0.2, 0.2 + 0.01 * j]), N_TARGET + j)
        for pid in (0, 1, 2):
            assert service.delete(pid)
        service.close()
        assert service.counters.inserts == 4
        assert service.counters.deletes == 3
        assert service.counters.compactions == 1  # 6th op tripped the swap

    def test_write_validation(self, target_points):
        service = fresh_service(target_points)
        with pytest.raises(ValueError):
            service.insert(np.zeros(3), 1000)
        with pytest.raises(ValueError, match="already present"):
            service.insert(np.array([0.5, 0.5]), 0)
        service.close()

    def test_trace_artifact_includes_write_counters(
        self, tmp_path, target_points, query_points
    ):
        path = tmp_path / "trace.json"
        config = service_config(compact_threshold=4, trace=str(path))
        service = AnnService(target_points, config, clock=FakeClock())
        for j in range(5):
            service.insert(np.array([0.3, 0.3 + 0.01 * j]), N_TARGET + j)
        service.query(query_points[0], k=1)
        service.close()
        doc = json.loads(path.read_text())
        assert validate_trace(doc) is doc
        assert doc["service"]["inserts"] == 5.0
        assert doc["service"]["compactions"] == 1.0
        assert doc["service"]["answered"] == 1.0


def _brute_knn(alive, probe, k):
    """``(distance, id)`` pairs of the k nearest live points."""
    ids = np.array(list(alive))
    pts = np.stack([alive[i] for i in ids])
    dists = np.sqrt(((pts - probe) ** 2).sum(axis=1))
    return sorted(zip(dists.tolist(), ids.tolist()))[:k]


def _answer_pairs(answer):
    return sorted(zip(answer.distances, answer.neighbor_ids))


def _hold_builds(service):
    """Make every epoch build wait on ``release``; ``entered`` is set
    once a build is running (its delta already frozen)."""
    entered, release = threading.Event(), threading.Event()
    build = service.engine._build_version

    def held(*args):
        entered.set()
        assert release.wait(timeout=30)
        return build(*args)

    service.engine._build_version = held
    return entered, release


def _wait_for_epoch(service, epoch, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while service.engine.epoch < epoch:
        assert time.monotonic() < deadline, f"epoch {epoch} never published"
        time.sleep(0.001)


class TestBackgroundCompaction:
    """Threaded mode: the write that crosses ``compact_threshold`` hands
    the rebuild to one background thread and returns."""

    def test_interleaved_writes_and_reads_during_a_held_build(
        self, target_points, query_points
    ):
        service = AnnService(target_points, service_config(compact_threshold=7, max_batch=4))
        entered, release = _hold_builds(service)
        alive = {i: p for i, p in enumerate(target_points)}
        rng = np.random.default_rng(31)
        with service.serving():
            # Before the freeze: 4 inserts and 4 deletes, one of them of a
            # pending insert (7 delta operations); the last write starts
            # the compaction, which freezes them and holds.
            for j in range(4):
                alive[1000 + j] = rng.random(DIMS)
                service.insert(alive[1000 + j], 1000 + j)
            for pid in (1000, 0, 1, 2):
                assert service.delete(pid)
                del alive[pid]
            assert entered.wait(timeout=30)
            # While the build is held: inserts, deletes of base ids and of
            # frozen or fresh inserts, re-inserts of ids deleted before and
            # after the freeze, and queries.
            after_inserts, after_deletes = {}, set()
            ops = [
                ("insert", 2000), ("delete", 5), ("delete", 1001), ("insert", 2001),
                ("delete", 2001), ("insert", 0), ("insert", 5), ("delete", 6),
                ("insert", 1000), ("delete", 1002), ("insert", 1002),
            ]
            for step, (kind, pid) in enumerate(ops):
                if kind == "insert":
                    alive[pid] = after_inserts[pid] = rng.random(DIMS)
                    service.insert(alive[pid], pid)
                else:
                    assert service.delete(pid)
                    del alive[pid]
                    after_inserts.pop(pid, None)
                    after_deletes.add(pid)
                probe = query_points[step]
                answer = service.query(probe, k=3)
                assert _answer_pairs(answer) == _brute_knn(alive, probe, 3)
            assert service.engine.epoch == 0  # still held: old epoch serving
            assert service.counters.compactions == 0
            release.set()
            _wait_for_epoch(service, 1)
            # The publish pruned exactly the frozen operations.
            view = service.engine.delta.freeze()
            assert {pid for __, pid, __ in view.inserts} == set(after_inserts)
            assert view.tombstones == after_deletes
            assert service.engine.size == N_TARGET  # 3 base deletes, 3 inserts kept
            for probe in query_points:
                answer = service.query(probe, k=3)
                assert _answer_pairs(answer) == _brute_knn(alive, probe, 3)
        assert service.counters.compactions == 1

    def test_forced_compact_waits_for_the_inflight_one(self, target_points):
        service = AnnService(target_points, service_config(compact_threshold=4))
        entered, release = _hold_builds(service)
        with service.serving():
            for pid in range(4):
                assert service.delete(pid)
            assert entered.wait(timeout=30)
            service.insert(np.array([0.5, 0.5]), 4000)  # after the freeze
            results = []
            forced = threading.Thread(target=lambda: results.append(service.compact()))
            forced.start()
            forced.join(timeout=0.2)
            assert forced.is_alive()  # waiting behind the held build
            release.set()
            forced.join(timeout=30)
            # The background run published epoch 1; the forced one
            # folded the insert made during it.
            assert results == [2]
            assert service.engine.pending_ops == 0
            assert service.compact() is None

    def test_failed_build_keeps_the_old_epoch_and_reraises(
        self, target_points, query_points
    ):
        service = AnnService(target_points, service_config(compact_threshold=4))
        build = service.engine._build_version
        failures = []

        def fail_once(*args):
            if not failures:
                failures.append(args[0])
                raise RuntimeError("injected build failure")
            return build(*args)

        service.engine._build_version = fail_once
        base_ids = service.engine._base_ids.copy()
        alive = {i: p for i, p in enumerate(target_points)}
        with service.serving():
            for pid in range(4):
                assert service.delete(pid)
                del alive[pid]
            with pytest.raises(RuntimeError, match="injected build failure"):
                service.compact()
            assert failures == [1]
            assert service.engine.epoch == 0
            assert service.engine.pending_ops == 4
            assert np.array_equal(service.engine._base_ids, base_ids)
            for probe in query_points[:6]:
                answer = service.query(probe, k=2)
                assert _answer_pairs(answer) == _brute_knn(alive, probe, 2)
            # The next compaction runs: here a background one.
            alive[4001] = np.array([0.25, 0.75])
            service.insert(alive[4001], 4001)
            _wait_for_epoch(service, 1)
            assert service.compact() is None  # the error was raised once
            for probe in query_points[:6]:
                answer = service.query(probe, k=2)
                assert _answer_pairs(answer) == _brute_knn(alive, probe, 2)
        assert service.counters.compactions == 1

    def test_failed_inline_build_leaves_the_engine_unchanged(self, target_points):
        service = fresh_service(target_points)
        engine = service.engine
        build = engine._build_version
        for pid in range(3):
            assert service.delete(pid)

        def fail(*args):
            raise RuntimeError("injected build failure")

        engine._build_version = fail
        with pytest.raises(RuntimeError, match="injected build failure"):
            service.compact()
        assert (engine.epoch, engine.pending_ops, engine.size) == (0, 3, N_TARGET)
        engine._build_version = build
        assert service.compact() == 1
        assert engine.size == N_TARGET - 3
        service.close()

    def test_trace_records_lock_hold_times(self, tmp_path, target_points):
        path = tmp_path / "trace.json"
        service = AnnService(
            target_points, service_config(compact_threshold=2, trace=str(path))
        )
        for pid in range(4):
            assert service.delete(pid)
        service.close()
        doc = json.loads(path.read_text())
        assert validate_trace(doc) is doc
        counters = doc["root"]["counters"]
        assert doc["service"]["compactions"] == 2.0
        assert counters["service.compact_freeze_lock_ms"] > 0.0
        assert counters["service.compact_publish_lock_ms"] > 0.0
