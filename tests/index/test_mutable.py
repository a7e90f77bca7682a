"""The mutable dataset: every epoch is a bulk build of its survivors.

The service never updates a tree in place.  Writes land in the delta;
each compaction folds the delta into the base epoch's ``(ids, points)``
columns and bulk-builds the survivors, sorted by id.  Hypothesis
replays write histories against a :class:`BatchEngine`: inserts,
deletes, delete-then-reinsert of the same id at a new location, inserts
outside the current bounding box, duplicate inserts, absent deletes and
compactions.  For both index kinds:

* every MBRQT epoch persists pages byte-identical to ``build_mbrqt``
  over the survivors sorted by id — a regular decomposition is a pure
  function of the points it holds, whatever the write history;
* every answer, before and after each compaction, equals brute force
  over the live set (R*-tree shape depends on the build, so the R*
  kind is held to answers only);
* a duplicate insert raises and an absent delete returns ``False``,
  without touching the served data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.index import build_mbrqt, range_query
from repro.service import BatchEngine, ServiceConfig
from repro.service.request import Request
from repro.storage.manager import StorageManager

PAGE = 256  # 10 points per leaf, 5 entries per internal node at D=2
K = 3
N_BASE = 40

coords = st.floats(0, 1, allow_nan=False, width=32)

_replay = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def histories(draw):
    base = np.asarray(
        draw(st.lists(st.tuples(coords, coords), min_size=N_BASE, max_size=N_BASE)),
        dtype=np.float64,
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), coords, coords),
                st.tuples(st.just("outside"), st.floats(1.01, 4.0), st.floats(-3.0, -0.01)),
                st.tuples(st.just("delete"), st.integers(0, 10**6)),
                st.tuples(st.just("reinsert"), st.integers(0, 10**6), coords, coords),
                st.tuples(st.just("duplicate"), st.integers(0, 10**6)),
                st.tuples(st.just("absent"), st.integers(0, 10**6)),
                st.tuples(st.just("compact")),
            ),
            min_size=5,
            max_size=40,
        )
    )
    return base, ops


def _brute(alive, probe, k):
    ids = np.fromiter(alive, dtype=np.int64, count=len(alive))
    pts = np.stack(list(alive.values()))
    dists = np.sqrt(((pts - probe) ** 2).sum(axis=1))
    return sorted(zip(dists.tolist(), ids.tolist()))[:k]


def _check_answers(engine, alive, probes):
    """A batched flush and a singleton flush both match brute force."""
    if not alive:
        return
    requests = [
        Request(request_id=i, point=p, k=K, submitted_s=0.0, deadline_s=None)
        for i, p in enumerate(probes)
    ]
    batched = engine.execute(requests, now_s=0.0).answers
    single = engine.execute(requests[:1], now_s=0.0).answers
    answers = [(r, batched[r.request_id]) for r in requests]
    answers.append((requests[0], single[0]))
    for request, (ids, dists, approximate) in answers:
        want = _brute(alive, request.point, K)
        assert not approximate
        assert list(dists) == [d for d, __ in want]
        # Ids are determined only below the k-th distance: points tied
        # exactly at the cutoff may surface in either order.
        cutoff = want[-1][0]
        assert sorted(i for d, i in zip(dists, ids) if d < cutoff) == sorted(
            i for d, i in want if d < cutoff
        )


def _survivors(alive):
    ids = np.asarray(sorted(alive), dtype=np.int64)
    pts = np.stack([alive[i] for i in ids.tolist()]) if alive else np.empty((0, 2))
    return ids, pts


def _check_pages(engine, alive):
    ids, pts = _survivors(alive)
    reference = StorageManager(page_size=PAGE)
    build_mbrqt(pts, reference, point_ids=ids)
    assert engine.snapshot.pages == reference.snapshot().pages


def _replay_history(kind, history, on_epoch):
    """Drive ``history`` through an engine, checking every answer and
    error; ``on_epoch(engine, alive)`` runs on epoch 0 and after every
    compaction."""
    base, ops = history
    engine = BatchEngine(base, ServiceConfig(kind=kind, page_size=PAGE, cold_flush=False))
    alive = {i: p for i, p in enumerate(base)}
    dead: set[int] = set()
    next_id = N_BASE
    probes = [base[0], np.array([0.5, 0.5]), np.array([2.0, -1.0])]
    on_epoch(engine, alive)
    for op in ops:
        live = sorted(alive)
        if op[0] in ("insert", "outside"):
            point = np.array(op[1:], dtype=np.float64)
            engine.insert(point, next_id)
            alive[next_id] = point
            probes.append(point)
            next_id += 1
        elif op[0] == "delete" and live:
            victim = live[op[1] % len(live)]
            assert engine.delete(victim)
            probes.append(alive.pop(victim))
            dead.add(victim)
        elif op[0] == "reinsert" and live:
            # Same id, new location, before any compaction folds it.
            pid = live[op[1] % len(live)]
            assert engine.delete(pid)
            probes.append(alive[pid])
            alive[pid] = np.array(op[2:], dtype=np.float64)
            engine.insert(alive[pid], pid)
        elif op[0] == "duplicate" and live:
            pending = engine.pending_ops
            with pytest.raises(ValueError, match="already present"):
                engine.insert(np.array([0.5, 0.5]), live[op[1] % len(live)])
            assert engine.pending_ops == pending
        elif op[0] == "absent":
            pending = engine.pending_ops
            candidates = sorted(dead) + [next_id + op[1]]
            assert not engine.delete(candidates[op[1] % len(candidates)])
            assert engine.pending_ops == pending
        elif op[0] == "compact":
            pending = engine.pending_ops
            _check_answers(engine, alive, probes[-6:])
            epoch = engine.epoch
            assert engine.compact() == (epoch + 1 if pending else None)
            assert engine.pending_ops == 0
            assert engine.size == len(alive)
            on_epoch(engine, alive)
            _check_answers(engine, alive, probes[-6:])
    _check_answers(engine, alive, probes[-6:])


class TestMBRQTGoldenReplay:
    @given(histories())
    @_replay
    def test_pages_bit_identical_to_scratch_rebuild(self, history):
        _replay_history("mbrqt", history, _check_pages)

    @given(histories())
    @_replay
    def test_mbr_is_exact_after_every_interleaving(self, history):
        # The decomposition's universe is the survivors' bounding box,
        # so it follows inserts outside it and shrinks after deletes.
        def check_root(engine, alive):
            __, pts = _survivors(alive)
            if len(pts):
                assert engine.index.root_rect == Rect.from_points(pts)

        _replay_history("mbrqt", history, check_root)


class TestRStarGoldenReplay:
    @given(histories())
    @_replay
    def test_answers_match_scratch_rebuild(self, history):
        _replay_history("rstar", history, lambda engine, alive: None)


def _line_engine(kind, n=12):
    points = np.column_stack([np.linspace(0.1, 0.9, n), np.full(n, 0.5)])
    return BatchEngine(points, ServiceConfig(kind=kind, page_size=PAGE))


UNIT = Rect(np.zeros(2), np.ones(2))
KINDS = ("mbrqt", "rstar")


class TestMutableSurface:
    def test_duplicate_insert_raises(self):
        for kind in KINDS:
            engine = _line_engine(kind)
            with pytest.raises(ValueError, match="already present"):
                engine.insert(np.array([0.25, 0.25]), 3)  # a base id
            engine.insert(np.array([0.5, 0.5]), 77)
            with pytest.raises(ValueError, match="already present"):
                engine.insert(np.array([0.25, 0.25]), 77)  # a pending insert
            engine.compact()
            with pytest.raises(ValueError, match="already present"):
                engine.insert(np.array([0.25, 0.25]), 77)  # folded into the base
            with pytest.raises(ValueError, match="unique"):
                BatchEngine(np.zeros((2, 2)), ServiceConfig(kind=kind), np.array([4, 4]))

    def test_delete_missing_returns_false(self):
        for kind in KINDS:
            engine = _line_engine(kind)
            assert not engine.delete(99)
            assert engine.delete(3)
            assert not engine.delete(3)
            engine.compact()
            assert not engine.delete(3)
            assert engine.pending_ops == 0

    def test_delete_then_reinsert_same_id(self):
        for kind in KINDS:
            engine = _line_engine(kind)
            assert engine.delete(3)
            engine.insert(np.array([0.9, 0.9]), 3)
            assert engine.delta.freeze().tombstones == {3}
            engine.compact()
            assert engine.size == 12
            ids, pts = range_query(engine.index, UNIT)
            assert sorted(ids.tolist()) == list(range(12))
            assert pts[ids.tolist().index(3)].tolist() == [0.9, 0.9]

    def test_empty_persist_supports_queries(self):
        for kind in KINDS:
            engine = _line_engine(kind)
            for pid in range(12):
                assert engine.delete(pid)
            assert engine.compact() == 1
            assert engine.size == 0
            ids, pts = range_query(engine.index, UNIT)
            assert len(ids) == 0 and pts.shape == (0, 2)
            request = Request(request_id=0, point=np.array([0.5, 0.5]), k=2,
                              submitted_s=0.0, deadline_s=None)
            assert engine.execute([request], now_s=0.0).answers[0] == ((), (), False)
