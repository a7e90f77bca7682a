"""The LSM delta layer: memtable/tombstone semantics and answer merging."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.delta import EMPTY_DELTA, DeltaIndex, DeltaView, merge_answer


class TestDeltaIndexSemantics:
    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            DeltaIndex(0)

    def test_insert_validates_shape(self):
        delta = DeltaIndex(2)
        with pytest.raises(ValueError):
            delta.insert(np.zeros(3), 1)

    def test_insert_copies_point(self):
        delta = DeltaIndex(2)
        pt = np.array([0.1, 0.2])
        delta.insert(pt, 1)
        pt[0] = 99.0
        ((__, __, stored),) = delta.freeze().inserts
        assert stored[0] == 0.1

    def test_duplicate_pending_insert_raises(self):
        delta = DeltaIndex(2)
        delta.insert(np.zeros(2), 1)
        with pytest.raises(ValueError, match="already pending"):
            delta.insert(np.ones(2), 1)

    def test_delete_always_records_tombstone(self):
        # Even for an id with a pending insert: the id may also exist in
        # the base, which the delta cannot see.
        delta = DeltaIndex(2)
        delta.insert(np.zeros(2), 7)
        delta.delete(7)
        view = delta.freeze()
        assert view.n_inserts == 0
        assert view.tombstones == {7}

    def test_insert_resurrects_tombstoned_id(self):
        delta = DeltaIndex(2)
        delta.delete(7)
        delta.insert(np.ones(2), 7)
        view = delta.freeze()
        assert view.tombstones == {7}
        assert [pid for __, pid, __2 in view.inserts] == [7]

    def test_freeze_is_immutable_snapshot(self):
        delta = DeltaIndex(2)
        delta.insert(np.zeros(2), 1)
        view = delta.freeze()
        delta.insert(np.ones(2), 2)
        delta.delete(1)
        assert view.n_inserts == 1 and view.n_tombstones == 0
        assert delta.freeze().n_ops == 2

    def test_empty_freeze_is_shared_constant(self):
        assert DeltaIndex(3).freeze() is EMPTY_DELTA
        assert EMPTY_DELTA.is_empty()
        assert EMPTY_DELTA.last_seq == -1

    def test_inserts_frozen_in_seq_order(self):
        delta = DeltaIndex(1)
        for pid in (9, 2, 5):
            delta.insert(np.array([float(pid)]), pid)
        view = delta.freeze()
        assert [pid for __, pid, __2 in view.inserts] == [9, 2, 5]
        seqs = [seq for seq, __, __2 in view.inserts]
        assert seqs == sorted(seqs)

    def test_prune_through_drops_consumed_ops(self):
        delta = DeltaIndex(2)
        delta.insert(np.zeros(2), 1)
        delta.delete(50)
        view = delta.freeze()
        delta.prune_through(view)
        assert delta.n_ops == 0
        assert delta.freeze() is EMPTY_DELTA

    def test_prune_keeps_post_freeze_operations(self):
        delta = DeltaIndex(2)
        delta.insert(np.zeros(2), 1)
        view = delta.freeze()
        # Post-freeze: re-insert id 1 (after deleting it) and delete id 2.
        delta.delete(1)
        delta.insert(np.ones(2), 1)
        delta.delete(2)
        delta.prune_through(view)
        survived = delta.freeze()
        # The *newer* insert of id 1 must survive (different seq), and the
        # post-freeze tombstone for id 2 targets the new base.
        assert [pid for __, pid, __2 in survived.inserts] == [1]
        assert ((survived.inserts[0][2]) == np.ones(2)).all()
        assert 2 in survived.tombstones

    def test_prune_drops_pre_freeze_tombstone_and_keeps_post_freeze_insert(self):
        delta = DeltaIndex(2)
        delta.delete(3)
        view = delta.freeze()
        delta.insert(np.ones(2), 3)  # resurrect after the freeze
        delta.prune_through(view)
        after = delta.freeze()
        assert after.n_inserts == 1  # the insert is post-freeze
        # The folded base no longer holds id 3, so its tombstone goes.
        assert after.tombstones == frozenset()


def _brute_top_k(points_by_id, query, k):
    scored = sorted(
        (float(np.sqrt(((pt - query) ** 2).sum())), pid)
        for pid, pt in points_by_id.items()
    )
    top = scored[:k]
    return tuple(pid for __, pid in top), tuple(d for d, __ in top)


class TestMergeAnswer:
    def test_tombstones_masked_and_inserts_ranked(self):
        query = np.zeros(2)
        base_ids = np.array([10, 11, 12])
        base_dists = np.array([0.1, 0.2, 0.3])
        delta = DeltaView(
            inserts=((0, 99, np.array([0.15, 0.0])),),
            tombstones=frozenset({11}),
            last_seq=1,
        )
        ids, dists = merge_answer(base_ids, base_dists, query, 3, delta)
        assert ids == (10, 99, 12)
        assert dists == (0.1, 0.15, 0.3)

    def test_ties_break_by_id(self):
        query = np.zeros(1)
        ids, __ = merge_answer(
            np.array([5]),
            np.array([0.5]),
            query,
            2,
            DeltaView(
                inserts=((0, 3, np.array([0.5])), (1, 9, np.array([0.5]))),
                tombstones=frozenset(),
                last_seq=1,
            ),
        )
        assert ids == (3, 5)

    @given(st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_brute_force_over_union(self, data):
        # Build a ground-truth point set, split it arbitrarily into a
        # "base" part and a "delta insert" part, tombstone some extra
        # base-only ids, and check merge_answer == brute force over the
        # surviving union for either base answer that begins, once
        # tombstones are dropped, with the k nearest live base points:
        # one over-fetched by n_tombstones, or the first k base
        # candidates with no tombstone among them.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        n_base = data.draw(st.integers(0, 20))
        n_delta = data.draw(st.integers(0, 8))
        n_dead = data.draw(st.integers(0, min(5, n_base)))
        k = data.draw(st.integers(1, 6))
        query = rng.random(2)

        base = {pid: rng.random(2) for pid in range(n_base)}
        dead = set(rng.choice(n_base, size=n_dead, replace=False)) if n_dead else set()
        delta_pts = {1000 + j: rng.random(2) for j in range(n_delta)}

        view = DeltaView(
            inserts=tuple(
                (seq, pid, pt) for seq, (pid, pt) in enumerate(delta_pts.items())
            ),
            tombstones=frozenset(int(d) for d in dead),
            last_seq=n_delta,
        )
        live_base = {pid: pt for pid, pt in base.items() if pid not in dead}
        survivors = dict(live_base)
        survivors.update(delta_pts)
        want = _brute_top_k(survivors, query, k)
        for base_ids, base_dists in (
            _brute_top_k(base, query, k + view.n_tombstones),
            _brute_top_k(live_base, query, k),
        ):
            got = merge_answer(
                np.asarray(base_ids), np.asarray(base_dists), query, k, view
            )
            assert got == want
