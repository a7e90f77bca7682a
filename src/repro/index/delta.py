"""LSM-style in-memory delta index with tombstone masking.

The service's base index is an immutable persisted epoch image
(:mod:`repro.storage.versioning`).  Updates between compactions land
here instead: inserts accumulate as an in-memory memtable, deletes as
**tombstones** that mask base-index points at query time.  A query then
answers against ``base ⊎ delta``:

1. find the ``k`` nearest *live* base points: a batched query at ``k``
   whose first ``k`` candidates hold no tombstone already has them,
   and otherwise an incremental browse skips tombstoned ids until ``k``
   live ones have been seen (a pending delete rarely sits in a query's
   own neighbourhood, so fetching ``k + n_tombstones`` up front would
   almost always be wasted);
2. drop tombstoned base candidates, if any were passed;
3. brute-force the (small, memory-resident) delta inserts and merge the
   two candidate streams by ``(distance, id)``.

The delta is deliberately index-free: compaction keeps it small (the
service folds it into a rebuilt base at ``compact_threshold`` ops), and
a linear scan of a few dozen vectors is cheaper than maintaining a
second tree.  :meth:`DeltaIndex.freeze` yields an immutable
:class:`DeltaView` so an in-flight flush keeps one consistent delta even
while writers keep mutating the live object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DeltaIndex", "DeltaView", "EMPTY_DELTA", "merge_answer"]


@dataclass(frozen=True)
class DeltaView:
    """An immutable point-in-time view of a :class:`DeltaIndex`.

    ``inserts`` holds ``(seq, point_id, point)`` in operation order;
    ``tombstones`` the masked base ids.  ``last_seq`` is the newest
    operation sequence number folded into this view — compaction uses it
    to prune exactly the operations a rebuild consumed, no more.
    """

    inserts: tuple[tuple[int, int, np.ndarray], ...]
    tombstones: frozenset[int]
    last_seq: int

    @property
    def n_inserts(self) -> int:
        return len(self.inserts)

    @property
    def n_tombstones(self) -> int:
        return len(self.tombstones)

    @property
    def n_ops(self) -> int:
        return len(self.inserts) + len(self.tombstones)

    def is_empty(self) -> bool:
        return not self.inserts and not self.tombstones

    def fold(self, ids: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply this view to a base's columns: the compaction survivors.

        Returns ``(ids, points)`` holding the base rows minus the
        tombstoned ids, plus the inserts, sorted by id.  A re-inserted
        id is both tombstoned and inserted, so it appears once, at its
        new location.
        """
        dead = np.fromiter(self.tombstones, dtype=np.int64, count=self.n_tombstones)
        keep = ~np.isin(ids, dead)
        new_ids = np.fromiter(
            (pid for __, pid, __2 in self.inserts), dtype=np.int64, count=self.n_inserts
        )
        new_points = np.asarray([pt for __, __2, pt in self.inserts], dtype=np.float64)
        ids = np.concatenate([ids[keep], new_ids])
        points = np.concatenate([points[keep], new_points.reshape(-1, points.shape[1])])
        order = np.argsort(ids, kind="stable")
        return ids[order], points[order]


EMPTY_DELTA = DeltaView(inserts=(), tombstones=frozenset(), last_seq=-1)
"""The canonical no-pending-updates view (shared; it is immutable)."""


class DeltaIndex:
    """Mutable memtable + tombstone set over a base epoch.

    Not thread-safe on its own — the owning engine serialises access
    under its update lock.  Semantics:

    * ``insert`` of an id that has a pending tombstone *re-inserts* it:
      the tombstone stays (it masks the base's old copy, which may sit
      elsewhere) and the insert is recorded beside it.
    * ``delete`` of an id with a pending insert drops that insert; a
      tombstone is recorded **unconditionally** because the id may also
      exist in the base index (the delta cannot know), and a spurious
      tombstone for an id the base never held masks nothing.

    Every operation carries a sequence number; a tombstone keeps the
    number of its newest delete, so :meth:`prune_through` can tell the
    operations a compaction consumed from the ones issued after it.
    """

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.dims = dims
        self._inserts: dict[int, tuple[int, np.ndarray]] = {}
        self._tombstones: dict[int, int] = {}
        self._next_seq = 0

    @property
    def n_inserts(self) -> int:
        return len(self._inserts)

    @property
    def n_tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def n_ops(self) -> int:
        return len(self._inserts) + len(self._tombstones)

    def insert(self, point: np.ndarray, point_id: int) -> None:
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dims,):
            raise ValueError(f"point must have shape ({self.dims},), got {point.shape}")
        if point_id in self._inserts:
            raise ValueError(f"point_id {point_id} already pending insertion")
        self._inserts[point_id] = (self._next_seq, point.copy())
        self._next_seq += 1

    def delete(self, point_id: int) -> None:
        self._inserts.pop(point_id, None)
        self._tombstones[point_id] = self._next_seq
        self._next_seq += 1

    def freeze(self) -> DeltaView:
        """Snapshot the pending operations into an immutable view."""
        if not self._inserts and not self._tombstones:
            return EMPTY_DELTA
        ordered = sorted(
            ((seq, pid, pt) for pid, (seq, pt) in self._inserts.items()),
            key=lambda e: e[0],
        )
        return DeltaView(
            inserts=tuple(ordered),
            tombstones=frozenset(self._tombstones),
            last_seq=self._next_seq - 1,
        )

    def prune_through(self, view: DeltaView) -> None:
        """Drop every operation a compaction consumed via ``view``.

        An operation is consumed when its sequence number is at most
        ``view.last_seq``.  A newer insert of the same id survives, and
        so does a newer delete: it targets the *new* base, which holds
        the point, so its tombstone must keep masking.
        """
        self._inserts = {
            pid: entry for pid, entry in self._inserts.items() if entry[0] > view.last_seq
        }
        self._tombstones = {
            pid: seq for pid, seq in self._tombstones.items() if seq > view.last_seq
        }


def merge_answer(
    base_ids: np.ndarray,
    base_dists: np.ndarray,
    query_point: np.ndarray,
    k: int,
    delta: DeltaView,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Merge a base answer with a frozen delta view.

    Once tombstoned ids are dropped, ``base_ids``/``base_dists`` must
    begin with the ``k`` nearest live base points (all of them, if the
    base holds fewer): for example the first ``k`` candidates of a
    base-index query with no tombstone among them, or a browse that
    skipped tombstoned ids.  Delta inserts are scanned exactly.  Ties
    break by id, the same total order the join result layer uses, so
    merged answers are deterministic.
    """
    keep = [
        (float(d), int(i))
        for i, d in zip(base_ids, base_dists)
        if int(i) not in delta.tombstones
    ]
    if delta.inserts:
        pts = np.stack([pt for __, __, pt in delta.inserts])
        dists = np.sqrt(((pts - query_point) ** 2).sum(axis=1))
        keep.extend(
            (float(d), int(pid))
            for (__, pid, __2), d in zip(delta.inserts, dists)
        )
    keep.sort()
    top = keep[:k]
    return tuple(pid for __, pid in top), tuple(d for d, __ in top)
