"""Epoch/copy-on-write index versioning for zero-downtime hot swaps.

Every compaction builds a **fresh** base index in its own private
:class:`~repro.storage.manager.StorageManager`, snapshots it, and
publishes the read-only reopen as a new :class:`IndexVersion` — nothing
ever mutates pages an in-flight flush might be reading.  That makes the
swap a pointer move:

* readers :meth:`~VersionManager.pin` the current version at flush
  start and :meth:`~VersionManager.release` it when done, so a flush
  runs start-to-finish on one consistent epoch even if a compaction
  publishes mid-flush;
* :meth:`~VersionManager.publish` installs the new epoch for *future*
  pins and retires superseded epochs the moment their pin count drops
  to zero (copy-on-write at snapshot granularity — old pages live
  exactly as long as someone still reads them).

No reader ever blocks on a writer and no writer on a reader; the only
lock is the short critical section around the refcount table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # Imported lazily: ``repro.index.base`` itself imports this package's
    # ``manager`` submodule mid-module, so an eager import here would make
    # ``import repro.index`` → ``repro.storage.__init__`` → this module →
    # the still-initialising ``repro.index.base`` a genuine cycle.
    from ..index.base import PagedIndex, PagedIndexSpec
    from .manager import StorageManager, StorageSnapshot

__all__ = ["IndexVersion", "VersionManager"]


@dataclass(frozen=True)
class IndexVersion:
    """One immutable published epoch of the base index.

    ``manager``/``index`` are the serving read-only reopen;
    ``snapshot``/``spec`` are what an epoch export writes out.

    ``snapshot`` is ``None`` for *mapped* epochs (a replica process that
    attached a published epoch artifact via :mod:`repro.storage.mapped`
    rather than holding the page tuple in memory).
    """

    epoch: int
    snapshot: StorageSnapshot | None
    spec: PagedIndexSpec
    manager: StorageManager
    index: PagedIndex
    size: int
    """Number of points in this epoch's base index (0 for an empty base)."""


@dataclass
class _VersionSlot:
    version: IndexVersion
    pins: int = 0
    retired: bool = field(default=False)
    """Superseded by a newer publish; drop the slot once pins hit zero."""


class VersionManager:
    """Refcounted registry of published index epochs.

    Thread-safe: every mutation of the slot table happens under
    ``_lock``.  The pin/release protocol is strictly bracketed — callers
    use ``try/finally`` so a failing flush cannot leak a pin and wedge
    retirement forever.
    """

    def __init__(self, initial: IndexVersion) -> None:
        self._lock = threading.Lock()  # guards _slots and _current_epoch
        # guarded-by: _lock
        self._slots: dict[int, _VersionSlot] = {initial.epoch: _VersionSlot(initial)}
        # guarded-by: _lock
        self._current_epoch = initial.epoch

    @property
    def current(self) -> IndexVersion:
        """Peek at the live epoch without pinning (metadata reads only).

        The returned version may be retired by a concurrent publish at
        any moment — never run a query against an unpinned version.
        """
        with self._lock:
            return self._slots[self._current_epoch].version

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._current_epoch

    def pin(self) -> IndexVersion:
        """Acquire the current epoch for reading; pair with :meth:`release`."""
        with self._lock:
            slot = self._slots[self._current_epoch]
            slot.pins += 1
            return slot.version

    def release(self, version: IndexVersion) -> None:
        """Drop one pin; retired epochs are freed at zero pins."""
        with self._lock:
            slot = self._slots.get(version.epoch)
            if slot is None or slot.pins <= 0:
                raise ValueError(f"epoch {version.epoch} is not pinned")
            slot.pins -= 1
            if slot.retired and slot.pins == 0:
                del self._slots[version.epoch]

    def publish(self, version: IndexVersion) -> None:
        """Install a new epoch; supersedes (and maybe frees) the old one."""
        with self._lock:
            if version.epoch <= self._current_epoch:
                raise ValueError(
                    f"epoch must advance: {version.epoch} <= {self._current_epoch}"
                )
            old = self._slots[self._current_epoch]
            old.retired = True
            if old.pins == 0:
                del self._slots[old.version.epoch]
            self._slots[version.epoch] = _VersionSlot(version)
            self._current_epoch = version.epoch

    @property
    def live_epochs(self) -> tuple[int, ...]:
        """Epochs still materialised (current plus pinned-but-retired)."""
        with self._lock:
            return tuple(sorted(self._slots))
