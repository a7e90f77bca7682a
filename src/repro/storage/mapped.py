"""Zero-copy epoch artifacts: publish a snapshot once, ``mmap`` it N times.

The sharded execution paths ship a :class:`~repro.storage.manager.
StorageSnapshot` — the whole page tuple — to every worker, so startup
and memory are O(workers).  For the serving tier that is the wrong
shape: replica processes are long-lived and all read the *same*
immutable epoch.  This module is the storage half of ``repro.serve``:

* :func:`write_epoch` lays a snapshot out on disk as a directory of
  flat files — every page zero-padded to ``page_size`` in ``pages.bin``
  (so page ``i`` lives at byte offset ``i * page_size``), the true
  payload lengths in ``lengths.bin``, the pickled index spec, and a
  JSON header with the geometry and the disk model.
* :class:`MappedPageStore` opens ``pages.bin`` through a *read-only*
  ``np.memmap`` and serves :meth:`~MappedPageStore.read` calls from the
  mapping.  Reads are **bit-identical** to :class:`~repro.storage.disk.
  PageStore` over the same snapshot — same bytes, same physical-read
  counter bump, same simulated-latency charge — so every I/O figure
  measured through a mapped manager means the same thing it means
  through an in-memory one.  The OS page cache stands in for the copy
  the snapshot path would have made: N replicas mapping one epoch share
  one set of physical pages.

The simulated :class:`~repro.storage.disk.DiskModel` still charges each
physical read as if it hit a 2007-era disk; the mapping changes where
the bytes *live*, not what the cost model says they cost.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .disk import DiskModel, PageStore
from .manager import DEFAULT_POOL_PAGES, StorageManager, StorageSnapshot

__all__ = [
    "EPOCH_FORMAT",
    "MappedPageStore",
    "EpochMeta",
    "write_epoch",
    "read_epoch_meta",
    "load_epoch_spec",
    "map_store",
    "map_manager",
]

EPOCH_FORMAT = "repro.serve.epoch/v1"
"""Format tag written into every epoch directory's ``meta.json``."""

_PAGES_FILE = "pages.bin"
_LENGTHS_FILE = "lengths.bin"
_SPEC_FILE = "spec.pkl"
_META_FILE = "meta.json"


@dataclass(frozen=True)
class EpochMeta:
    """The JSON header of one published epoch directory."""

    epoch: int
    size: int
    page_size: int
    n_pages: int
    disk: DiskModel

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": EPOCH_FORMAT,
            "epoch": self.epoch,
            "size": self.size,
            "page_size": self.page_size,
            "n_pages": self.n_pages,
            "disk": {
                "seek_ms": self.disk.seek_ms,
                "transfer_mb_per_s": self.disk.transfer_mb_per_s,
                "page_size": self.disk.page_size,
            },
        }


def write_epoch(
    path: str | Path,
    snapshot: StorageSnapshot,
    spec: object,
    *,
    epoch: int,
    size: int,
) -> Path:
    """Publish one epoch's snapshot as a mappable artifact directory.

    ``spec`` is the epoch's pickled index description (a
    :class:`~repro.index.base.PagedIndexSpec`; typed loosely because the
    storage layer sits below the index layer).  Returns the directory.
    The layout is deliberately dumb — flat binary plus JSON — so a
    replica can attach with one ``np.memmap`` call and no framing code.

    The files are written into a temporary sibling directory that is
    renamed into place once complete, so a reader never sees one
    export's ``pages.bin`` beside another's ``lengths.bin`` or
    ``meta.json`` — not even when ``path`` holds a stale export from an
    earlier run.  An export that fails leaves ``path`` as it was; while
    a stale directory is being replaced, ``path`` briefly does not
    exist, which a reader sees as a missing artifact.
    """
    out = Path(path)
    page_size = snapshot.page_size
    lengths = np.asarray([len(p) for p in snapshot.pages], dtype=np.uint32)
    padded = np.zeros((len(snapshot.pages), page_size), dtype=np.uint8)
    for i, page in enumerate(snapshot.pages):
        if len(page) > page_size:
            raise ValueError(
                f"page {i} is {len(page)} bytes, wider than page_size {page_size}"
            )
        padded[i, : len(page)] = np.frombuffer(page, dtype=np.uint8)
    meta = EpochMeta(
        epoch=epoch,
        size=size,
        page_size=page_size,
        n_pages=len(snapshot.pages),
        disk=snapshot.disk,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        (tmp / _PAGES_FILE).write_bytes(padded.tobytes())
        (tmp / _LENGTHS_FILE).write_bytes(lengths.astype("<u4").tobytes())
        (tmp / _SPEC_FILE).write_bytes(pickle.dumps(spec))
        (tmp / _META_FILE).write_text(json.dumps(meta.as_dict(), indent=2))
        if out.exists():
            stale = tmp.with_name(tmp.name + ".stale")
            os.replace(out, stale)
            os.replace(tmp, out)
            shutil.rmtree(stale)
        else:
            os.replace(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return out


def read_epoch_meta(path: str | Path) -> EpochMeta:
    """Parse and validate an epoch directory's ``meta.json``."""
    doc = json.loads((Path(path) / _META_FILE).read_text())
    if doc.get("format") != EPOCH_FORMAT:
        raise ValueError(
            f"not a {EPOCH_FORMAT} artifact: format={doc.get('format')!r}"
        )
    disk = doc["disk"]
    return EpochMeta(
        epoch=int(doc["epoch"]),
        size=int(doc["size"]),
        page_size=int(doc["page_size"]),
        n_pages=int(doc["n_pages"]),
        disk=DiskModel(
            seek_ms=float(disk["seek_ms"]),
            transfer_mb_per_s=float(disk["transfer_mb_per_s"]),
            page_size=int(disk["page_size"]),
        ),
    )


def load_epoch_spec(path: str | Path) -> Any:
    """Unpickle the epoch's index spec (a ``PagedIndexSpec``)."""
    return pickle.loads((Path(path) / _SPEC_FILE).read_bytes())


class MappedPageStore(PageStore):
    """A read-only page store backed by an ``np.memmap`` of ``pages.bin``.

    Reads return exactly the bytes :class:`~repro.storage.disk.PageStore`
    would return for the snapshot the artifact was written from (padding
    is sliced off with the recorded length), and bump/charge exactly the
    same counters.  Writes and allocations raise: published epochs are
    immutable, mutation happens on the writer's side of the epoch fence.
    """

    def __init__(
        self,
        pages: np.ndarray,
        lengths: np.ndarray,
        page_size: int,
        disk: DiskModel | None = None,
    ) -> None:
        if pages.ndim != 2 or pages.shape[1] != page_size:
            raise ValueError(
                f"pages must be (n_pages, {page_size}) bytes, got {pages.shape}"
            )
        if len(lengths) != len(pages):
            raise ValueError(
                f"{len(lengths)} lengths for {len(pages)} pages"
            )
        super().__init__(page_size=page_size, disk=disk)
        self._mapped = pages
        self._lengths = lengths

    def __len__(self) -> int:
        return len(self._lengths)

    def read(self, page_id: int) -> bytes:
        """Physically read one page from the mapping (counted and charged)."""
        self._check_id(page_id)
        self.physical_reads += 1
        self.io_time_s += self.disk.access_time_s()
        return self._mapped[page_id, : int(self._lengths[page_id])].tobytes()

    def write(self, page_id: int, payload: bytes) -> None:
        raise RuntimeError("mapped page store is read-only: epochs are immutable")

    def allocate(self, payload: bytes = b"") -> int:
        raise RuntimeError("mapped page store is read-only: epochs are immutable")

    def dump_pages(self) -> tuple[bytes, ...]:
        """Every page image, uncounted (materialises copies — admin only)."""
        return tuple(
            self._mapped[i, : int(self._lengths[i])].tobytes()
            for i in range(len(self._lengths))
        )

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._lengths):
            raise IndexError(
                f"page id {page_id} out of range (store has {len(self._lengths)})"
            )


def map_store(path: str | Path) -> MappedPageStore:
    """Open an epoch directory's pages as a read-only mapped store."""
    root = Path(path)
    meta = read_epoch_meta(root)
    lengths = np.frombuffer(
        (root / _LENGTHS_FILE).read_bytes(), dtype="<u4"
    ).astype(np.int64)
    if len(lengths) != meta.n_pages:
        raise ValueError(
            f"lengths file has {len(lengths)} entries, meta says {meta.n_pages}"
        )
    if meta.n_pages == 0:
        pages = np.empty((0, meta.page_size), dtype=np.uint8)
    else:
        pages = np.memmap(
            root / _PAGES_FILE,
            dtype=np.uint8,
            mode="r",
            shape=(meta.n_pages, meta.page_size),
        )
    return MappedPageStore(pages, lengths, meta.page_size, disk=meta.disk)


def map_manager(
    path: str | Path,
    pool_pages: int = DEFAULT_POOL_PAGES,
    node_cache_entries: int = 0,
) -> StorageManager:
    """A read-only :class:`StorageManager` over a mapped epoch directory.

    Fresh pool, fresh counters, no snapshot copy: the manager's disk *is*
    the published file.  The caller picks pool/cache budgets exactly as
    for :meth:`~repro.storage.manager.StorageManager.reopen`.
    """
    return StorageManager.attach_store(
        map_store(path),
        pool_pages=pool_pages,
        node_cache_entries=node_cache_entries,
    )
