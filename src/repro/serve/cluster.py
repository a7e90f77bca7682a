"""The serving cluster: writer engine, epoch artifacts, replica fleet.

:class:`ReplicaCluster` is the process-topology counterpart of
:class:`~repro.service.service.AnnService`'s engine layer.  It owns

* the **write path** — one :class:`~repro.service.engine.BatchEngine`
  whose delta absorbs inserts/deletes and whose compactions bulk-build
  each new epoch, exactly as the single-process service does;
* the **epoch fence** — every publish is exported as a zero-copy
  artifact directory (:func:`repro.storage.mapped.write_epoch`) under
  ``workdir`` and broadcast to the replicas as a ``swap``, so the fleet
  hot-swaps on :class:`~repro.storage.versioning.VersionManager`
  publishes without restarting;
* the **shared cache** — one
  :class:`~repro.serve.shared_cache.SharedNodeCache` segment created
  before the first spawn (so the lock inherits cleanly) and handed to
  every replica;
* the **replica fleet** — N :class:`~repro.serve.replica.ReplicaHandle`
  workers, each with a fair slice of the pool/node-cache budget (same
  partition discipline as the :mod:`repro.parallel` executor: scale-out
  must not quietly multiply cache memory).

Consistency note: replicas answer from the last *published* epoch; the
pending delta is the writer's alone.  That is the standard
replicated-search contract (ROADMAP north star: faiss behind app
servers) — bounded staleness between publishes, bit-identical answers
for any given epoch.  Tests that need delta-inclusive answers compact
first.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..service.engine import BatchEngine
from ..storage.manager import worker_node_cache_entries, worker_pool_pages
from ..storage.mapped import write_epoch
from .config import ServeConfig
from .replica import ReplicaHandle, ReplicaSpec
from .shared_cache import SharedNodeCache

__all__ = ["ReplicaCluster"]


class ReplicaCluster:
    """A writer engine plus N mapped-epoch replicas over one workdir."""

    def __init__(
        self,
        points: np.ndarray,
        config: ServeConfig,
        workdir: str | Path,
        point_ids: np.ndarray | None = None,
        inline: bool = False,
    ) -> None:
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inline = inline
        self.engine = BatchEngine(points, config.service, point_ids)
        self.cache: SharedNodeCache | None = None
        if config.cache_slots > 0:
            self.cache = SharedNodeCache.create(
                n_slots=config.cache_slots, slot_bytes=config.cache_slot_bytes
            )
        self._epoch_dir = self._export_epoch()
        self.replicas: list[ReplicaHandle] = []
        for rid in range(config.replicas):
            spec = ReplicaSpec(
                replica_id=rid,
                epoch_dir=str(self._epoch_dir),
                config=config.service,
                cache=self.cache.handle() if self.cache is not None else None,
                pool_pages=worker_pool_pages(
                    config.service.pool_pages, config.replicas, rid
                ),
                node_cache_entries=worker_node_cache_entries(
                    config.service.node_cache_entries, config.replicas, rid
                ),
            )
            handle = ReplicaHandle(spec, inline=inline)
            handle.start()
            self.replicas.append(handle)

    # -- epochs ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    @property
    def epoch_dir(self) -> Path:
        """The artifact directory of the currently published epoch."""
        return self._epoch_dir

    def _export_epoch(self) -> Path:
        version = self.engine.versions.current
        assert version.snapshot is not None  # writer epochs always have one
        return write_epoch(
            self.workdir / f"epoch-{version.epoch:06d}",
            version.snapshot,
            version.spec,
            epoch=version.epoch,
            size=version.size,
        )

    # -- the write path -------------------------------------------------------

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Insert into the writer; visible to replicas after ``compact``.

        Like :meth:`~repro.service.service.AnnService.insert`, once
        ``compact_threshold`` operations are pending the delta is folded
        and published automatically — here that also swaps the fleet.
        """
        self.engine.insert(point, point_id)
        self._maybe_compact()

    def delete(self, point_id: int) -> bool:
        deleted = self.engine.delete(point_id)
        if deleted:
            self._maybe_compact()
        return deleted

    def _maybe_compact(self) -> None:
        if self.engine.pending_ops >= self.config.service.compact_threshold:
            self.compact()

    @property
    def pending_ops(self) -> int:
        return self.engine.pending_ops

    def compact(self) -> int | None:
        """Publish the pending delta as a new epoch and swap the fleet.

        Returns the new epoch number (``None`` when the delta was empty
        and nothing was published).  The swap is a broadcast: each
        replica finishes its in-flight batch on the old mapping, then
        maps the new artifact — zero downtime, bounded staleness.
        """
        new_epoch = self.engine.compact()
        if new_epoch is None:
            return None
        self._epoch_dir = self._export_epoch()
        for replica in self.replicas:
            if replica.alive:
                replica.swap(str(self._epoch_dir))
        return new_epoch

    # -- fleet ----------------------------------------------------------------

    def stats(self) -> list[dict[str, Any]]:
        """Per-replica counter snapshots (skips dead replicas)."""
        out = []
        for replica in self.replicas:
            if replica.alive and replica.conn is not None:
                out.append(replica.stats())
        return out

    def close(self) -> None:
        """Stop the fleet, then tear down the shared segment (owner)."""
        for replica in self.replicas:
            try:
                replica.stop()
            except (BrokenPipeError, EOFError, OSError):
                replica.join()
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "ReplicaCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
