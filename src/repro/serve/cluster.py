"""The serving cluster: an :class:`AnnService` whose flush workers are replicas.

:class:`ReplicaCluster` is the one serving pipeline of
:class:`~repro.service.service.AnnService` — same admission, same
:class:`~repro.service.queueing.MicroBatchQueue`, same counters and
trace writer, same write path — with one flush worker per replica
process instead of the in-process engine.  On top of the service it
owns the replica fleet (each replica with a fair slice of the
pool/node-cache budget, as in :mod:`repro.parallel`, so scale-out never
quietly multiplies cache memory), the shared decoded-node cache segment
(created before the first spawn so its lock inherits cleanly), and the
epoch fence: :meth:`ReplicaCluster.compact` exports every publish as a
zero-copy artifact directory under ``workdir`` and broadcasts a
``swap`` to the fleet.

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

from ..core.stats import QueryStats
from ..service.engine import FlushOutcome
from ..service.request import Request
from ..service.service import AnnService, WorkerLost
from ..storage.manager import worker_node_cache_entries, worker_pool_pages
from ..storage.mapped import write_epoch
from .config import ServeConfig
from .replica import ReplicaHandle, ReplicaSpec
from .shared_cache import SharedNodeCache

__all__ = ["ReplicaCluster"]

_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class ReplicaCluster(AnnService):
    """A writer engine plus N mapped-epoch replicas over one workdir."""

    def __init__(
        self,
        points: np.ndarray,
        config: ServeConfig,
        workdir: str | Path,
        point_ids: np.ndarray | None = None,
        inline: bool = False,
    ) -> None:
        super().__init__(
            points, config.service.replace(trace=config.trace), point_ids=point_ids
        )
        self.serve_config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
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
        # Every spawn is under way before the first wait, so they overlap;
        # the ping returns once a replica has mapped its epoch, so no
        # flush (and no flush-time estimate) pays for a spawn.
        for handle in self.replicas:
            try:
                handle.ping()
            except _PIPE_ERRORS as exc:
                self._stop_fleet()
                raise RuntimeError(
                    f"replica {handle.replica_id} did not come up on {self._epoch_dir}"
                ) from exc
        # Batch ids per replica; each is touched by its own worker only.
        self._sent = [0] * len(self.replicas)

    # -- epochs ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.engine.epoch

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

    def compact(self) -> int | None:
        """Publish the pending delta as a new epoch and swap the fleet.

        Returns the new epoch number (``None`` when the delta was empty
        and nothing was published).  The swap is a broadcast: each
        replica finishes its in-flight batch on the old mapping, then
        maps the new artifact — zero downtime, bounded staleness.
        """
        new_epoch = super().compact()
        if new_epoch is None:
            return None
        self._epoch_dir = self._export_epoch()
        for replica in self.replicas:
            if replica.alive:
                replica.swap(str(self._epoch_dir))
        return new_epoch

    # -- flush workers --------------------------------------------------------

    def _worker_count(self) -> int:
        """Flush workers: one per replica."""
        return len(self.replicas)

    def _execute(self, worker: int, requests: list[Request], now_s: float) -> FlushOutcome:
        """Answer one batch on replica ``worker`` over its pipe."""
        self._sent[worker] += 1
        try:
            answers, info = self.replicas[worker].query(self._sent[worker], requests, now_s)
        except _PIPE_ERRORS as exc:
            raise WorkerLost(f"replica {worker} died") from exc
        return FlushOutcome(
            answers=answers,
            stats=QueryStats.from_dict(info["stats"]),
            mode=info["mode"],
            n_exact=info["n_exact"],
            n_degraded=info["n_degraded"],
            epoch=info["epoch"],
        )

    # -- fleet ----------------------------------------------------------------

    def stats(self) -> list[dict[str, Any]]:
        """Per-replica counter snapshots (skips dead replicas)."""
        out = []
        for replica in self.replicas:
            try:
                if replica.alive and replica.conn is not None:
                    out.append(replica.stats())
            except _PIPE_ERRORS:
                pass  # died since the liveness check
        return out

    def _trace_sections(self) -> dict[str, Any]:
        """The service section plus per-replica counters, flattened."""
        section = {f"replica-{r.replica_id}": {"dead": 1.0} for r in self.replicas}
        for stats in self.stats():
            flat = {f"io.{key}": float(value) for key, value in stats.pop("io").items()}
            rid = stats.pop("replica_id")
            flat.update((key, float(value)) for key, value in stats.items())
            section[f"replica-{rid}"] = {"dead": 0.0, **flat}
        return {**super()._trace_sections(), "replica": section}

    def _trace_meta(self) -> dict[str, Any]:
        topology = self.serve_config.describe()
        del topology["service"]  # the service's knobs are already there
        meta = {**super()._trace_meta(), **topology}
        return {**meta, "api": "ReplicaCluster", "component": "repro.serve"}

    def close(self) -> dict[str, Any]:
        """Close the pipeline, then stop the fleet and free the cache segment."""
        sections = super().close()
        self._stop_fleet()
        return sections

    def _stop_fleet(self) -> None:
        """Stop and reap every replica, then free the shared-cache segment."""
        for replica in self.replicas:
            try:
                replica.stop()
            except _PIPE_ERRORS:
                replica.join()
        if self.cache is not None:
            self.cache.close()
