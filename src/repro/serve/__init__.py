"""Multi-process serving tier: mapped epochs, replicas, asyncio front-end.

``repro.serve`` scales the one serving pipeline, :class:`~repro.service.
service.AnnService`, out to the nginx→appserver→faiss topology the
ROADMAP's north star calls for.  :class:`~repro.serve.cluster.
ReplicaCluster` is an ``AnnService`` whose flush workers are replica
processes (:mod:`repro.serve.replica`) answering batches against
zero-copy mapped epoch artifacts (:mod:`repro.storage.mapped`) through
a :class:`~repro.serve.shared_cache.SharedNodeCache`; the asyncio
:class:`~repro.serve.frontend.Frontend` adapts any ``AnnService`` to a
newline-delimited JSON socket.

Non-degraded answers are bit-identical to the single-process service:
replicas run the very same :func:`~repro.service.engine.execute_pinned`
flush path over bit-identical pages.
"""

from .cluster import ReplicaCluster
from .config import ServeConfig, default_service_config
from .frontend import DRAIN_TIMEOUT_S, Frontend
from .replica import ReplicaHandle, ReplicaSpec, load_epoch_version
from .shared_cache import SharedCacheHandle, SharedNodeCache

__all__ = [
    "DRAIN_TIMEOUT_S",
    "Frontend",
    "ReplicaCluster",
    "ReplicaHandle",
    "ReplicaSpec",
    "ServeConfig",
    "SharedCacheHandle",
    "SharedNodeCache",
    "default_service_config",
    "load_epoch_version",
]
