"""The reference AkNN implementation used as ground truth in tests.

A pure-numpy brute force: quadratic, exact by construction, and
independent of the storage substrate — it exists for correctness, not
for benchmarking I/O.
"""

from __future__ import annotations

import numpy as np

from ..core.result import NeighborResult

__all__ = ["brute_force_join"]


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected non-empty (n, D) points, got shape {pts.shape}")
    return pts


def brute_force_join(
    r_points: np.ndarray,
    s_points: np.ndarray,
    k: int = 1,
    exclude_self: bool = False,
    r_ids: np.ndarray | None = None,
    s_ids: np.ndarray | None = None,
) -> NeighborResult:
    """Exact AkNN by full pairwise distances (O(|R|·|S|) memory-chunked).

    With ``exclude_self``, a target is skipped when its id equals the
    query's id (the self-join convention used across the library).
    """
    r_points = _as_points(r_points)
    s_points = _as_points(s_points)
    if r_ids is None:
        r_ids = np.arange(len(r_points), dtype=np.int64)
    if s_ids is None:
        s_ids = np.arange(len(s_points), dtype=np.int64)

    result = NeighborResult(k)
    chunk = max(1, 2_000_000 // max(1, len(s_points)))
    for start in range(0, len(r_points), chunk):
        block = r_points[start : start + chunk]
        diffs = block[:, None, :] - s_points[None, :, :]
        dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
        if exclude_self:
            same = r_ids[start : start + len(block), None] == s_ids[None, :]
            dists = np.where(same, np.inf, dists)
        take = min(k, dists.shape[1])
        idx = np.argpartition(dists, take - 1, axis=1)[:, :take]
        for row in range(len(block)):
            cols = idx[row]
            cols = cols[np.argsort(dists[row][cols], kind="stable")]
            for col in cols:
                if np.isfinite(dists[row][col]):
                    result.add(int(r_ids[start + row]), int(s_ids[col]), float(dists[row][col]))
    return result.finalize()
