"""MBR distance metrics, including the paper's NXNDIST (Algorithm 1).

Scalar forms take two :class:`~repro.core.geometry.Rect` values; batch forms
take one ``Rect`` on the query side and a
:class:`~repro.core.geometry.RectArray` on the target side and return one
value per target rectangle.  The batch forms are what the traversal
algorithms use: one call scores a query entry against every child of an
index node.

Metric inventory (Section 3.1 of the paper):

``MINMINDIST``
    Minimum possible distance between any point of ``M`` and any point of
    ``N``.  The classical lower bound, used for ordering and pruning.
``MAXMAXDIST``
    Maximum possible distance between any point of ``M`` and any point of
    ``N``.  The traditional (loose) upper bound this paper improves upon.
``MINMAXDIST``
    Upper bound on the distance of at least one pair of points (Corral et
    al.); included for completeness — the paper notes it is *not* a valid
    ANN pruning bound.
``NXNDIST`` (MINMAXMINDIST)
    The paper's contribution: for **every** point ``r`` in ``M`` there is a
    point of ``N`` within ``NXNDIST(M, N)`` (Lemma 3.1).  Asymmetric, and
    monotone when the query side shrinks (Lemma 3.2).
"""

from __future__ import annotations

import numpy as np

from .geometry import Rect, RectArray

__all__ = [
    "maxdist_per_dim",
    "maxmin_per_dim",
    "minmindist",
    "maxmaxdist",
    "minmaxdist",
    "nxndist",
    "minmindist_batch",
    "maxmaxdist_batch",
    "nxndist_batch",
    "minmindist_point_batch",
    "dist_point_points",
    "minmindist_cross",
    "maxmaxdist_cross",
    "nxndist_cross",
    "minmindist_nxndist_cross",
    "minmindist_maxmaxdist_cross",
    "minmindist_nxndist_pairs",
    "minmindist_maxmaxdist_pairs",
]


# ---------------------------------------------------------------------------
# point-level kernels
# ---------------------------------------------------------------------------


def dist_point_points(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from point ``p`` to each row of ``(n, D)`` array.

    Reduced with ``np.sum`` like every other kernel in this module, so
    exact distances compare consistently (to the ULP) against the bounds
    derived from the MBR metrics.
    """
    diff = np.asarray(points, dtype=np.float64) - np.asarray(p, dtype=np.float64)
    return np.sqrt(np.sum(diff * diff, axis=1))


# ---------------------------------------------------------------------------
# per-dimension building blocks
# ---------------------------------------------------------------------------


def maxdist_per_dim(m: Rect, n: Rect) -> np.ndarray:
    """``MAXDIST_d(M, N)`` for every dimension d.

    The farthest separation in one dimension between a point of ``M`` and a
    point of ``N`` is attained at interval end points, so it equals
    ``max(|l^M - u^N|, |u^M - l^N|)`` (the other two end-point combinations
    are always dominated).
    """
    return np.maximum(np.abs(m.lo - n.hi), np.abs(m.hi - n.lo))


def maxmin_per_dim(m: Rect, n: Rect) -> np.ndarray:
    """``MAXMIN_d(M, N)`` of Definition 3.1 for every dimension d.

    ``MAXMIN_d = max_{p in M} min(|p_d - l^N_d|, |p_d - u^N_d|)`` — the worst
    case, over query points, of the distance to the *nearer* face of ``N``
    in dimension d.  The inner ``min`` is a piecewise-linear function of
    ``p_d`` whose maximum over the interval ``[l^M_d, u^M_d]`` is attained
    either at an end point of that interval or at the midpoint of ``N``'s
    interval (the peak of the tent function), whichever lies inside.
    """
    mid = (n.lo + n.hi) / 2.0

    def tent(x: np.ndarray) -> np.ndarray:
        return np.minimum(np.abs(x - n.lo), np.abs(x - n.hi))

    at_lo = tent(m.lo)
    at_hi = tent(m.hi)
    best = np.maximum(at_lo, at_hi)
    inside = (m.lo <= mid) & (mid <= m.hi)
    if np.any(inside):
        best = np.where(inside, np.maximum(best, tent(mid)), best)
    return best


# ---------------------------------------------------------------------------
# scalar metrics
# ---------------------------------------------------------------------------


def minmindist(m: Rect, n: Rect) -> float:
    """Classical MINMINDIST lower bound: 0 when the rectangles intersect.

    All MINMINDIST kernels reduce with ``np.sum`` over squared per-dim
    terms — the same reduction the NXNDIST kernels use — so the invariant
    ``MINMINDIST <= NXNDIST`` holds *bit-exactly* (each NXNDIST term
    dominates the corresponding gap term, and the shared reduction is
    monotone).  The traversal's pruning correctness relies on this.
    """
    gap = np.maximum(0.0, np.maximum(n.lo - m.hi, m.lo - n.hi))
    return float(np.sqrt(np.sum(gap * gap)))


def maxmaxdist(m: Rect, n: Rect) -> float:
    """Classical MAXMAXDIST upper bound (farthest corner pair).

    Reduced with ``np.sum`` over the squared per-dim terms, not ``np.dot``:
    BLAS dot may contract with FMA, which rounds differently and would break
    bit-identity with the batch/cross/fused kernels.
    """
    md = maxdist_per_dim(m, n)
    return float(np.sqrt(np.sum(md * md)))


def minmaxdist(m: Rect, n: Rect) -> float:
    """MINMAXDIST of Corral et al. between two MBRs.

    For each dimension ``k`` take the nearest pairing of ``M``/``N`` faces in
    that dimension and the farthest separation in every other dimension; the
    bound is the minimum over ``k``.  At least one point pair is guaranteed
    within this distance.  Kept for comparison experiments; not used as the
    ANN pruning bound (see Section 3.1.1 of the paper).
    """
    md = maxdist_per_dim(m, n)
    md_sq = md**2
    total = float(np.sum(md_sq))
    face = np.minimum.reduce(
        [
            np.abs(m.lo - n.lo),
            np.abs(m.lo - n.hi),
            np.abs(m.hi - n.lo),
            np.abs(m.hi - n.hi),
        ]
    )
    candidates = total - md_sq + face**2
    return float(np.sqrt(np.min(candidates)))


def nxndist(m: Rect, n: Rect) -> float:
    """NXNDIST(M, N) per Definition 3.2 / Algorithm 1 — ``O(D)`` time.

    ``sqrt(S - max_d(MAXDIST_d^2 - MAXMIN_d^2))`` with
    ``S = sum_d MAXDIST_d^2``.  Geometrically: the cheapest dimension along
    which a sweep region anchored at any query point is guaranteed to catch
    a face of ``N``, paying MAXMIN in the sweep dimension and MAXDIST in all
    others.
    """
    md_sq = maxdist_per_dim(m, n) ** 2
    mm_sq = maxmin_per_dim(m, n) ** 2
    # Additive evaluation: substitute MAXMIN^2 for MAXDIST^2 in the sweep
    # dimension and sum.  The algebraically equivalent "S - max(saving)"
    # form suffers catastrophic cancellation and can round *below*
    # MINMINDIST when the two coincide, which would break the pruning
    # invariant MINMINDIST <= NXNDIST that the traversal relies on; the
    # additive form is per-term monotone against the MINMINDIST sum.
    sweep = int(np.argmax(md_sq - mm_sq))
    terms = md_sq.copy()
    terms[sweep] = mm_sq[sweep]
    return float(np.sqrt(np.sum(terms)))


# ---------------------------------------------------------------------------
# batch metrics: one query Rect against a RectArray of targets
# ---------------------------------------------------------------------------


def minmindist_batch(m: Rect, targets: RectArray) -> np.ndarray:
    """MINMINDIST from ``m`` to each rectangle of ``targets``."""
    gap = np.maximum(0.0, np.maximum(targets.lo - m.hi, m.lo - targets.hi))
    return np.sqrt(np.sum(gap * gap, axis=1))


def minmindist_point_batch(p: np.ndarray, targets: RectArray) -> np.ndarray:
    """MINMINDIST from a point to each rectangle of ``targets``."""
    p = np.asarray(p, dtype=np.float64)
    gap = np.maximum(0.0, np.maximum(targets.lo - p, p - targets.hi))
    return np.sqrt(np.sum(gap * gap, axis=1))


def _maxdist_sq_batch(m: Rect, targets: RectArray) -> np.ndarray:
    md = np.maximum(np.abs(m.lo - targets.hi), np.abs(m.hi - targets.lo))
    return md**2


def maxmaxdist_batch(m: Rect, targets: RectArray) -> np.ndarray:
    """MAXMAXDIST from ``m`` to each rectangle of ``targets``."""
    return np.sqrt(np.sum(_maxdist_sq_batch(m, targets), axis=1))


def nxndist_batch(m: Rect, targets: RectArray) -> np.ndarray:
    """NXNDIST from query rect ``m`` to each target rectangle.

    Vectorised Algorithm 1: all per-dimension MAXDIST and MAXMIN values for
    all targets are produced by numpy broadcasts, preserving the ``O(D)``
    per-pair cost.
    """
    md_sq = _maxdist_sq_batch(m, targets)

    mid = (targets.lo + targets.hi) / 2.0
    at_lo = np.minimum(np.abs(m.lo - targets.lo), np.abs(m.lo - targets.hi))
    at_hi = np.minimum(np.abs(m.hi - targets.lo), np.abs(m.hi - targets.hi))
    mm = np.maximum(at_lo, at_hi)
    inside = (m.lo <= mid) & (mid <= m.hi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - targets.lo), np.abs(mid - targets.hi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    mm_sq = mm**2

    return _nxn_substitute_sweep(md_sq, mm_sq, axis=1)


def _nxn_substitute_sweep(md_sq: np.ndarray, mm_sq: np.ndarray, axis: int) -> np.ndarray:
    """Finish an NXNDIST kernel from its squared MAXDIST / MAXMIN parts.

    Additive form (see :func:`nxndist`): substitute the sweep dimension's
    MAXMIN^2 term for its MAXDIST^2 term and sum, preserving
    ``MINMINDIST <= NXNDIST`` in floats.  ``md_sq`` is consumed in place —
    every caller passes a temporary it owns.
    """
    if axis == md_sq.ndim - 1 and md_sq.flags.c_contiguous and mm_sq.flags.c_contiguous:
        # Flat-index form of the substitution below: same values written to
        # the same elements, then the same last-axis sum — bit-identical,
        # without the generic ``*_along_axis`` index machinery.
        dims = md_sq.shape[-1]
        md_flat = md_sq.reshape(-1, dims)
        mm_flat = mm_sq.reshape(-1, dims)
        sweep_flat = np.argmax(md_flat - mm_flat, axis=1)
        rows = np.arange(md_flat.shape[0])
        md_flat[rows, sweep_flat] = mm_flat[rows, sweep_flat]
        return np.sqrt(np.sum(md_sq, axis=axis))
    sweep = np.expand_dims(np.argmax(md_sq - mm_sq, axis=axis), axis)
    np.put_along_axis(md_sq, sweep, np.take_along_axis(mm_sq, sweep, axis=axis), axis=axis)
    return np.sqrt(np.sum(md_sq, axis=axis))


# ---------------------------------------------------------------------------
# cross metrics: every rect of A against every rect of B -> (len A, len B)
# ---------------------------------------------------------------------------
#
# These are the workhorses of the MBA bi-directional expansion step
# (Algorithm 4, Expand Stage): one call scores all children of the query
# node against all children of a candidate target node.  Degenerate rects
# (points) are handled transparently, so the same kernels serve internal
# nodes, leaves, and data objects.


def minmindist_cross(a: RectArray, b: RectArray) -> np.ndarray:
    """MINMINDIST between every rect of ``a`` and every rect of ``b``."""
    gap = np.maximum(
        0.0,
        np.maximum(
            b.lo[None, :, :] - a.hi[:, None, :],
            a.lo[:, None, :] - b.hi[None, :, :],
        ),
    )
    # np.sum (not einsum): must share the NXNDIST kernels' reduction so
    # MINMINDIST <= NXNDIST holds bit-exactly (see ``minmindist``).
    return np.sqrt(np.sum(gap * gap, axis=2))


def _maxdist_sq_cross(a: RectArray, b: RectArray) -> np.ndarray:
    md = np.maximum(
        np.abs(a.lo[:, None, :] - b.hi[None, :, :]),
        np.abs(a.hi[:, None, :] - b.lo[None, :, :]),
    )
    return md**2


def maxmaxdist_cross(a: RectArray, b: RectArray) -> np.ndarray:
    """MAXMAXDIST between every rect of ``a`` and every rect of ``b``."""
    return np.sqrt(np.sum(_maxdist_sq_cross(a, b), axis=2))


def nxndist_cross(a: RectArray, b: RectArray) -> np.ndarray:
    """NXNDIST from every (query) rect of ``a`` to every (target) rect of ``b``.

    Vectorised Algorithm 1 over the full cross product; the per-pair cost
    stays ``O(D)``.
    """
    if a.lo.shape[1] == 2:
        # 2-D fast path, mirroring the fused kernel: per-dimension work on
        # (na, nb) arrays instead of an (na, nb, D) broadcast with its
        # slow length-2 last-axis reductions.  Same scalar operations per
        # element, so bit-identical to the general path below (the metric
        # consistency property tests assert it).
        __, md_sq0, ___, abs_ab0, abs_ba0 = _mind_md_sq_2d(a, b, 0)
        __, md_sq1, ___, abs_ab1, abs_ba1 = _mind_md_sq_2d(a, b, 1)
        mm_sq0 = _mm_sq_2d(a, b, 0, abs_ab0, abs_ba0)
        mm_sq1 = _mm_sq_2d(a, b, 1, abs_ab1, abs_ba1)
        # Sweep-dimension choice: >= picks dimension 0 on ties, exactly as
        # np.argmax does in ``_nxn_substitute_sweep``.
        sweep0 = md_sq0 - mm_sq0 >= md_sq1 - mm_sq1
        return np.sqrt(np.where(sweep0, mm_sq0 + md_sq1, md_sq0 + mm_sq1))
    md_sq = _maxdist_sq_cross(a, b)

    b_lo = b.lo[None, :, :]
    b_hi = b.hi[None, :, :]
    mid = (b_lo + b_hi) / 2.0
    a_lo = a.lo[:, None, :]
    a_hi = a.hi[:, None, :]
    at_lo = np.minimum(np.abs(a_lo - b_lo), np.abs(a_lo - b_hi))
    at_hi = np.minimum(np.abs(a_hi - b_lo), np.abs(a_hi - b_hi))
    mm = np.maximum(at_lo, at_hi)
    inside = (a_lo <= mid) & (mid <= a_hi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - b_lo), np.abs(mid - b_hi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    mm_sq = mm**2
    return _nxn_substitute_sweep(md_sq, mm_sq, axis=2)


# ---------------------------------------------------------------------------
# fused cross metrics: MINMINDIST + upper bound in one call
# ---------------------------------------------------------------------------
#
# The Expand Stage needs both the lower bound (for the enqueue test) and
# the pruning upper bound of every pair; computing them separately repeats
# the two broadcast subtractions ``a.lo - b.hi`` / ``b.lo - a.hi`` that
# every metric is built from.  The fused forms share those diffs.  Each
# individual value is produced by exactly the expression the standalone
# kernels use (same operations, same order), so the results are
# bit-identical — the consistency property tests assert this.


def _mind_md_sq_2d(
    a: RectArray, b: RectArray, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One dimension's squared gap and MAXDIST parts plus the raw diffs.

    2-D fast path building block: the general cross kernels broadcast to
    ``(na, nb, D)`` and reduce over the length-D last axis — numpy's
    slowest reduction shape.  Working per dimension on ``(na, nb)`` arrays
    performs the identical scalar operations per element (so the results
    are bit-identical; the property tests assert it) without the strided
    small-axis sums, argmaxes and index juggling.
    """
    d_ab = a.lo[:, d, None] - b.hi[None, :, d]
    d_ba = b.lo[None, :, d] - a.hi[:, d, None]
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    abs_ab = np.abs(d_ab)
    abs_ba = np.abs(d_ba)
    md_sq = np.square(np.maximum(abs_ab, abs_ba))
    return gap * gap, md_sq, d_ab, abs_ab, abs_ba


def minmindist_maxmaxdist_cross(
    a: RectArray, b: RectArray
) -> tuple[np.ndarray, np.ndarray]:
    """``(MINMINDIST, MAXMAXDIST)`` between every rect of ``a`` and ``b``."""
    if a.lo.shape[1] == 2:
        gap_sq0, md_sq0, _, _, _ = _mind_md_sq_2d(a, b, 0)
        gap_sq1, md_sq1, _, _, _ = _mind_md_sq_2d(a, b, 1)
        return np.sqrt(gap_sq0 + gap_sq1), np.sqrt(md_sq0 + md_sq1)
    d_ab = a.lo[:, None, :] - b.hi[None, :, :]
    d_ba = b.lo[None, :, :] - a.hi[:, None, :]
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    mind = np.sqrt(np.sum(gap * gap, axis=2))
    md = np.maximum(np.abs(d_ab), np.abs(d_ba))
    maxd = np.sqrt(np.sum(np.square(md, out=md), axis=2))
    return mind, maxd


def _mm_sq_2d(
    a: RectArray, b: RectArray, d: int, abs_ab: np.ndarray, abs_ba: np.ndarray
) -> np.ndarray:
    """One dimension's squared MAXMIN part (2-D fast path; see above)."""
    a_lo = a.lo[:, d, None]
    a_hi = a.hi[:, d, None]
    b_lo = b.lo[None, :, d]
    b_hi = b.hi[None, :, d]
    mid = (b_lo + b_hi) / 2.0
    at_lo = np.minimum(np.abs(a_lo - b_lo), abs_ab)
    at_hi = np.minimum(abs_ba, np.abs(a_hi - b_hi))
    mm = np.maximum(at_lo, at_hi)
    inside = (a_lo <= mid) & (mid <= a_hi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - b_lo), np.abs(mid - b_hi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    return mm * mm


def minmindist_nxndist_cross(
    a: RectArray, b: RectArray
) -> tuple[np.ndarray, np.ndarray]:
    """``(MINMINDIST, NXNDIST)`` from every (query) rect of ``a`` to ``b``."""
    if a.lo.shape[1] == 2:
        gap_sq0, md_sq0, _, abs_ab0, abs_ba0 = _mind_md_sq_2d(a, b, 0)
        gap_sq1, md_sq1, _, abs_ab1, abs_ba1 = _mind_md_sq_2d(a, b, 1)
        mind = np.sqrt(gap_sq0 + gap_sq1)
        mm_sq0 = _mm_sq_2d(a, b, 0, abs_ab0, abs_ba0)
        mm_sq1 = _mm_sq_2d(a, b, 1, abs_ab1, abs_ba1)
        # Sweep-dimension choice: argmax over the two saving terms picks
        # dimension 0 on ties, as np.argmax does in the general kernel.
        sweep0 = md_sq0 - mm_sq0 >= md_sq1 - mm_sq1
        nxn = np.sqrt(np.where(sweep0, mm_sq0 + md_sq1, md_sq0 + mm_sq1))
        return mind, nxn
    b_lo = b.lo[None, :, :]
    b_hi = b.hi[None, :, :]
    a_lo = a.lo[:, None, :]
    a_hi = a.hi[:, None, :]
    d_ab = a_lo - b_hi
    d_ba = b_lo - a_hi
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    mind = np.sqrt(np.sum(gap * gap, axis=2))

    abs_ab = np.abs(d_ab)  # |a.lo - b.hi|
    abs_ba = np.abs(d_ba)  # |a.hi - b.lo|
    md_sq = np.square(np.maximum(abs_ab, abs_ba))

    mid = (b_lo + b_hi) / 2.0
    at_lo = np.minimum(np.abs(a_lo - b_lo), abs_ab)
    at_hi = np.minimum(abs_ba, np.abs(a_hi - b_hi))
    mm = np.maximum(at_lo, at_hi)
    inside = (a_lo <= mid) & (mid <= a_hi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - b_lo), np.abs(mid - b_hi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    mm_sq = mm**2
    return mind, _nxn_substitute_sweep(md_sq, mm_sq, axis=2)


# ---------------------------------------------------------------------------
# fused row-wise (pairs) metrics: rect i of A against rect i of B -> (n,)
# ---------------------------------------------------------------------------
#
# The frontier engine flattens its per-level expansion into one long list
# of (query rect, target rect) row pairs — a gather over two rect tables,
# not a cross product — and scores the whole frontier with one call.
# Each value is produced by exactly the expression the cross kernels use
# (same operations, same order), so a frontier bound or exact distance is
# bit-identical to what the recursive engine computes for the same pair.


def _pairs_dim_parts(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    d: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One dimension's squared gap and MAXDIST parts for row pairs.

    2-D fast-path building block, the row-wise analogue of
    :func:`_mind_md_sq_2d`: per-dimension work on ``(n,)`` columns
    instead of an ``(n, 2)`` table with its slow length-2 last-axis
    reductions — identical scalar operations per element, so the results
    are bit-identical (the property tests assert it).
    """
    d_ab = a_lo[:, d] - b_hi[:, d]
    d_ba = b_lo[:, d] - a_hi[:, d]
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    abs_ab = np.abs(d_ab)
    abs_ba = np.abs(d_ba)
    md_sq = np.square(np.maximum(abs_ab, abs_ba))
    return gap * gap, md_sq, abs_ab, abs_ba


def _pairs_mm_sq(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    d: int,
    abs_ab: np.ndarray,
    abs_ba: np.ndarray,
) -> np.ndarray:
    """One dimension's squared MAXMIN part for row pairs (2-D fast path)."""
    alo = a_lo[:, d]
    ahi = a_hi[:, d]
    blo = b_lo[:, d]
    bhi = b_hi[:, d]
    mid = (blo + bhi) / 2.0
    at_lo = np.minimum(np.abs(alo - blo), abs_ab)
    at_hi = np.minimum(abs_ba, np.abs(ahi - bhi))
    mm = np.maximum(at_lo, at_hi)
    inside = (alo <= mid) & (mid <= ahi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - blo), np.abs(mid - bhi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    return mm * mm


def minmindist_maxmaxdist_pairs(
    a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(MINMINDIST, MAXMAXDIST)`` for row pairs ``(a[i], b[i])``.

    All operands are ``(n, D)`` arrays; returns two ``(n,)`` arrays.
    """
    if a_lo.shape[1] == 2:
        gap_sq0, md_sq0, _, _ = _pairs_dim_parts(a_lo, a_hi, b_lo, b_hi, 0)
        gap_sq1, md_sq1, _, _ = _pairs_dim_parts(a_lo, a_hi, b_lo, b_hi, 1)
        return np.sqrt(gap_sq0 + gap_sq1), np.sqrt(md_sq0 + md_sq1)
    d_ab = a_lo - b_hi
    d_ba = b_lo - a_hi
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    mind = np.sqrt(np.sum(gap * gap, axis=1))
    md = np.maximum(np.abs(d_ab), np.abs(d_ba))
    maxd = np.sqrt(np.sum(np.square(md, out=md), axis=1))
    return mind, maxd


def minmindist_nxndist_pairs(
    a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(MINMINDIST, NXNDIST)`` for row pairs ``(a[i], b[i])``.

    All operands are ``(n, D)`` arrays; returns two ``(n,)`` arrays.  The
    NXNDIST half is Algorithm 1 in the additive sweep-substitution form
    (see :func:`nxndist`), preserving ``MINMINDIST <= NXNDIST`` bitwise.
    """
    if a_lo.shape[1] == 2:
        gap_sq0, md_sq0, abs_ab0, abs_ba0 = _pairs_dim_parts(a_lo, a_hi, b_lo, b_hi, 0)
        gap_sq1, md_sq1, abs_ab1, abs_ba1 = _pairs_dim_parts(a_lo, a_hi, b_lo, b_hi, 1)
        mind = np.sqrt(gap_sq0 + gap_sq1)
        mm_sq0 = _pairs_mm_sq(a_lo, a_hi, b_lo, b_hi, 0, abs_ab0, abs_ba0)
        mm_sq1 = _pairs_mm_sq(a_lo, a_hi, b_lo, b_hi, 1, abs_ab1, abs_ba1)
        # Sweep-dimension choice: >= picks dimension 0 on ties, exactly
        # as np.argmax does in ``_nxn_substitute_sweep``.
        sweep0 = md_sq0 - mm_sq0 >= md_sq1 - mm_sq1
        return mind, np.sqrt(np.where(sweep0, mm_sq0 + md_sq1, md_sq0 + mm_sq1))
    d_ab = a_lo - b_hi
    d_ba = b_lo - a_hi
    gap = np.maximum(0.0, np.maximum(d_ba, d_ab))
    mind = np.sqrt(np.sum(gap * gap, axis=1))

    abs_ab = np.abs(d_ab)  # |a.lo - b.hi|
    abs_ba = np.abs(d_ba)  # |a.hi - b.lo|
    md_sq = np.square(np.maximum(abs_ab, abs_ba))

    mid = (b_lo + b_hi) / 2.0
    at_lo = np.minimum(np.abs(a_lo - b_lo), abs_ab)
    at_hi = np.minimum(abs_ba, np.abs(a_hi - b_hi))
    mm = np.maximum(at_lo, at_hi)
    inside = (a_lo <= mid) & (mid <= a_hi)
    if np.any(inside):
        at_mid = np.minimum(np.abs(mid - b_lo), np.abs(mid - b_hi))
        mm = np.where(inside, np.maximum(mm, at_mid), mm)
    mm_sq = mm**2
    return mind, _nxn_substitute_sweep(md_sq, mm_sq, axis=1)
