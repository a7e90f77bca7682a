"""``allnn-batch``: the paper's query, repeated.

A k=1 self-join over 10,000 clustered 2-D points with the library
defaults (MBRQT, NXNDIST, 64-page pool).  The index is ~74 pages, so it
does not fit the pool: ``repro.core`` traversal and ``repro.storage``
page decode carry the time, and the service and serve layers sit idle.
A call takes ~1.2 s, so a run times ~25 of them (40,000-point calls,
~5 s each, gave too few).  The times follow the host's CPU speed, so the
workload is not gated (see README.md).  The calls cycle over eight datasets
drawn from the seed, because one dataset's join work moves with where
its clusters fall (19–26M distance evaluations over ten seeds; a spread
of 0.09 of the median, which a mean over four datasets cut to 0.06).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

from common import (
    DIST_TOL,
    WRITE_WINDOW_S,
    Outcome,
    mean,
    median,
    percentile,
    ratio,
    rss_peak_mb,
    windowed,
)
from repro import JoinConfig, StorageManager, Tracer, all_nearest_neighbors, build_index
from repro.data.gstd import gaussian_clusters
from repro.obs.report import aggregate_stages

N_POINTS = 10_000
#: Datasets a run cycles over, each drawn from ``[seed, i]``.
DATASETS = 8
#: Index builds timed before each join (~11 ms each), so the builds
#: behind ``setup_s`` and ``write_mean_ms`` are spread over the run.
BUILDS_PER_JOIN = 3


def _check(points: np.ndarray, ref: np.ndarray, result) -> bool:
    r_ids, s_ids, dists = result.to_arrays()
    if len(r_ids) != len(points) or not np.array_equal(r_ids, np.arange(len(points))):
        return False
    if np.any(s_ids == r_ids) or np.any(s_ids < 0) or np.any(s_ids >= len(points)):
        return False
    actual = np.linalg.norm(points[s_ids] - points[r_ids], axis=1)
    return bool(
        np.all(np.abs(dists - ref) <= DIST_TOL) and np.all(np.abs(actual - dists) <= DIST_TOL)
    )


def _joins(data, seconds, out: Outcome, phase: str, traced: bool):
    """Repeat index builds and the join for ``seconds``, cycling over the
    ``(points, reference)`` pairs in ``data``; return per-call join wall
    times, ``(s since start, build wall time)`` pairs, and per dataset the
    stats and (when traced) stage aggregates of its calls."""
    tally = out.phase(phase)
    walls, builds = [], []
    stats: list[list] = [[] for __ in data]
    stages: list[list] = [[] for __ in data]
    start = time.monotonic()
    last = 0.0
    while tally.sent < len(data) or time.monotonic() - start + 0.5 * last < seconds:
        i = tally.sent % len(data)
        points, ref = data[i]
        for __ in range(BUILDS_PER_JOIN):
            t0 = time.perf_counter()
            build_index(points, StorageManager())
            builds.append((time.monotonic() - start, time.perf_counter() - t0))
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        result, st = all_nearest_neighbors(points, config=JoinConfig(), trace=tracer)
        last = time.perf_counter() - t0
        tally.sent += 1
        if _check(points, ref, result):
            tally.ok += 1
            walls.append(last)
            stats[i].append(st)
            if tracer is not None:
                stages[i].append(aggregate_stages(tracer.document["root"]))
        else:
            tally.wrong += 1
    return walls, builds, stats, stages


def _per_dataset(groups: list[list], value) -> float:
    """Mean over datasets of the mean of ``value`` over that dataset's
    calls, so counters do not move with how many calls each one got."""
    return mean([mean([value(x) for x in group]) for group in groups if group])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    data = []
    for i in range(DATASETS):
        points = gaussian_clusters(N_POINTS, 2, seed=np.random.default_rng([seed, i]))
        data.append((points, cKDTree(points).query(points, k=2)[0][:, 1]))

    budget = seconds / 2 if trace else seconds
    walls, builds, __, __ = _joins(data, budget, out, "join", traced=False)
    build_s = [b for __, b in builds]
    if not trace:
        out.put("setup_s", median(build_s), "s")
        out.put("join_s", median(walls), "s")
        # Every point's answer arrives when the call returns, so a read's
        # latency is the call's.
        out.put("read_p50_ms", 1e3 * median(walls), "ms")
        out.put("write_mean_ms", 1e3 * windowed(builds, WRITE_WINDOW_S, mean, 10), "ms")
        out.put("rss_peak_mb", rss_peak_mb(), "MiB")
        out.notes.append(
            f"  {len(walls)} joins over {DATASETS} datasets "
            f"(min {min(walls, default=0):.3f} s, max {max(walls, default=0):.3f} s), "
            f"{len(builds)} index builds of {N_POINTS} points"
        )
        return out

    t_walls, __, t_stats, t_stages = _joins(data, budget, out, "join-traced", traced=True)

    def total(key: str) -> float:
        return _per_dataset(t_stats, lambda st: getattr(st, key))

    def stage(name: str) -> float:
        return _per_dataset(t_stages, lambda st: st.get(name, {}).get("time_s", 0.0))

    evals, misses = total("distance_evaluations"), total("page_misses")
    hits, cold = total("node_cache_hits"), total("node_cache_misses")
    out.put("index.build_s", median(build_s), "s")
    out.put("core.expand_s", stage("expand"), "s")
    out.put("core.filter_s", stage("filter"), "s")
    out.put("core.gather_s", stage("gather"), "s")
    out.put("core.distance_evals", evals, "count")
    out.put("core.node_expansions", total("node_expansions"), "count")
    out.put("core.pairs_per_eval", ratio(total("result_pairs"), evals), "ratio")
    out.put("storage.logical_reads", total("logical_reads"), "count")
    out.put("storage.page_misses", misses, "count")
    out.put("storage.pool_hit_rate", 1.0 - ratio(misses, total("logical_reads")), "ratio")
    out.put("storage.node_cache_hit_rate", ratio(hits, hits + cold), "ratio")
    out.put("bench.read_p99_ms", 1e3 * percentile(walls, 99), "ms")
    out.put("bench.read_capacity_rps", ratio(N_POINTS, median(walls)), "1/s")
    out.put("bench.trace_overhead.join_s", median(t_walls) - median(walls), "s")
    out.notes.append(f"  {len(walls)} untraced and {len(t_walls)} traced joins")
    return out
