"""Core-kernel microbenchmark sweep → ``BENCH_core.json``.

The figure experiments (:mod:`repro.bench.experiments`) compare *methods*
against each other on modeled clocks; this module instead tracks the
absolute cost of the engine's hot kernels on the host that runs it, so a
regression in the LPQ, the cross metrics, or the end-to-end traversal is
visible as a number in a committed artifact rather than a vague slowdown.

Three sections:

* ``lpq`` — push/pop throughput of :class:`~repro.core.lpq.LPQ` on
  synthetic entry batches, for the ANN bound (``need=1``) and the
  count-aware AkNN bound (``need=4`` with ``counts_valid``).
* ``metrics`` — per-call latency of the three cross kernels
  (MINMINDIST, MAXMAXDIST, NXNDIST) on a fixed rect batch.
* ``end_to_end`` — full :func:`~repro.core.mba.mba_join` runs on a
  fixed-seed GSTD slice, with the decoded-node cache enabled so its hit
  counters are exercised; each run records its result checksum so a
  speedup can never silently ride on a wrong answer.

Wall-clock numbers are host-specific: before/after comparisons are only
meaningful between artifacts produced on the same machine (the committed
EXPERIMENTS.md table states its host).  The counters and checksums are
machine-independent.

Artifact schema (``schema`` key = ``repro.bench.kernels/v1``)::

    {
      "schema": "repro.bench.kernels/v1",
      "smoke": <bool>,
      "seed": <dataset seed>,
      "lpq": [
        {"scenario", "need_count", "counts_valid", "queues", "batches",
         "batch", "push_s", "pop_s", "enqueues", "pops",
         "push_rate_eps", "pop_rate_eps"}, ...
      ],
      "metrics": [
        {"kernel", "a", "b", "dims", "reps", "per_call_us"}, ...
      ],
      "end_to_end": [
        {"label", "kind", "n", "dims", "k", "node_cache_entries",
         "wall_s", "io_model_s", "counters": <QueryStats.as_dict>,
         "result": {"pair_count", "total_distance"}}, ...
      ],
      "frontier": [
        {"label", "kind", "n", "dims", "k", "node_cache_entries",
         "baseline_wall_s", "frontier_wall_s", "speedup", "match",
         "counters": <frontier QueryStats.as_dict>,
         "result": {"pair_count", "total_distance"}}, ...
      ]
    }

The ``frontier`` section runs the same end-to-end scenarios through both
engines cold (same index, caches dropped before each run) and records
the wall-clock ratio; ``match`` asserts the answers are identical, so a
speedup can never ride on a wrong answer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..api import build_index
from ..core.frontier import frontier_join
from ..core.geometry import Rect, RectArray
from ..core.lpq import make_node_lpq
from ..core.mba import mba_join
from ..core.result import NeighborResult
from ..obs.tracer import current_tracer
from ..core.metrics import maxmaxdist_cross, minmindist_cross, nxndist_cross
from ..core.stats import QueryStats
from ..data import gstd
from ..storage.manager import StorageManager

__all__ = ["kernel_bench", "format_kernel_report", "SCHEMA"]

SCHEMA = "repro.bench.kernels/v1"

_PAGE_SIZE = 2048
_POOL_BYTES = 512 * 1024
_NODE_CACHE_ENTRIES = 256


def _bench_lpq(
    scenario: str,
    need_count: int,
    counts_valid: bool,
    queues: int,
    batches: int,
    batch: int,
    rng: np.random.Generator,
) -> dict[str, Any]:
    """Time ``queues`` LPQs each absorbing ``batches`` pushes then draining."""
    stats = QueryStats()
    owner = Rect(np.zeros(2), np.ones(2))
    # Pre-generate every batch so the timed region is pure LPQ work.
    minds = rng.uniform(0.0, 2.0, size=(queues, batches, batch))
    maxds = minds + rng.uniform(0.0, 1.0, size=(queues, batches, batch))
    node_ids = np.arange(batch, dtype=np.int64)
    counts = rng.integers(1, 8, size=batch).astype(np.int64)

    lpqs = [
        make_node_lpq(
            owner, q, float("inf"), stats,
            need_count=need_count, counts_valid=counts_valid,
        )
        for q in range(queues)
    ]
    t0 = time.perf_counter()
    for q, lpq in enumerate(lpqs):
        for b in range(batches):
            lpq.push_nodes(node_ids, counts, minds[q, b], maxds[q, b])
    push_s = time.perf_counter() - t0

    pops = 0
    t0 = time.perf_counter()
    for lpq in lpqs:
        while lpq.pop() is not None:
            pops += 1
    pop_s = time.perf_counter() - t0

    enqueues = queues * batches * batch
    return {
        "scenario": scenario,
        "need_count": need_count,
        "counts_valid": counts_valid,
        "queues": queues,
        "batches": batches,
        "batch": batch,
        "push_s": push_s,
        "pop_s": pop_s,
        "enqueues": enqueues,
        "pops": pops,
        "push_rate_eps": enqueues / push_s if push_s else float("inf"),
        "pop_rate_eps": pops / pop_s if pop_s else float("inf"),
    }


def _bench_metrics(
    a_n: int, b_n: int, dims: int, reps: int, rng: np.random.Generator
) -> list[dict[str, Any]]:
    def rects(n: int) -> RectArray:
        lo = rng.random((n, dims))
        return RectArray(lo, lo + 0.1 * rng.random((n, dims)))

    a, b = rects(a_n), rects(b_n)
    rows = []
    for name, fn in (
        ("minmindist_cross", minmindist_cross),
        ("maxmaxdist_cross", maxmaxdist_cross),
        ("nxndist_cross", nxndist_cross),
    ):
        fn(a, b)  # warm any lazy numpy setup out of the timed region
        t0 = time.perf_counter()
        for __ in range(reps):
            fn(a, b)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "kernel": name,
                "a": a_n,
                "b": b_n,
                "dims": dims,
                "reps": reps,
                "per_call_us": 1e6 * elapsed / reps,
            }
        )
    return rows


def _bench_end_to_end(
    kind: str, n: int, dims: int, k: int, seed: int
) -> dict[str, Any]:
    pts = gstd.generate(n, dims, "uniform", seed=seed)
    storage = StorageManager.with_pool_bytes(
        _POOL_BYTES, _PAGE_SIZE, node_cache_entries=_NODE_CACHE_ENTRIES
    )
    index = build_index(pts, storage, kind=kind)
    storage.reset_counters()
    storage.drop_caches()
    tracer = current_tracer()
    t0, cpu0 = time.perf_counter(), time.process_time()
    if tracer is None:
        result, stats = mba_join(index, index, k=k, exclude_self=True)
    else:
        with tracer.span("end-to-end", kind=kind, n=n, k=k):
            result, stats = mba_join(index, index, k=k, exclude_self=True, trace=tracer)
    wall = time.perf_counter() - t0
    stats.cpu_time_s += time.process_time() - cpu0
    io = storage.io_snapshot()
    stats.add_io(io)
    return {
        "label": f"{kind}-n{n}-k{k}",
        "kind": kind,
        "n": n,
        "dims": dims,
        "k": k,
        "node_cache_entries": _NODE_CACHE_ENTRIES,
        "wall_s": wall,
        "io_model_s": io["io_time_s"],
        "counters": stats.as_dict(),
        "result": {
            "pair_count": result.pair_count(),
            "total_distance": result.total_distance(),
        },
    }


def _bench_frontier(
    kind: str, n: int, dims: int, k: int, seed: int
) -> dict[str, Any]:
    """Cold mba_join vs cold frontier_join on one end-to-end scenario."""
    pts = gstd.generate(n, dims, "uniform", seed=seed)
    storage = StorageManager.with_pool_bytes(
        _POOL_BYTES, _PAGE_SIZE, node_cache_entries=_NODE_CACHE_ENTRIES
    )
    index = build_index(pts, storage, kind=kind)

    def cold(
        join: Any,
    ) -> tuple[float, NeighborResult, QueryStats]:
        storage.reset_counters()
        storage.drop_caches()
        t0, cpu0 = time.perf_counter(), time.process_time()
        result, stats = join(index, index, k=k, exclude_self=True)
        wall = time.perf_counter() - t0
        stats.cpu_time_s += time.process_time() - cpu0
        stats.add_io(storage.io_snapshot())
        return wall, result, stats

    baseline_s, baseline_result, __ = cold(mba_join)
    frontier_s, frontier_result, stats = cold(frontier_join)
    return {
        "label": f"{kind}-n{n}-k{k}",
        "kind": kind,
        "n": n,
        "dims": dims,
        "k": k,
        "node_cache_entries": _NODE_CACHE_ENTRIES,
        "baseline_wall_s": baseline_s,
        "frontier_wall_s": frontier_s,
        "speedup": baseline_s / frontier_s if frontier_s else float("inf"),
        "match": baseline_result.same_pairs_as(frontier_result, tol=0.0),
        "counters": stats.as_dict(),
        "result": {
            "pair_count": frontier_result.pair_count(),
            "total_distance": frontier_result.total_distance(),
        },
    }


def kernel_bench(
    smoke: bool = False,
    seed: int = 7,
    out_path: str | Path | None = None,
) -> dict[str, Any]:
    """Run the sweep and (optionally) write ``BENCH_core.json``.

    ``smoke=True`` shrinks every section to seconds of runtime — the CI
    configuration — while keeping every code path (including the decoded-
    node cache) exercised.
    """
    rng = np.random.default_rng(seed)
    if smoke:
        queues, batches, batch = 20, 2, 32
        a_n = b_n = 16
        reps = 5
        e2e = [("mbrqt", 1200, 1), ("mbrqt", 1200, 3), ("rstar", 800, 1)]
    else:
        queues, batches, batch = 200, 4, 64
        a_n = b_n = 64
        reps = 50
        e2e = [("mbrqt", 8000, 1), ("mbrqt", 8000, 3), ("rstar", 4000, 1)]

    report: dict[str, Any] = {
        "schema": SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "lpq": [
            _bench_lpq("ann", 1, False, queues, batches, batch, rng),
            _bench_lpq("aknn-counts", 4, True, queues, batches, batch, rng),
        ],
        "metrics": _bench_metrics(a_n, b_n, 2, reps, rng),
        "end_to_end": [
            _bench_end_to_end(kind, n, 2, k, seed) for kind, n, k in e2e
        ],
        "frontier": [
            _bench_frontier(kind, n, 2, k, seed) for kind, n, k in e2e
        ],
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_kernel_report(report: dict[str, Any]) -> str:
    """Text tables over the artifact (the CLI's human-readable view)."""
    lines = [f"Core kernel benchmark ({'smoke' if report['smoke'] else 'full'})"]
    lines.append("")
    lines.append("LPQ push/pop")
    for row in report["lpq"]:
        lines.append(
            f"  {row['scenario']:12s} push {row['push_s']:.3f}s "
            f"({row['push_rate_eps']:,.0f}/s)  pop {row['pop_s']:.3f}s "
            f"({row['pop_rate_eps']:,.0f}/s)  [{row['enqueues']} entries]"
        )
    lines.append("Cross metrics")
    for row in report["metrics"]:
        lines.append(
            f"  {row['kernel']:18s} {row['per_call_us']:.1f} us/call "
            f"({row['a']}x{row['b']} rects, D={row['dims']})"
        )
    lines.append("End-to-end mba_join (decoded-node cache on)")
    for row in report["end_to_end"]:
        counters = row["counters"]
        lines.append(
            f"  {row['label']:16s} wall {row['wall_s']:.3f}s  "
            f"io(model) {row['io_model_s']:.3f}s  "
            f"dist {int(counters['distance_evaluations']):,}  "
            f"cache {int(counters['node_cache_hits'])}/"
            f"{int(counters['node_cache_hits'] + counters['node_cache_misses'])} hits  "
            f"pairs {row['result']['pair_count']:,}"
        )
    lines.append("Frontier engine vs mba_join (cold runs, same index)")
    for row in report["frontier"]:
        lines.append(
            f"  {row['label']:16s} mba {row['baseline_wall_s']:.3f}s  "
            f"frontier {row['frontier_wall_s']:.3f}s  "
            f"speedup {row['speedup']:.2f}x  "
            f"match {'yes' if row['match'] else 'NO'}"
        )
    return "\n".join(lines)
