"""Closed-loop service load generator → ``BENCH_service.json``.

Quantifies what micro-batching buys an *online* serving layer: the same
closed-loop workload — ``clients`` concurrent callers, each resubmitting
the moment its previous request completes — is replayed against
:class:`~repro.service.AnnService` at several coalescing windows, with
``max_batch=1`` as the one-at-a-time baseline.

Time is modeled, not wall-clocked, exactly as in the other artifacts:
the service runs on a :class:`~repro.service.FakeClock` and every
flush's duration is its machine-independent modeled CPU
(:func:`~repro.bench.harness.modeled_cpu_seconds` over the flush's own
counters) plus its simulated I/O time.  Request latency is queue wait
plus service time on that clock, so throughput and the p50/p95/p99
latency quantiles are stable across host machines and Python versions.

Every run answers the *same* ``n_requests`` query points (arrival order
differs with the window; the answered set does not), and the artifact
refuses to record a run whose summed answer distance deviates from the
baseline's — a throughput win bought with a wrong answer must never
reach disk.

Artifact schema (``schema`` key = ``repro.bench.service/v1``)::

    {
      "schema": "repro.bench.service/v1",
      "dataset":  {"distribution", "n", "dims", "seed"},
      "workload": {"kind", "k", "clients", "n_requests", "metric",
                   "cold_flush", "pool_pages", "page_size"},
      "baseline_max_batch": 1,
      "runs": [
        {
          "max_batch":        <coalescing window>,
          "flushes":          <batches executed>,
          "mean_batch":       <n_requests / flushes>,
          "elapsed_model_s":  <modeled clock at drain>,
          "throughput_rps":   <n_requests / elapsed>,
          "latency_s":        {"mean", "p50", "p95", "p99"},
          "counters":         <summed QueryStats.as_dict()>,
          "checksum":         <summed answer distance>,
          "service":          <ServiceCounters.as_dict()>,
          "vs_baseline":      {"throughput_ratio", "p95_ratio"},
        }, ...
      ]
    }

``*_ratio`` > 1 means the batched run beats the one-at-a-time
baseline (more requests per second; lower tail latency).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..core.stats import QueryStats
from ..data import gstd
from ..service import AnnService, FakeClock, PendingRequest, ServiceConfig
from .harness import modeled_cpu_seconds

__all__ = [
    "run_service_bench",
    "format_service_report",
    "SCHEMA",
]

SCHEMA = "repro.bench.service/v1"

#: The smoke configuration CI runs (same code paths, seconds of work).
SMOKE = {"n_target": 600, "n_requests": 96, "clients": 16, "windows": (1, 8, 16)}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (q in (0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _run_closed_loop(
    service: AnnService,
    clock: FakeClock,
    queries: np.ndarray,
    clients: int,
    k: int,
    dims: int,
) -> tuple[list[float], QueryStats, int, float]:
    """Drive one closed-loop run to completion on the fake clock.

    ``clients`` callers each keep exactly one request in flight; a
    completed request is immediately replaced by the next unissued query
    point until all of ``queries`` have been issued, then the loop
    drains.  Returns (latencies, summed stats, flushes, checksum).
    """
    n_requests = len(queries)
    issued = 0
    in_flight: list[PendingRequest] = []
    latencies: list[float] = []
    checksum = 0.0
    totals = QueryStats()
    flushes = 0
    while len(latencies) < n_requests:
        while issued < n_requests and len(in_flight) < clients:
            in_flight.append(service.submit(queries[issued], k=k))
            issued += 1
        report = service.pump(force=True)
        if report is None:
            raise AssertionError("closed loop stalled with requests in flight")
        flushes += 1
        totals.merge(report.stats)
        clock.advance(modeled_cpu_seconds(report.stats, dims) + report.stats.io_time_s)
        still: list[PendingRequest] = []
        for ticket in in_flight:
            if ticket.done():
                latencies.append(clock.now() - ticket.request.submitted_s)
                checksum += sum(ticket.result(0).distances)
            else:
                still.append(ticket)
        in_flight = still
    return latencies, totals, flushes, checksum


def _latency_row(latencies: list[float]) -> dict[str, float]:
    """The artifact's latency quantile block over an ascending list."""
    return {
        "mean": sum(latencies) / len(latencies),
        "p50": _percentile(latencies, 0.50),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
    }


def run_service_bench(
    windows: tuple[int, ...] = (1, 2, 8, 32),
    clients: int = 32,
    n_target: int = 2_000,
    n_requests: int = 256,
    dims: int = 2,
    k: int = 1,
    kind: str = "mbrqt",
    distribution: str = "uniform",
    seed: int = 7,
    smoke: bool = False,
    out_path: str | Path | None = None,
) -> dict[str, object]:
    """Sweep coalescing windows and (optionally) write ``BENCH_service.json``.

    ``windows[0]`` must be 1 — the one-at-a-time baseline every other
    run is ratioed against.  ``smoke=True`` swaps in the small CI
    configuration (:data:`SMOKE`), overriding the size arguments.
    """
    if smoke:
        windows = tuple(SMOKE["windows"])  # type: ignore[arg-type]
        clients = int(SMOKE["clients"])  # type: ignore[call-overload]
        n_target = int(SMOKE["n_target"])  # type: ignore[call-overload]
        n_requests = int(SMOKE["n_requests"])  # type: ignore[call-overload]
    if not windows or windows[0] != 1:
        raise ValueError(f"windows must start with the max_batch=1 baseline, got {windows}")
    if clients < max(windows):
        raise ValueError(
            f"clients ({clients}) must be >= the largest window ({max(windows)}) "
            "or full batches can never form"
        )
    target = gstd.generate(n_target, dims, distribution, seed=seed)
    queries = gstd.generate(n_requests, dims, distribution, seed=seed + 1)

    runs: list[dict[str, object]] = []
    baseline: dict[str, object] | None = None
    baseline_checksum: float | None = None
    for window in windows:
        cfg = ServiceConfig(
            kind=kind,
            max_batch=window,
            max_delay_ms=0.0,
            queue_capacity=max(clients * 2, 16),
        )
        clock = FakeClock()
        service = AnnService(target, cfg, clock=clock)
        latencies, totals, flushes, checksum = _run_closed_loop(
            service, clock, queries, clients, k, dims
        )
        elapsed = clock.now()
        service.close()
        latencies.sort()
        row: dict[str, object] = {
            "max_batch": window,
            "flushes": flushes,
            "mean_batch": len(latencies) / flushes if flushes else 0.0,
            "elapsed_model_s": elapsed,
            "throughput_rps": len(latencies) / elapsed if elapsed > 0 else 0.0,
            "latency_s": _latency_row(latencies),
            "counters": totals.as_dict(),
            "checksum": checksum,
            "service": service.counters.as_dict(),
        }
        if baseline is None:
            baseline = row
            baseline_checksum = checksum
            row["vs_baseline"] = {"throughput_ratio": 1.0, "p95_ratio": 1.0}
        else:
            assert baseline_checksum is not None
            if abs(checksum - baseline_checksum) > 1e-6 * max(1.0, abs(baseline_checksum)):
                raise AssertionError(
                    f"window={window} answer checksum {checksum!r} deviates from "
                    f"baseline {baseline_checksum!r}: batching must not change answers"
                )
            base_lat = baseline["latency_s"]
            assert isinstance(base_lat, dict)
            p95 = float(row["latency_s"]["p95"])  # type: ignore[index]
            row["vs_baseline"] = {
                "throughput_ratio": (
                    float(row["throughput_rps"]) / float(baseline["throughput_rps"])  # type: ignore[arg-type]
                ),
                "p95_ratio": float(base_lat["p95"]) / p95 if p95 > 0 else float("inf"),
            }
        runs.append(row)

    doc: dict[str, object] = {
        "schema": SCHEMA,
        "dataset": {"distribution": distribution, "n": n_target, "dims": dims, "seed": seed},
        "workload": {
            "kind": kind,
            "k": k,
            "clients": clients,
            "n_requests": n_requests,
            "metric": "nxndist",
            "cold_flush": True,
            "pool_pages": ServiceConfig().pool_pages,
            "page_size": ServiceConfig().page_size,
        },
        "baseline_max_batch": windows[0],
        "runs": runs,
    }

    if out_path is not None:
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_service_report(doc: dict[str, object]) -> str:
    """Text table over the artifact (the CLI's human-readable view)."""
    dataset = doc["dataset"]
    workload = doc["workload"]
    assert isinstance(dataset, dict) and isinstance(workload, dict)
    title = (
        f"Service micro-batching — {workload['kind']} k={workload['k']} on "
        f"{dataset['distribution']} (n={dataset['n']:,}, D={dataset['dims']}, "
        f"{workload['clients']} closed-loop clients, {workload['n_requests']} requests)"
    )
    lines = [title, "-" * len(title)]
    header = ["max_batch", "flushes", "tput_rps", "p50_ms", "p95_ms", "p99_ms",
              "tput_x", "p95_x"]
    rows = []
    runs = doc["runs"]
    assert isinstance(runs, list)
    for run in runs:
        lat = run["latency_s"]
        ratio = run["vs_baseline"]
        rows.append(
            [
                str(run["max_batch"]),
                str(run["flushes"]),
                f"{run['throughput_rps']:,.0f}",
                f"{lat['p50'] * 1e3:.3f}",
                f"{lat['p95'] * 1e3:.3f}",
                f"{lat['p99'] * 1e3:.3f}",
                f"{ratio['throughput_ratio']:.2f}x",
                f"{ratio['p95_ratio']:.2f}x",
            ]
        )
    lines.extend(_table(header, rows))
    lines.append("(modeled clock: CPU from cost counters + simulated I/O; "
                 "ratios > 1 beat the one-at-a-time baseline)")
    return "\n".join(lines)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Left-justified column layout shared by the service and update reports."""
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return out
