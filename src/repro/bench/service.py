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

Two further sections ride in the same artifact:

* ``open_loop`` — the same queries under **Poisson arrivals** (seeded
  exponential inter-arrival times) instead of the closed loop.  Open
  loop is the honest latency view: arrivals do not slow down when the
  server queues, so latency at a given *offered* load — expressed as a
  utilization fraction of the largest window's measured closed-loop
  capacity — includes the queueing the closed loop structurally hides.
* ``multiprocess`` — the same closed-loop stream replayed against a
  :class:`~repro.serve.cluster.ReplicaCluster` of 1, 2, 4, … mapped-
  epoch replicas (satellite of the ``repro.serve`` subsystem).  Each
  batch goes to the replica free first, as an idle flush worker takes
  the next batch; each replica's flush costs its own counted
  I/O against a fair ``pool_pages / N`` slice, and replicas overlap in
  modeled time, so the sweep shows what process scale-out buys with the
  cache-memory budget held fixed.  Every answer is compared
  **bit-for-bit** against a single-process :class:`~repro.service.
  AnnService` over the same stream — a scaling win bought with a wrong
  answer refuses to reach disk.

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
      ],
      "open_loop": {
        "max_batch", "capacity_rps", "seed",
        "runs": [
          {"utilization", "offered_rps", "throughput_rps", "flushes",
           "mean_batch", "elapsed_model_s", "latency_s", "checksum"}, ...
        ]
      },
      "multiprocess": {            # present with processes=(1, 2, 4)
        "clients", "max_batch", "n_requests",
        "runs": [
          {"replicas", "flushes", "elapsed_model_s", "throughput_rps",
           "latency_s", "per_replica_batches", "counters",
           "vs_1x": {"throughput_ratio", "p99_ratio"}}, ...
        ]
      }
    }

``*_ratio`` > 1 means the batched (or scaled-out) run beats its
baseline (more requests per second; lower tail latency).
"""

from __future__ import annotations

import bisect
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from ..core.stats import QueryStats
from ..data import gstd
from ..service import AnnService, FakeClock, PendingRequest, ServiceConfig
from ..service.request import Request
from .harness import modeled_cpu_seconds

__all__ = [
    "run_service_bench",
    "run_multiprocess_bench",
    "format_service_report",
    "SCHEMA",
]

SCHEMA = "repro.bench.service/v1"

#: The smoke configuration CI runs (same code paths, seconds of work).
SMOKE = {"n_target": 600, "n_requests": 96, "clients": 16, "windows": (1, 8, 16)}

#: Smoke sizes for the multi-process sweep (``--processes`` + ``--smoke``).
SMOKE_MP = {"n_target": 600, "n_requests": 96, "clients": 16, "max_batch": 4}


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


def _poisson_arrivals(n: int, rate_rps: float, seed: int) -> list[float]:
    """``n`` Poisson arrival times at ``rate_rps`` (seeded, ascending)."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n)
    return [float(t) for t in np.cumsum(gaps)]


def _run_open_loop(
    service: AnnService,
    clock: FakeClock,
    queries: np.ndarray,
    arrivals: list[float],
    k: int,
    dims: int,
    max_batch: int,
    max_delay_s: float,
) -> tuple[list[float], QueryStats, int, float]:
    """Drive one open-loop run: arrivals land on schedule, come what may.

    Unlike the closed loop, a busy server does not slow the arrival
    process down — requests that land mid-flush queue up and their
    latency (measured from the *nominal* arrival time) includes that
    wait.  The flush policy mirrors the service's window: flush when
    ``max_batch`` requests are queued or the oldest has waited
    ``max_delay_s``, whichever the modeled clock reaches first.
    """
    n = len(queries)
    i = 0
    in_flight: list[tuple[PendingRequest, float]] = []
    latencies: list[float] = []
    checksum = 0.0
    totals = QueryStats()
    flushes = 0
    oldest_queued_s: float | None = None
    eps = 1e-12
    while len(latencies) < n:
        # Land every arrival due by now; one that arrived while a flush
        # was running joins the queue the moment the server looks again.
        while i < n and arrivals[i] <= clock.now() + eps:
            in_flight.append((service.submit(queries[i], k=k), arrivals[i]))
            if oldest_queued_s is None:
                oldest_queued_s = clock.now()
            i += 1
        queued = len(service)
        flush_now = queued >= max_batch or (queued > 0 and i >= n)
        if not flush_now:
            if queued > 0:
                assert oldest_queued_s is not None
                ripe_s = oldest_queued_s + max_delay_s
                if i < n and arrivals[i] <= ripe_s:
                    clock.advance(arrivals[i] - clock.now())
                    continue
                clock.advance(max(0.0, ripe_s - clock.now()))
            else:
                clock.advance(arrivals[i] - clock.now())
                continue
        report = service.pump(force=True)
        if report is None:
            raise AssertionError("open loop stalled with requests queued")
        flushes += 1
        totals.merge(report.stats)
        clock.advance(modeled_cpu_seconds(report.stats, dims) + report.stats.io_time_s)
        oldest_queued_s = clock.now() if len(service) else None
        still: list[tuple[PendingRequest, float]] = []
        for ticket, arrival_s in in_flight:
            if ticket.done():
                latencies.append(clock.now() - arrival_s)
                checksum += sum(ticket.result(0).distances)
            else:
                still.append((ticket, arrival_s))
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
    utilizations: tuple[float, ...] = (0.5, 0.9),
    processes: tuple[int, ...] | None = None,
    out_path: str | Path | None = None,
) -> dict[str, object]:
    """Sweep coalescing windows and (optionally) write ``BENCH_service.json``.

    ``windows[0]`` must be 1 — the one-at-a-time baseline every other
    run is ratioed against.  ``smoke=True`` swaps in the small CI
    configuration (:data:`SMOKE`), overriding the size arguments.

    ``utilizations`` adds the ``open_loop`` section: one Poisson-arrival
    run per fraction of the largest window's measured closed-loop
    capacity (``()`` skips the section).  ``processes`` adds the
    ``multiprocess`` section via :func:`run_multiprocess_bench`.
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

    if utilizations:
        assert baseline_checksum is not None
        capacity_run = runs[-1]
        capacity_rps = float(capacity_run["throughput_rps"])  # type: ignore[arg-type]
        window = int(capacity_run["max_batch"])  # type: ignore[arg-type]
        open_runs: list[dict[str, object]] = []
        for rho in utilizations:
            if not 0.0 < rho:
                raise ValueError(f"utilizations must be > 0, got {rho}")
            offered = rho * capacity_rps
            cfg = ServiceConfig(
                kind=kind,
                max_batch=window,
                max_delay_ms=0.0,
                queue_capacity=max(n_requests, clients * 2, 16),
            )
            clock = FakeClock()
            service = AnnService(target, cfg, clock=clock)
            arrivals = _poisson_arrivals(n_requests, offered, seed + 2)
            # The coalescing delay an open-loop batcher would use: the
            # mean time for the window to fill at the offered rate.
            max_delay_s = window / offered
            latencies, __, flushes, checksum = _run_open_loop(
                service, clock, queries, arrivals, k, dims, window, max_delay_s
            )
            elapsed = clock.now()
            service.close()
            if abs(checksum - baseline_checksum) > 1e-6 * max(1.0, abs(baseline_checksum)):
                raise AssertionError(
                    f"open-loop checksum {checksum!r} deviates from closed-loop "
                    f"baseline {baseline_checksum!r}: arrivals must not change answers"
                )
            latencies.sort()
            open_runs.append(
                {
                    "utilization": rho,
                    "offered_rps": offered,
                    "throughput_rps": len(latencies) / elapsed if elapsed > 0 else 0.0,
                    "flushes": flushes,
                    "mean_batch": len(latencies) / flushes if flushes else 0.0,
                    "elapsed_model_s": elapsed,
                    "latency_s": _latency_row(latencies),
                    "checksum": checksum,
                }
            )
        doc["open_loop"] = {
            "max_batch": window,
            "capacity_rps": capacity_rps,
            "seed": seed + 2,
            "runs": open_runs,
        }

    if processes is not None:
        doc["multiprocess"] = run_multiprocess_bench(
            processes=processes,
            clients=clients,
            n_target=n_target,
            n_requests=n_requests,
            dims=dims,
            k=k,
            kind=kind,
            distribution=distribution,
            seed=seed,
            smoke=smoke,
        )

    if out_path is not None:
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def _single_process_answers(
    points: np.ndarray, cfg: ServiceConfig, queries: np.ndarray, k: int
) -> dict[int, tuple[tuple[int, ...], tuple[float, ...]]]:
    """Reference answers from a plain single-process ``AnnService``."""
    service = AnnService(points, cfg, clock=FakeClock())
    reference: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {}
    for idx in range(len(queries)):
        answer = service.query(queries[idx], k=k)
        if answer.approximate:
            raise AssertionError("reference answers must be exact (no deadlines set)")
        reference[idx] = (answer.neighbor_ids, answer.distances)
    service.close()
    return reference


def _run_replica_closed_loop(
    replicas: list,
    queries: np.ndarray,
    clients: int,
    k: int,
    dims: int,
    max_batch: int,
) -> tuple[list[float], dict[int, tuple], QueryStats, list[int], float, int]:
    """Closed-loop discrete-event simulation over N live replicas.

    ``clients`` callers each keep one request in flight; batches of up
    to ``max_batch`` queued requests go to the earliest-free replica
    (an idle flush worker, on the modeled clock) and each batch's
    modeled duration comes from the replica's *own* returned counters —
    so replicas overlap in modeled time exactly as processes overlap on
    a real machine, while every page miss stays counted.  Returns
    ``(latencies, answers, totals, per-replica batches, elapsed,
    flushes)``.
    """
    n = len(queries)
    waiting: list[tuple[float, int]] = [(0.0, i) for i in range(min(clients, n))]
    issued = len(waiting)
    free_at = [0.0] * len(replicas)
    per_replica = [0] * len(replicas)
    latencies: list[float] = []
    answers: dict[int, tuple] = {}
    totals = QueryStats()
    elapsed = 0.0
    flushes = 0
    while len(latencies) < n:
        rid = min(range(len(replicas)), key=lambda j: free_at[j])
        # The batch forms when the replica frees up AND work is queued;
        # it takes only requests already submitted by then.
        t_start = max(free_at[rid], waiting[0][0])
        batch: list[tuple[float, int]] = []
        rest: list[tuple[float, int]] = []
        for submit_s, idx in waiting:
            if len(batch) < max_batch and submit_s <= t_start + 1e-12:
                batch.append((submit_s, idx))
            else:
                rest.append((submit_s, idx))
        waiting = rest
        requests = [
            Request(
                request_id=idx,
                point=queries[idx],
                k=k,
                submitted_s=submit_s,
                deadline_s=None,
            )
            for submit_s, idx in batch
        ]
        got, info = replicas[rid].query(flushes, requests, t_start)
        flushes += 1
        stats = QueryStats.from_dict(info["stats"])
        totals.merge(stats)
        t_done = t_start + modeled_cpu_seconds(stats, dims) + stats.io_time_s
        free_at[rid] = t_done
        per_replica[rid] += 1
        elapsed = max(elapsed, t_done)
        for submit_s, idx in batch:
            answers[idx] = got[idx]
            latencies.append(t_done - submit_s)
            if issued < n:
                # The freed client immediately issues the next query.
                bisect.insort(waiting, (t_done, issued))
                issued += 1
    return latencies, answers, totals, per_replica, elapsed, flushes


def run_multiprocess_bench(
    processes: tuple[int, ...] = (1, 2, 4),
    clients: int = 32,
    n_target: int = 2_000,
    n_requests: int = 256,
    dims: int = 2,
    k: int = 1,
    kind: str = "mbrqt",
    distribution: str = "uniform",
    seed: int = 7,
    max_batch: int = 8,
    smoke: bool = False,
    workdir: str | Path | None = None,
) -> dict[str, object]:
    """Replica-count sweep for the ``multiprocess`` artifact section.

    Replays one closed-loop stream against a
    :class:`~repro.serve.cluster.ReplicaCluster` at each replica count
    (inline replicas — same engine, protocol and fair budget slices as
    spawned processes, deterministic on the modeled clock) and ratios
    each run against the first, which must be the 1-replica baseline.
    Every answer is checked bit-for-bit against a single-process
    :class:`~repro.service.AnnService` over the same stream before the
    row is recorded.
    """
    from ..serve import ReplicaCluster, ServeConfig

    if smoke:
        n_target = int(SMOKE_MP["n_target"])
        n_requests = int(SMOKE_MP["n_requests"])
        clients = int(SMOKE_MP["clients"])
        max_batch = int(SMOKE_MP["max_batch"])
    if not processes or processes[0] != 1:
        raise ValueError(
            f"processes must start with the 1-replica baseline, got {processes}"
        )
    if clients < max_batch:
        raise ValueError(
            f"clients ({clients}) must be >= max_batch ({max_batch}) "
            "or full batches can never form"
        )
    points = gstd.generate(n_target, dims, distribution, seed=seed)
    queries = gstd.generate(n_requests, dims, distribution, seed=seed + 1)
    service_cfg = ServiceConfig(
        kind=kind,
        max_batch=max_batch,
        max_delay_ms=0.0,
        queue_capacity=max(clients * 2, 16),
        cold_flush=False,
    )
    reference = _single_process_answers(points, service_cfg, queries, k)

    runs: list[dict[str, object]] = []
    baseline: dict[str, object] | None = None
    with tempfile.TemporaryDirectory() if workdir is None else _keep(workdir) as tmp:
        for n_replicas in processes:
            cfg = ServeConfig(replicas=n_replicas, service=service_cfg)
            cluster = ReplicaCluster(
                points, cfg, Path(tmp) / f"replicas-{n_replicas}", inline=True
            )
            try:
                latencies, answers, totals, per_replica, elapsed, flushes = (
                    _run_replica_closed_loop(
                        cluster.replicas, queries, clients, k, dims, max_batch
                    )
                )
            finally:
                cluster.close()
            for idx, (ids, dists, degraded) in answers.items():
                want_ids, want_dists = reference[idx]
                if degraded or ids != want_ids or dists != want_dists:
                    raise AssertionError(
                        f"replicas={n_replicas} answer for request {idx} diverges "
                        f"from the single-process service: {ids, dists, degraded!r} "
                        f"!= {want_ids, want_dists, False!r}"
                    )
            latencies.sort()
            row: dict[str, object] = {
                "replicas": n_replicas,
                "flushes": flushes,
                "per_replica_batches": per_replica,
                "elapsed_model_s": elapsed,
                "throughput_rps": len(latencies) / elapsed if elapsed > 0 else 0.0,
                "latency_s": _latency_row(latencies),
                "counters": totals.as_dict(),
            }
            if baseline is None:
                baseline = row
                row["vs_1x"] = {"throughput_ratio": 1.0, "p99_ratio": 1.0}
            else:
                base_lat = baseline["latency_s"]
                assert isinstance(base_lat, dict)
                p99 = float(row["latency_s"]["p99"])  # type: ignore[index]
                row["vs_1x"] = {
                    "throughput_ratio": (
                        float(row["throughput_rps"])
                        / float(baseline["throughput_rps"])  # type: ignore[arg-type]
                    ),
                    "p99_ratio": float(base_lat["p99"]) / p99 if p99 > 0 else float("inf"),
                }
            runs.append(row)
    return {
        "clients": clients,
        "max_batch": max_batch,
        "n_requests": n_requests,
        "runs": runs,
    }


class _keep:
    """Context manager yielding a caller-owned workdir (no cleanup)."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)

    def __enter__(self) -> str:
        return self.path

    def __exit__(self, *exc: object) -> None:
        return None


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

    open_loop = doc.get("open_loop")
    if isinstance(open_loop, dict):
        lines.append("")
        lines.append(
            f"Open loop — Poisson arrivals, max_batch={open_loop['max_batch']} "
            f"(capacity {open_loop['capacity_rps']:,.0f} rps from the closed loop)"
        )
        header = ["util", "offered_rps", "tput_rps", "mean_batch",
                  "p50_ms", "p95_ms", "p99_ms"]
        rows = []
        for run in open_loop["runs"]:
            lat = run["latency_s"]
            rows.append(
                [
                    f"{run['utilization']:.2f}",
                    f"{run['offered_rps']:,.0f}",
                    f"{run['throughput_rps']:,.0f}",
                    f"{run['mean_batch']:.1f}",
                    f"{lat['p50'] * 1e3:.3f}",
                    f"{lat['p95'] * 1e3:.3f}",
                    f"{lat['p99'] * 1e3:.3f}",
                ]
            )
        lines.extend(_table(header, rows))

    multiprocess = doc.get("multiprocess")
    if isinstance(multiprocess, dict):
        lines.append("")
        lines.append(
            f"Multi-process serving — {multiprocess['clients']} closed-loop "
            f"clients, max_batch={multiprocess['max_batch']}, fair pool split "
            "(answers verified bit-identical to the single-process service)"
        )
        header = ["replicas", "flushes", "tput_rps", "p50_ms", "p99_ms",
                  "tput_x", "p99_x"]
        rows = []
        for run in multiprocess["runs"]:
            lat = run["latency_s"]
            ratio = run["vs_1x"]
            rows.append(
                [
                    str(run["replicas"]),
                    str(run["flushes"]),
                    f"{run['throughput_rps']:,.0f}",
                    f"{lat['p50'] * 1e3:.3f}",
                    f"{lat['p99'] * 1e3:.3f}",
                    f"{ratio['throughput_ratio']:.2f}x",
                    f"{ratio['p99_ratio']:.2f}x",
                ]
            )
        lines.extend(_table(header, rows))
    return "\n".join(lines)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Left-justified column layout shared by the report's sections."""
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return out
