"""Sustained-update service benchmark → ``BENCH_updates.json``.

Measures what the write path costs the serving layer: a stream of
interleaved inserts and deletes runs against a live
:class:`~repro.service.AnnService` while closed query rounds measure
latency, so the artifact captures query behaviour *under* churn —
including the automatic epoch compactions the stream triggers.

Correctness is asserted, not sampled, at every epoch boundary: the
moment a compaction publishes a new epoch, a fixed probe query set is
answered by the service and compared — ``(distance, id)`` for
``(distance, id)`` — against a scratch index rebuilt from the bench's
own independent bookkeeping of the surviving points.  A single
divergence fails the run; hot swaps must be invisible to answers.  The
run also refuses to finish with a single rejected, cancelled, or
unanswered request — zero lost requests across every hot swap.

Time is modeled, not wall-clocked, exactly as in the other artifacts:
the service runs on a :class:`~repro.service.FakeClock` and every
flush advances it by the flush's machine-independent modeled CPU
(:func:`~repro.bench.harness.modeled_cpu_seconds`) plus simulated I/O.

Artifact schema (``schema`` key = ``repro.bench.updates/v1``)::

    {
      "schema": "repro.bench.updates/v1",
      "dataset":  {"distribution", "n", "dims", "seed"},
      "workload": {"k", "rounds", "updates_per_round",
                   "queries_per_round", "compact_threshold"},
      "runs": [
        {
          "kind":            "mbrqt" | "rstar",
          "epochs":          <last published epoch>,
          "boundary_checks": <probe queries verified at epoch swaps>,
          "final_size":      <surviving points at drain>,
          "flushes":         <query batches executed>,
          "latency_s":       {"mean", "p50", "p95", "p99"},
          "counters":        <summed QueryStats.as_dict()>,
          "service":         <ServiceCounters.as_dict()>,
        }, ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.stats import QueryStats
from ..data import gstd
from ..index import build_mbrqt, build_rstar, nearest_iter
from ..service import AnnService, FakeClock, PendingRequest, ServiceConfig
from ..storage.manager import StorageManager
from .harness import modeled_cpu_seconds
from .service import _latency_row, _table

__all__ = ["run_update_bench", "format_update_report", "SCHEMA"]

SCHEMA = "repro.bench.updates/v1"

#: The smoke configuration CI runs (same code paths, seconds of work).
SMOKE = {
    "n_target": 400,
    "rounds": 6,
    "updates_per_round": 12,
    "queries_per_round": 8,
    "compact_threshold": 16,
}


def _scratch_answer(
    alive: dict[int, np.ndarray],
    kind: str,
    query: np.ndarray,
    k: int,
) -> list[tuple[float, int]]:
    """The ground truth: rebuild from scratch, browse, sort by (dist, id).

    Built from the bench's own survivor bookkeeping — deliberately *not*
    from any state the service maintains — so a write-path bug cannot
    corrupt both sides of the comparison.
    """
    ids = np.asarray(list(alive), dtype=np.int64)
    pts = np.stack(list(alive.values()))
    storage = StorageManager()
    if kind == "mbrqt":
        index = build_mbrqt(pts, storage, point_ids=ids)
    else:
        index = build_rstar(pts, storage, point_ids=ids)
    found: list[tuple[float, int]] = []
    for dist, point_id, __ in nearest_iter(index, query):
        found.append((dist, point_id))
        if len(found) >= k:
            break
    return sorted(found)


def _check_boundary(
    service: AnnService,
    alive: dict[int, np.ndarray],
    kind: str,
    probes: np.ndarray,
    k: int,
) -> int:
    """Assert service answers == scratch rebuild at an epoch boundary."""
    checked = 0
    for probe in probes:
        answer = service.query(probe, k=k)
        got = sorted(zip(answer.distances, answer.neighbor_ids))
        want = _scratch_answer(alive, kind, probe, k)
        if got != want:
            raise AssertionError(
                f"epoch-boundary divergence ({kind}, epoch "
                f"{service.engine.epoch}): service {got!r} != scratch {want!r}"
            )
        checked += 1
    return checked


def run_update_bench(
    kinds: tuple[str, ...] = ("mbrqt", "rstar"),
    n_target: int = 1_000,
    rounds: int = 10,
    updates_per_round: int = 24,
    queries_per_round: int = 16,
    compact_threshold: int = 32,
    dims: int = 2,
    k: int = 3,
    distribution: str = "uniform",
    seed: int = 11,
    smoke: bool = False,
    out_path: str | Path | None = None,
) -> dict[str, object]:
    """Run the sustained-update stream and (optionally) write the artifact.

    Each round issues ``updates_per_round`` interleaved inserts/deletes
    (auto-compacting at ``compact_threshold`` pending operations) and
    then measures a batch of ``queries_per_round`` coalesced queries on
    the modeled clock.  ``smoke=True`` swaps in the small CI
    configuration (:data:`SMOKE`), overriding the size arguments.
    """
    if smoke:
        n_target = int(SMOKE["n_target"])
        rounds = int(SMOKE["rounds"])
        updates_per_round = int(SMOKE["updates_per_round"])
        queries_per_round = int(SMOKE["queries_per_round"])
        compact_threshold = int(SMOKE["compact_threshold"])
    target = gstd.generate(n_target, dims, distribution, seed=seed)
    inserts = gstd.generate(rounds * updates_per_round, dims, distribution, seed=seed + 1)
    queries = gstd.generate(
        rounds * queries_per_round, dims, distribution, seed=seed + 2
    )
    probes = gstd.generate(4, dims, distribution, seed=seed + 3)

    runs: list[dict[str, object]] = []
    for kind in kinds:
        rng = np.random.default_rng(seed + 4)
        cfg = ServiceConfig(
            kind=kind,
            max_batch=queries_per_round,
            max_delay_ms=0.0,
            queue_capacity=max(4 * queries_per_round, 16),
            compact_threshold=compact_threshold,
        )
        clock = FakeClock()
        service = AnnService(target, cfg, clock=clock)
        # Independent survivor bookkeeping — the ground truth's input.
        alive: dict[int, np.ndarray] = {i: target[i] for i in range(n_target)}
        next_insert = 0
        next_id = n_target
        last_epoch = service.engine.epoch
        boundary_checks = 0
        latencies: list[float] = []
        totals = QueryStats()
        flushes = 0
        for round_no in range(rounds):
            for __ in range(updates_per_round):
                if alive and rng.random() < 0.5:
                    victim = int(rng.choice(np.asarray(list(alive), dtype=np.int64)))
                    assert service.delete(victim)
                    del alive[victim]
                else:
                    point = inserts[next_insert]
                    next_insert += 1
                    service.insert(point, next_id)
                    alive[next_id] = point
                    next_id += 1
                if service.engine.epoch != last_epoch:
                    # A compaction just hot-swapped the base epoch:
                    # prove the swap changed no answer.
                    last_epoch = service.engine.epoch
                    boundary_checks += _check_boundary(
                        service, alive, kind, probes, k
                    )
            tickets: list[PendingRequest] = [
                service.submit(queries[round_no * queries_per_round + i], k=k)
                for i in range(queries_per_round)
            ]
            while any(not t.done() for t in tickets):
                report = service.pump(force=True)
                if report is None:
                    raise AssertionError("update bench stalled with requests in flight")
                flushes += 1
                totals.merge(report.stats)
                clock.advance(
                    modeled_cpu_seconds(report.stats, dims) + report.stats.io_time_s
                )
            latencies.extend(
                clock.now() - t.request.submitted_s for t in tickets
            )
        counters = service.counters
        if counters.shed_overload or counters.cancelled:
            raise AssertionError(
                f"lost requests under churn ({kind}): shed={counters.shed_overload} "
                f"cancelled={counters.cancelled}"
            )
        if counters.answered != counters.submitted:
            raise AssertionError(
                f"unanswered requests under churn ({kind}): "
                f"answered={counters.answered} != submitted={counters.submitted}"
            )
        final_epoch = service.engine.epoch
        final_size = len(alive)
        service.close()
        latencies.sort()
        runs.append(
            {
                "kind": kind,
                "epochs": final_epoch,
                "boundary_checks": boundary_checks,
                "final_size": final_size,
                "flushes": flushes,
                "latency_s": _latency_row(latencies),
                "counters": totals.as_dict(),
                "service": counters.as_dict(),
            }
        )

    doc: dict[str, object] = {
        "schema": SCHEMA,
        "dataset": {"distribution": distribution, "n": n_target, "dims": dims, "seed": seed},
        "workload": {
            "k": k,
            "rounds": rounds,
            "updates_per_round": updates_per_round,
            "queries_per_round": queries_per_round,
            "compact_threshold": compact_threshold,
        },
        "runs": runs,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_update_report(doc: dict[str, object]) -> str:
    """Text table over the artifact (the CLI's human-readable view)."""
    dataset = doc["dataset"]
    workload = doc["workload"]
    assert isinstance(dataset, dict) and isinstance(workload, dict)
    n_updates = int(workload["rounds"]) * int(workload["updates_per_round"])
    title = (
        f"Queries under sustained updates — k={workload['k']} on "
        f"{dataset['distribution']} (n={dataset['n']:,}, D={dataset['dims']}, "
        f"{n_updates} updates, compact every {workload['compact_threshold']} ops)"
    )
    lines = [title, "-" * len(title)]
    header = ["kind", "epochs", "checks", "final_n", "flushes",
              "p50_ms", "p95_ms", "p99_ms", "compactions"]
    rows = []
    runs = doc["runs"]
    assert isinstance(runs, list)
    for run in runs:
        lat = run["latency_s"]
        service = run["service"]
        rows.append(
            [
                str(run["kind"]),
                str(run["epochs"]),
                str(run["boundary_checks"]),
                str(run["final_size"]),
                str(run["flushes"]),
                f"{lat['p50'] * 1e3:.3f}",
                f"{lat['p95'] * 1e3:.3f}",
                f"{lat['p99'] * 1e3:.3f}",
                f"{service['compactions']:.0f}",
            ]
        )
    lines.extend(_table(header, rows))
    lines.append("(every epoch boundary probe-verified against a scratch-rebuilt "
                 "index; runs fail on any rejected, cancelled, or unanswered request)")
    return "\n".join(lines)
