"""``service-churn``: the in-process online service under reads and writes.

``AnnService(points, ServiceConfig())`` over 20,000 clustered points,
started in threaded mode.  The generator (this thread) sends open-loop
Poisson traffic: k=1 reads through ``submit`` plus a 10% write share of
``insert`` (held-out draws from the same ``gaussian_clusters`` call as
the base data) and ``delete`` (random live ids), handed in due order to
one writer thread so a compaction blocks the writer, not the readers.
At the nominal rate the writes trigger a default compaction (every 64
writes) about every 1.3 s, so ``repro.service`` (queue, coalescer,
per-flush scratch index, delta merge, cold-flush reads) and the write
path (``repro.index.mutable``/``delta``, compaction, epoch publish)
carry the time.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from common import (
    ABORT_BACKLOG,
    LADDER,
    MISSED_MS,
    Churn,
    Outcome,
    LADDER_SHARE,
    UNTRACED_SHARE,
    PhaseLog,
    capacity_of,
    ladder_over,
    median,
    percentile,
    poisson_ops,
    ratio,
    rss_peak_mb,
    sleep_until,
)
from repro import Tracer
from repro.obs.report import aggregate_stages
from repro.service import AnnService, Overloaded, ServiceConfig

N_BASE = 20_000
N_INSERT_POOL = 8_192
N_READ_POOL = 16_384
RATE = 500.0
WRITE_SHARE = 0.10
SETUPS = 5
ANSWER_TIMEOUT_S = 30.0


def compactions(svc: AnnService) -> int:
    return svc.counters.compactions


def _ready(churn: Churn, config: ServiceConfig) -> tuple[AnnService, float, float]:
    """Construct a service over the live set, start it and wait for a
    first real answer; returns it with (ready s, constructor s)."""
    ids = churn.live.ids
    t0 = time.perf_counter()
    svc = AnnService(churn.points[ids], config, point_ids=ids)
    built = time.perf_counter() - t0
    svc.start()
    row, q = churn.read_point()
    answer = svc.query(q, k=1, timeout_s=ANSWER_TIMEOUT_S)
    ready = time.perf_counter() - t0
    churn.record(row, answer.neighbor_ids[0], answer.distances[0], [churn.live.version])
    return svc, ready, built


def _phase(
    churn: Churn,
    svc: AnnService,
    writer: ThreadPoolExecutor,
    out: Outcome,
    name: str,
    rate: float,
    seconds: float,
    flushes: dict | None = None,
    ladder: bool = False,
) -> PhaseLog:
    """Drive one open-loop phase from this thread, then collect.  A
    ``ladder`` step is abandoned once the backlog shows overload."""
    log = PhaseLog(rate, out.phase(name))
    tally = log.tally
    reads, writes = [], []
    pending: deque = deque()
    start = time.monotonic() + 0.005
    for op in poisson_ops(churn.rng, rate, seconds, WRITE_SHARE):
        due = start + op.due_s
        sleep_until(due)
        log.late_ms.append(1e3 * (time.monotonic() - due))
        if op.kind != "read":
            tally.sent += 1
            kind, pid, version = churn.choose_write(op.kind)
            writes.append((due, writer.submit(churn.apply, svc, compactions, kind, pid, version)))
            continue
        while pending and pending[0].done():
            pending.popleft()
        if ladder and len(pending) > ABORT_BACKLOG:
            log.aborted = True
            break
        tally.sent += 1
        row, q = churn.read_point()
        try:
            ticket = svc.submit(q, k=1)
        except Overloaded:
            tally.refused += 1
            log.reads.append((op.due_s, MISSED_MS))
            continue
        pending.append(ticket)
        reads.append((op.due_s, due, row, ticket))

    for due, job in writes:
        write = job.result()
        if not write.ok:
            tally.failed += 1
            continue
        tally.ok += 1
        log.writes.append((due - start, 1e3 * (write.end - due)))
    starts = [w.start for w in churn.writes]
    ends = [w.end for w in churn.writes]
    for due_s, due, row, ticket in reads:
        try:
            answer = ticket.result(timeout_s=ANSWER_TIMEOUT_S)
        except Exception:  # a failed ticket re-raises whatever failed it
            tally.failed += 1
            log.reads.append((due_s, MISSED_MS))
            continue
        if answer.approximate or not answer.neighbor_ids:
            tally.failed += 1
            log.reads.append((due_s, MISSED_MS))
            continue
        tally.ok += 1
        submitted = ticket.request.submitted_s
        done = submitted + answer.latency_s
        log.reads.append((due_s, 1e3 * (done - due)))
        # Visible at flush time: every write that ended before the submit,
        # perhaps any that started before the answer.
        lo = bisect.bisect_right(ends, submitted)
        hi = bisect.bisect_left(starts, done)
        churn.record(row, answer.neighbor_ids[0], answer.distances[0], range(lo, max(lo, hi) + 1))
        if flushes is not None:
            flushes["queue_wait"].append(1e3 * answer.queue_wait_s)
            flushes["flush"].append(1e3 * (answer.latency_s - answer.queue_wait_s))
    return log


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    churn = Churn(seed, N_BASE, N_INSERT_POOL, N_READ_POOL, salt=1)
    setups, builds = [], []
    svc = None
    for __ in range(SETUPS):
        if svc is not None:
            svc.close()
        svc, ready, built = _ready(churn, ServiceConfig())
        setups.append(ready)
        builds.append(built)
    out.phase("setup").sent = out.phase("setup").ok = SETUPS

    flushes: dict = {"queue_wait": [], "flush": []}
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="writer") as writer:
        try:
            name = "untraced" if trace else "nominal"
            nominal_s = seconds * UNTRACED_SHARE if trace else seconds
            nominal = _phase(churn, svc, writer, out, name, RATE, nominal_s, flushes)
            out.notes.append(nominal.line())
            steps = [nominal]
            for mult in LADDER if trace else ():
                rate = RATE * mult
                step_s = seconds * LADDER_SHARE / len(LADDER)
                name = f"ladder-{rate:.0f}"
                steps.append(_phase(churn, svc, writer, out, name, rate, step_s, ladder=True))
                out.notes.append(steps[-1].line())
                if ladder_over(steps):
                    break
        finally:
            svc.close()

        if not trace:
            out.put("setup_s", median(setups), "s")
            out.put("join_s", 1e-3 * median(flushes["flush"]), "s")
            out.put("read_p50_ms", nominal.p50, "ms")
            out.put("write_mean_ms", nominal.write_mean, "ms")
            out.put("rss_peak_mb", rss_peak_mb(), "MiB")
        else:
            out.put("bench.read_p99_ms", nominal.p99, "ms")
            out.put("bench.read_capacity_rps", capacity_of(steps), "1/s")
            traced_s = seconds * (1 - UNTRACED_SHARE - LADDER_SHARE)
            _traced(churn, writer, out, traced_s, nominal, flushes, builds)

    wrong = churn.oracle_wrong()
    out.phase("oracle").wrong = wrong
    out.notes.append(f"  oracle checked {len(churn.rows)} reads, {wrong} wrong")
    return out


def _traced(
    churn: Churn,
    writer: ThreadPoolExecutor,
    out: Outcome,
    seconds: float,
    untraced: PhaseLog,
    untraced_flushes: dict,
    builds: list[float],
) -> None:
    """The traced half of a ``--trace 1`` run: a fresh service recording
    into a Tracer, with timers around ``AnnService.compact``."""
    tracer = Tracer()
    svc, __, __ = _ready(churn, ServiceConfig(trace=tracer))
    compact_ms: list[float] = []
    plain_compact = svc.compact

    def timed_compact():
        t0 = time.perf_counter()
        try:
            return plain_compact()
        finally:
            compact_ms.append(1e3 * (time.perf_counter() - t0))

    svc.compact = timed_compact
    flushes: dict = {"queue_wait": [], "flush": []}
    first_write = len(churn.writes)
    try:
        traced = _phase(churn, svc, writer, out, "traced", RATE, seconds, flushes)
    finally:
        svc.close()
    out.notes.append(traced.line())
    counters, stats = svc.counters, svc.total_stats
    batches = max(counters.batches, 1)
    stages = aggregate_stages(tracer.document["root"])

    def stage(name: str) -> float:
        return stages.get(name, {}).get("time_s", 0.0) / batches

    plain_writes = [1e3 * (w.end - w.start) for w in churn.writes[first_write:] if not w.compacted]
    out.put("index.build_s", median(builds), "s")
    out.put("index.write_ms", median(plain_writes), "ms")
    out.put("core.expand_s", stage("expand"), "s")
    out.put("core.filter_s", stage("filter"), "s")
    out.put("core.gather_s", stage("gather"), "s")
    out.put("core.distance_evals", stats.distance_evaluations / batches, "count")
    out.put("core.node_expansions", stats.node_expansions / batches, "count")
    out.put("core.pairs_per_eval", ratio(counters.answered, stats.distance_evaluations), "ratio")
    out.put("storage.logical_reads", stats.logical_reads / batches, "count")
    out.put("storage.page_misses", stats.page_misses / batches, "count")
    out.put("storage.pool_hit_rate", 1.0 - ratio(stats.page_misses, stats.logical_reads), "ratio")
    hits, misses = stats.node_cache_hits, stats.node_cache_misses
    out.put("storage.node_cache_hit_rate", ratio(hits, hits + misses), "ratio")
    out.put("service.queue_wait_ms", median(flushes["queue_wait"]), "ms")
    out.put("service.flush_ms", median(flushes["flush"]), "ms")
    out.put("service.batch_mean", ratio(counters.answered, counters.batches), "count")
    out.put("service.compact_ms", median(compact_ms), "ms")
    out.put("service.compactions", counters.compactions, "count")
    out.put("bench.late_p99_ms", percentile(traced.late_ms, 99), "ms")
    flush_delta_ms = median(flushes["flush"]) - median(untraced_flushes["flush"])
    out.put("bench.trace_overhead.join_s", 1e-3 * flush_delta_ms, "s")
    out.put("bench.trace_overhead.read_p50_ms", traced.p50 - untraced.p50, "ms")
    out.put("bench.trace_overhead.read_p99_ms", traced.p99 - untraced.p99, "ms")
    write_delta = traced.write_mean - untraced.write_mean
    out.put("bench.trace_overhead.write_mean_ms", write_delta, "ms")
