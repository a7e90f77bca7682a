"""Command-line interface: ``python -m repro <command>``.

These commands cover the common workflows without writing any code:

* ``datasets`` — generate and describe the Table 2 workloads.
* ``join`` — run one ANN/AkNN method (dispatched through
  :data:`repro.join.registry.REGISTRY`) on a generated workload and
  print the result summary plus cost counters.  ``--workers N`` shards
  the MBA/RBA join across N worker processes (exact, same result);
  ``--node-cache E`` layers an E-entry decoded-node cache above the
  buffer pool; ``--trace out.json`` writes the schema-validated trace
  artifact (bit-identical results, per-stage/per-layer attribution).
* ``experiment`` — regenerate one of the paper's figures
  (``--trace`` records a span per measured method run).
* ``parallel-bench`` — sweep worker counts and write the
  ``BENCH_parallel.json`` scaling artifact.
* ``kernel-bench`` — microbenchmark the core kernels (LPQ push/pop,
  cross metrics, end-to-end ``mba_join``) and write ``BENCH_core.json``.
* ``serve`` — run the online micro-batching ANN query service
  (:mod:`repro.service`) over a generated dataset; ``--once`` does a
  single self-query round trip (the CI smoke).  ``--replicas N`` flushes
  on N mapped-epoch replica processes (:mod:`repro.serve`) instead of
  the in-process engine — the multi-process CI smoke.
* ``service-bench`` — closed-loop micro-batching sweep (throughput and
  latency quantiles vs. coalescing window, on the modeled clock) writing
  ``BENCH_service.json``.
* ``update-bench`` — query latency under a sustained insert/delete
  stream with epoch compactions, every hot swap verified against a
  scratch-rebuilt index; writes ``BENCH_updates.json``.
* ``trace-report`` — summarize a trace artifact as stage/layer
  attribution tables (service traces add a service-counter section).
* ``analyze`` — static analysis: the per-file domain rules over the
  package and any PATHs, the whole-program passes over the package,
  gated on ``.repro-analysis-baseline.json``.

Examples::

    python -m repro datasets --scale 0.01
    python -m repro join --method mba --dataset tac -n 5000 -k 3
    python -m repro join --method mba --dataset gaussian -n 5000 --workers 4
    python -m repro join --method mba --dataset tac -n 5000 --trace t.json
    python -m repro trace-report t.json
    python -m repro experiment fig4
    python -m repro parallel-bench --workers 1 2 4 --out BENCH_parallel.json
    python -m repro kernel-bench --smoke --out BENCH_core.json

Every ``join`` run is validated through the same
:class:`repro.config.JoinConfig` the Python API uses, so flag validation
and API validation cannot drift.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import bench
from .config import JoinConfig
from .core.stats import QueryStats
from .data import gstd
from .data.datasets import fc_surrogate, table2_datasets, tac_surrogate
from .join.registry import get_method, method_names, run_join
from .obs import TraceSession, format_trace_report, load_trace, use_tracer
from .storage.manager import StorageManager

__all__ = ["main"]

_EXPERIMENTS = {
    "fig3a": (bench.fig3a_tac_methods, "Figure 3(a) — TAC, ANN methods"),
    "fig3b": (bench.fig3b_bufferpool, "Figure 3(b) — FC 10D, pool sweep"),
    "fig4": (bench.fig4_dimensionality, "Figure 4 — dimensionality sweep"),
    "fig5": (bench.fig5_aknn_tac, "Figure 5 — AkNN on TAC"),
    "fig6": (bench.fig6_aknn_fc, "Figure 6 — AkNN on FC"),
    "traversal": (bench.ablation_traversal_variants, "Traversal variants"),
    "filter": (bench.ablation_filter_stage, "Filter Stage ablation"),
    "countbound": (bench.ablation_count_bound, "Count-aware AkNN bound"),
}


def _make_dataset(name: str, n: int, dims: int, seed: int) -> np.ndarray:
    if name == "tac":
        return tac_surrogate(n, seed=seed)
    if name == "fc":
        return fc_surrogate(n, seed=seed)
    if name in gstd.DISTRIBUTIONS:
        return gstd.generate(n, dims, name, seed=seed)
    raise SystemExit(
        f"unknown dataset {name!r}: choose tac, fc, or one of {sorted(gstd.DISTRIBUTIONS)}"
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    data = table2_datasets(scale=args.scale)
    print(f"Table 2 datasets at scale {args.scale}:")
    for name, pts in data.items():
        spans = pts.max(axis=0) - pts.min(axis=0)
        print(
            f"  {name:8s} n={len(pts):>8,}  D={pts.shape[1]:>2}  "
            f"extent span ratio={spans.max() / max(spans.min(), 1e-12):.1f}"
        )
    return 0


def _join_config(args: argparse.Namespace) -> JoinConfig:
    """One validated :class:`JoinConfig` out of the ``join`` flags.

    Validation errors surface as ``SystemExit`` with the flag spelled the
    way the user typed it.
    """
    method = get_method(args.method)
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1 and not method.supports_workers:
        raise SystemExit(
            f"--workers applies only to the sharded MBA/RBA executor, not {args.method!r}"
        )
    if args.node_cache < 0:
        raise SystemExit(f"--node-cache must be >= 0, got {args.node_cache}")
    try:
        return JoinConfig(
            kind=method.index_kind if method.index_kind is not None else "mbrqt",
            metric=args.metric,
            k=args.k,
            exclude_self=True,
            workers=args.workers,
            node_cache_entries=args.node_cache,
            trace=args.trace,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _cmd_join(args: argparse.Namespace) -> int:
    points = _make_dataset(args.dataset, args.n, args.dims, args.seed)
    cfg = _join_config(args)
    storage = StorageManager.with_pool_bytes(
        args.pool_kb * 1024, args.page_size, node_cache_entries=args.node_cache
    )
    session = TraceSession(cfg.trace)
    outcome = run_join(
        args.method, points, storage, cfg, exclude_self=True, tracer=session.tracer
    )
    result, stats = outcome.result, outcome.stats
    session.finalize(
        meta={
            **cfg.describe(),
            "command": "join",
            "method": args.method,
            "dataset": args.dataset,
            "n": args.n,
            "seed": args.seed,
        },
        totals=stats.as_dict(),
    )

    print(f"{args.method.upper()} self-{'ANN' if args.k == 1 else f'A{args.k}NN'} "
          f"on {args.dataset} (n={args.n:,})")
    if args.workers > 1 and outcome.reports is not None:
        reports = outcome.reports
        shard_pts = ", ".join(f"{r.points:,}" for r in reports)
        print(f"  workers          : {args.workers} ({len(reports)} shards; points {shard_pts})")
    print(f"  index build      : {outcome.build_s:.2f}s")
    print(f"  query CPU        : {outcome.query_s:.2f}s")
    print(f"  simulated I/O    : {stats.io_time_s:.2f}s ({stats.page_misses:,} misses)")
    print(f"  distance evals   : {stats.distance_evaluations:,}")
    print(f"  node expansions  : {stats.node_expansions:,}")
    print(f"  result pairs     : {result.pair_count():,}")
    print(f"  total distance   : {result.total_distance():.4f} (checksum)")
    if args.trace is not None:
        print(f"  trace            : wrote {args.trace}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    entry = _EXPERIMENTS.get(args.name)
    if entry is None:
        raise SystemExit(f"unknown experiment {args.name!r}: choose from {sorted(_EXPERIMENTS)}")
    fn, title = entry
    session = TraceSession(args.trace)
    if session.tracer is not None:
        # The benchmark harness consults the ambient tracer, so every
        # measured method run becomes a span without threading a tracer
        # through the figure functions.
        with use_tracer(session.tracer):
            runs = fn()
    else:
        runs = fn()
    totals = QueryStats()
    for r in runs:
        totals.merge(r.stats)
    session.finalize(
        meta={"command": "experiment", "experiment": args.name, "title": title},
        totals=totals.as_dict(),
    )
    extra = sorted({key for r in runs for key in r.params})
    print(bench.format_table(title, runs, extra_cols=extra))
    if args.trace is not None:
        print(f"\nwrote trace {args.trace}")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    try:
        doc = load_trace(args.path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.path!r}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"invalid trace {args.path!r}: {exc}") from None
    print(format_trace_report(doc))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.analyzer import ANALYZER_RULES, analyze_project
    from .analysis.baseline import diff_against_baseline, load_baseline, save_baseline
    from .analysis.output import render

    if args.list_rules:
        width = max(len(rule_id) for rule_id in ANALYZER_RULES)
        for rule_id in sorted(ANALYZER_RULES):
            print(f"{rule_id:<{width}}  {ANALYZER_RULES[rule_id]}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    root = Path(args.root) if args.root is not None else Path(__file__).resolve().parent
    diagnostics = analyze_project(root, args.paths, display_base=root.parent)
    if args.write_baseline:
        save_baseline(args.baseline, diagnostics)
        n = len(diagnostics)
        print(f"wrote baseline {args.baseline} ({n} entr{'y' if n == 1 else 'ies'})")
        return 0

    report = render(args.fmt, diagnostics, tool="repro.analyze", rule_summaries=ANALYZER_RULES)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)

    try:
        baseline = load_baseline(args.baseline)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    new, stale = diff_against_baseline(diagnostics, baseline)
    if new:
        n = len(new)
        print(f"analyze: {n} new finding{'s' if n != 1 else ''}", file=sys.stderr)
    for fp in sorted(stale):
        print(f"analyze: stale baseline entry (fixed? remove it): {fp}", file=sys.stderr)
    return 1 if new or stale else 0


def _cmd_parallel_bench(args: argparse.Namespace) -> int:
    if args.dataset not in gstd.DISTRIBUTIONS:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}: choose one of {sorted(gstd.DISTRIBUTIONS)}"
        )
    cfg = bench.BenchConfig.from_env()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.page_size is not None:
        cfg.page_size = args.page_size
    if args.pool_kb is not None:
        cfg.pool_bytes = args.pool_kb * 1024
    out = None if args.out == "-" else args.out
    session = TraceSession(args.trace)
    with use_tracer(session.tracer) if session.tracer is not None else nullcontext():
        report = bench.parallel_scaling(
            cfg,
            worker_counts=tuple(args.workers),
            kind=args.kind,
            distribution=args.dataset,
            n=args.n,
            dims=args.dims,
            k=args.k,
            out_path=out,
        )
    session.finalize(
        meta={"command": "parallel-bench", "dataset": args.dataset, "kind": args.kind}
    )
    print(bench.format_parallel_report(report))
    if out is not None:
        print(f"\nwrote {out}")
    if args.trace is not None:
        print(f"wrote trace {args.trace}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: push self-queries through the one serving pipeline,
    flushing in process or (``--replicas N > 1``) on a
    :class:`ReplicaCluster` of spawned replica processes."""
    import tempfile

    from .serve import ReplicaCluster, ServeConfig
    from .service import AnnService, ServiceConfig

    points = _make_dataset(args.dataset, args.n, args.dims, args.seed)
    if args.replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {args.replicas}")
    cluster = args.replicas > 1
    if args.cache_slots and not cluster:
        raise SystemExit("--cache-slots is the shared cross-process cache; "
                         "it requires --replicas >= 2")
    try:
        cfg = ServiceConfig(
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            queue_capacity=args.queue_capacity,
            deadline_ms=args.deadline_ms,
            cold_flush=not cluster,
            trace=None if cluster else args.trace,
        )
        serve_cfg = ServeConfig(
            replicas=args.replicas, cache_slots=args.cache_slots,
            trace=args.trace, service=cfg,
        ) if cluster else None
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    n_requests = 1 if args.once else args.requests
    if n_requests < 1:
        raise SystemExit(f"--requests must be >= 1, got {n_requests}")
    rng = np.random.default_rng(args.seed + 1)
    queries = points[rng.integers(0, len(points), size=n_requests)]

    with tempfile.TemporaryDirectory() as epochs:
        service = (
            AnnService(points, cfg)
            if serve_cfg is None
            else ReplicaCluster(points, serve_cfg, epochs)
        )
        with service.serving():
            tickets = [service.submit(q, k=args.k, client="cli") for q in queries]
            answers = [t.result(timeout_s=60.0) for t in tickets]
    counters = service.counters
    exact = sum(1 for a in answers if not a.approximate)
    topology = f", {args.replicas} replica processes" if cluster else ""
    print(f"serve — {args.dataset} (n={args.n:,}, D={points.shape[1]}), "
          f"{n_requests} self-quer{'y' if n_requests == 1 else 'ies'}, "
          f"k={args.k}{topology}")
    print(f"  answered         : {len(answers)} ({exact} exact, "
          f"{len(answers) - exact} degraded)")
    print(f"  batches          : {counters.batches} "
          f"(singleton {counters.singleton_flushes}, "
          f"batched {counters.batched_flushes})")
    print(f"  max queue length : {counters.max_queue_len} "
          f"(capacity {cfg.queue_capacity})")
    print(f"  shed             : quota {counters.shed_quota}, "
          f"overload {counters.shed_overload}, deadline {counters.shed_deadline}")
    if args.once:
        answer = answers[0]
        print(f"  self-query answer: ids={list(answer.neighbor_ids)} "
              f"dists={[f'{d:.6f}' for d in answer.distances]}")
        # A self-query's nearest neighbour is the point itself at
        # distance zero — the one-shot smoke asserts the round trip.
        if answer.distances and answer.distances[0] == 0.0:
            print("  round-trip       : OK (nearest neighbour is the query point)")
        else:
            raise SystemExit("self-query round trip failed: expected distance 0.0")
    if args.trace is not None:
        print(f"  trace            : wrote {args.trace}")
    return 0


def _cmd_service_bench(args: argparse.Namespace) -> int:
    out = None if args.out == "-" else args.out
    try:
        doc = bench.run_service_bench(
            windows=tuple(args.windows),
            clients=args.clients,
            n_target=args.n,
            n_requests=args.requests,
            dims=args.dims,
            k=args.k,
            kind=args.kind,
            seed=args.seed,
            smoke=args.smoke,
            out_path=out,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(bench.format_service_report(doc))
    if out is not None:
        print(f"\nwrote {out}")
    return 0


def _cmd_update_bench(args: argparse.Namespace) -> int:
    out = None if args.out == "-" else args.out
    try:
        doc = bench.run_update_bench(
            kinds=tuple(args.kinds),
            n_target=args.n,
            rounds=args.rounds,
            updates_per_round=args.updates,
            queries_per_round=args.queries,
            compact_threshold=args.compact_threshold,
            dims=args.dims,
            k=args.k,
            seed=args.seed,
            smoke=args.smoke,
            out_path=out,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(bench.format_update_report(doc))
    if out is not None:
        print(f"\nwrote {out}")
    return 0


def _cmd_kernel_bench(args: argparse.Namespace) -> int:
    out = None if args.out == "-" else args.out
    session = TraceSession(args.trace)
    with use_tracer(session.tracer) if session.tracer is not None else nullcontext():
        report = bench.kernel_bench(smoke=args.smoke, seed=args.seed, out_path=out)
    session.finalize(meta={"command": "kernel-bench", "smoke": args.smoke})
    print(bench.format_kernel_report(report))
    if out is not None:
        print(f"\nwrote {out}")
    if args.trace is not None:
        print(f"wrote trace {args.trace}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="All-Nearest-Neighbor query reproduction (Chen & Patel, ICDE 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="generate and describe the Table 2 workloads")
    p.add_argument("--scale", type=float, default=0.01, help="cardinality scale (1.0 = paper)")
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("join", help="run one ANN/AkNN method on a generated workload")
    p.add_argument("--method", default="mba", choices=list(method_names()))
    p.add_argument("--dataset", default="tac",
                   help="tac, fc, uniform, gaussian, skewed, correlated")
    p.add_argument("-n", type=int, default=10_000, help="number of points")
    p.add_argument("--dims", type=int, default=2, help="dimensionality (synthetic only)")
    p.add_argument("-k", type=int, default=1, help="neighbours per point")
    p.add_argument("--metric", default="nxndist", choices=["nxndist", "maxmaxdist"])
    p.add_argument("--page-size", type=int, default=2048)
    p.add_argument("--pool-kb", type=int, default=512)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sharded MBA/RBA executor")
    p.add_argument("--node-cache", type=int, default=0,
                   help="decoded-node cache entries above the buffer pool "
                        "(0 disables; sliced per worker when sharded)")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write the schema-validated JSON trace artifact here "
                        "(results are bit-identical with tracing on or off)")
    p.set_defaults(fn=_cmd_join)

    p = sub.add_parser("experiment", help="regenerate one of the paper's figures")
    p.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a JSON trace with one span per measured method run")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("trace-report", help="summarize a repro.trace JSON artifact")
    p.add_argument("path", help="trace file written by --trace or the trace= API")
    p.set_defaults(fn=_cmd_trace_report)

    p = sub.add_parser(
        "analyze",
        help="static analysis: per-file domain rules plus whole-program passes",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="more files or directories for the per-file rules "
                        "(the package is always analyzed)")
    p.add_argument("--root", default=None, metavar="DIR",
                   help="package directory to analyze (default: the installed repro package)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   dest="fmt", help="report format (default: text)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--baseline", default=".repro-analysis-baseline.json", metavar="FILE",
                   help="grandfathered-findings file gating the exit status")
    p.add_argument("--write-baseline", action="store_true",
                   help="write the current findings to --baseline and exit 0")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "parallel-bench",
        help="sweep worker counts and write the BENCH_parallel.json artifact",
    )
    p.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                   help="worker counts to sweep (first is the speedup baseline)")
    p.add_argument("--out", default="BENCH_parallel.json",
                   help="artifact path ('-' to skip writing)")
    p.add_argument("--dataset", default="gaussian",
                   help=f"one of {sorted(gstd.DISTRIBUTIONS)}")
    p.add_argument("-n", type=int, default=None,
                   help="number of points (default: bench config syn_n)")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--kind", default="mbrqt", choices=["mbrqt", "rstar"])
    p.add_argument("--seed", type=int, default=None,
                   help="dataset seed (default: bench config seed)")
    p.add_argument("--page-size", type=int, default=None)
    p.add_argument("--pool-kb", type=int, default=None)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a JSON trace with per-run and per-worker spans")
    p.set_defaults(fn=_cmd_parallel_bench)

    p = sub.add_parser(
        "serve",
        help="run the micro-batching ANN query service on a generated dataset",
    )
    p.add_argument("--dataset", default="uniform",
                   help="tac, fc, uniform, gaussian, skewed, correlated")
    p.add_argument("-n", type=int, default=2_000, help="target dataset size")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("-k", type=int, default=1, help="neighbours per request")
    p.add_argument("--requests", type=int, default=64,
                   help="self-queries to push through the live service")
    p.add_argument("--once", action="store_true",
                   help="one self-query round trip, assert distance 0, exit "
                        "(the CI smoke)")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-delay-ms", type=float, default=2.0)
    p.add_argument("--queue-capacity", type=int, default=1024)
    p.add_argument("--deadline-ms", type=float, default=None)
    p.add_argument("--replicas", type=int, default=1,
                   help="flush on N mapped-epoch replica processes "
                        "(repro.serve) instead of the in-process engine")
    p.add_argument("--cache-slots", type=int, default=0,
                   help="shared cross-process decoded-node cache slots "
                        "(requires --replicas >= 2; 0 disables)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write the service trace artifact (per-batch spans, "
                        "service counter section) on close")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "service-bench",
        help="closed-loop micro-batching sweep; writes BENCH_service.json",
    )
    p.add_argument("--windows", type=int, nargs="+", default=[1, 2, 8, 32],
                   help="max_batch values to sweep (first must be the "
                        "one-at-a-time baseline, 1)")
    p.add_argument("--clients", type=int, default=32,
                   help="closed-loop clients (each keeps one request in flight)")
    p.add_argument("-n", type=int, default=2_000, help="target dataset size")
    p.add_argument("--requests", type=int, default=256,
                   help="total requests per swept window")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--kind", default="mbrqt", choices=["mbrqt", "rstar"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long CI configuration (same code paths)")
    p.add_argument("--out", default="BENCH_service.json",
                   help="artifact path ('-' to skip writing)")
    p.set_defaults(fn=_cmd_service_bench)

    p = sub.add_parser(
        "update-bench",
        help="query latency + epoch-boundary verification under a sustained "
             "insert/delete stream; writes BENCH_updates.json",
    )
    p.add_argument("--kinds", nargs="+", default=["mbrqt", "rstar"],
                   choices=["mbrqt", "rstar"],
                   help="index kinds to stream updates against")
    p.add_argument("-n", type=int, default=1_000, help="initial dataset size")
    p.add_argument("--rounds", type=int, default=10,
                   help="update/query rounds to run")
    p.add_argument("--updates", type=int, default=24,
                   help="interleaved inserts/deletes per round")
    p.add_argument("--queries", type=int, default=16,
                   help="coalesced queries measured per round")
    p.add_argument("--compact-threshold", type=int, default=32,
                   help="pending delta ops that trigger an epoch compaction")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long CI configuration (same code paths)")
    p.add_argument("--out", default="BENCH_updates.json",
                   help="artifact path ('-' to skip writing)")
    p.set_defaults(fn=_cmd_update_bench)

    p = sub.add_parser(
        "kernel-bench",
        help="microbenchmark the core kernels and write BENCH_core.json",
    )
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long CI configuration (same code paths)")
    p.add_argument("--out", default="BENCH_core.json",
                   help="artifact path ('-' to skip writing)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a JSON trace of the end-to-end runs")
    p.set_defaults(fn=_cmd_kernel_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run the chosen command."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
