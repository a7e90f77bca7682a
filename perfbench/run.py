"""Wall-clock benchmark of the repro library: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload service-churn --seed 1 --seconds 50 --trace 0

Prints a human-readable report (every metric by name with its unit, and
the operations sent/answered/refused/failed per phase), then, as the
last line, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the
traced run and reports the per-layer metrics (see README.md).  The
program is imported from the checkout's ``src/``; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``allnn-batch`` is not in BENCHMARK.json: its CPU-bound times follow
#: the host's speed too closely to gate on (see README.md).
WORKLOADS = {
    "allnn-batch": "allnn_batch",
    "service-churn": "service_churn",
    "serve-socket": "serve_socket",
}

END_TO_END = {
    "setup_s": "s",
    "join_s": "s",
    "read_p50_ms": "ms",
    "write_mean_ms": "ms",
    "rss_peak_mb": "MiB",
}

PER_LAYER = {
    "index.build_s": "s",
    "index.write_ms": "ms",
    "core.expand_s": "s",
    "core.filter_s": "s",
    "core.gather_s": "s",
    "core.distance_evals": "count",
    "core.node_expansions": "count",
    "core.pairs_per_eval": "ratio",
    "storage.logical_reads": "count",
    "storage.page_misses": "count",
    "storage.pool_hit_rate": "ratio",
    "storage.node_cache_hit_rate": "ratio",
    "service.queue_wait_ms": "ms",
    "service.flush_ms": "ms",
    "service.batch_mean": "count",
    "service.compact_ms": "ms",
    "service.compactions": "count",
    "serve.server_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.replica_batch_ms": "ms",
    "serve.batch_mean": "count",
    "serve.publish_ms": "ms",
    "serve.shared_cache_hit_rate": "ratio",
    "bench.read_p99_ms": "ms",
    "bench.read_capacity_rps": "1/s",
    "bench.late_p99_ms": "ms",
    "bench.failed_frac": "ratio",
    "bench.trace_overhead.join_s": "s",
    "bench.trace_overhead.read_p50_ms": "ms",
    "bench.trace_overhead.read_p99_ms": "ms",
    "bench.trace_overhead.write_mean_ms": "ms",
}


def stop_children() -> None:
    """Stop and reap every process the run started.

    Replicas are ``multiprocessing`` children; spawning them (and the
    shared cache's segment) also starts the resource tracker, which
    ``multiprocessing`` leaves to outlive this process unreaped.  Closing
    its pipe ends it, and ``_stop`` waits for it.  Collecting first runs
    the finalizers that unlink and unregister the run's semaphores, so
    the tracker finds nothing left to clean up.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    # A failure is handled here, not left to propagate, so that its
    # traceback no longer holds the run's objects when ``stop_children``
    # collects them; a semaphore finalized after the tracker stopped
    # would start a new one that nothing reaps.
    out = None
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        out = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
    finally:
        stop_children()
    if out is None:
        return 1

    wanted = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # A layer a workload leaves idle reads 0 (see README.md).
        out.put("bench.failed_frac", out.failed / max(out.attempted, 1), "ratio")
        for name, unit in wanted.items():
            out.metrics.setdefault(name, (0.0, unit))
    missing = sorted(set(wanted) - set(out.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, tally in out.phases.items():
        print(tally.line(name))
    for note in out.notes:
        print(note)
    for name in wanted:
        value, unit = out.metrics[name]
        print(f"  {name:<36} {value:14.6f} {unit}")
    result = {
        "correct": out.wrong == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name][0], "unit": unit} for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
