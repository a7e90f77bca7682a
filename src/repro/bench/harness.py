"""Benchmark harness: timed, counter-instrumented method runs.

Every experiment in :mod:`repro.bench.experiments` funnels through
:func:`run_method`, which reproduces the paper's measurement discipline
(Section 4.1): cold buffer pool per run, CPU time measured around the
call, I/O time taken from the simulated disk clock, and the machine-
independent counters preserved alongside.

The harness is trace-aware through the *ambient* tracer
(:func:`repro.obs.current_tracer`): when an enclosing scope — e.g.
``python -m repro experiment fig4 --trace t.json`` — activates one,
every measured run becomes a span carrying its counter deltas, without
any experiment code changing.

:func:`run_registered` runs a method by its
:mod:`repro.join.registry` name, sharing the dispatch table (and its
measurement discipline) with the CLI.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..config import JoinConfig

from ..core.result import NeighborResult
from ..core.stats import QueryStats
from ..obs.tracer import current_tracer
from ..storage.manager import StorageManager

__all__ = [
    "MethodRun",
    "run_method",
    "run_registered",
    "format_table",
    "format_series",
    "modeled_cpu_seconds",
]


def modeled_cpu_seconds(stats: QueryStats, dims: int) -> float:
    """Machine-independent CPU time model from the cost counters.

    Python wall-clock time is dominated by interpreter overhead whose
    ratio to arithmetic differs by ~10^3 from the compiled implementations
    the paper measured, so relative CPU comparisons are made on a modeled
    clock (exactly as I/O time is modeled from page misses).  Constants
    approximate the paper's 1.2 GHz Pentium M: a D-dimensional distance
    evaluation costs ``(10 + 4 D)`` cycles' worth (~diffs, squares,
    accumulate, sqrt amortised), a node expansion ~1200 cycles of setup,
    and a priority-queue operation ~180 cycles.

    The model only matters *relatively* — every method is charged the
    same rates — and both the measured and the modeled clocks are
    reported by the harness.
    """
    hz = 1.2e9
    per_distance = (10 + 4 * dims) / hz
    per_expansion = 1200 / hz
    per_queue_op = 180 / hz
    return (
        stats.distance_evaluations * per_distance
        + stats.node_expansions * per_expansion
        + stats.lpq_enqueues * 2 * per_queue_op
    )


@dataclass
class MethodRun:
    """One measured execution of an ANN/AkNN method."""

    label: str
    cpu_s: float
    io_s: float
    stats: QueryStats
    dims: int = 2
    result: NeighborResult | None = None
    params: dict[str, object] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        """Stacked-bar height: measured CPU + simulated I/O."""
        return self.cpu_s + self.io_s

    @property
    def modeled_cpu_s(self) -> float:
        return modeled_cpu_seconds(self.stats, self.dims)

    @property
    def modeled_total_s(self) -> float:
        """Machine-independent bar height: modeled CPU + simulated I/O.

        This is the number EXPERIMENTS.md compares against the paper's
        figures (see :func:`modeled_cpu_seconds`).
        """
        return self.modeled_cpu_s + self.io_s

    def row(self) -> dict[str, object]:
        """Flatten to one table row (used by the text formatters)."""
        return {
            "method": self.label,
            "cpu_s": round(self.cpu_s, 3),
            "io_s": round(self.io_s, 3),
            "total_s": round(self.total_s, 3),
            "mcpu_s": round(self.modeled_cpu_s, 3),
            "mtotal_s": round(self.modeled_total_s, 3),
            "distances": self.stats.distance_evaluations,
            "expansions": self.stats.node_expansions,
            "enqueues": self.stats.lpq_enqueues,
            "page_misses": self.stats.page_misses,
            **self.params,
        }


def run_method(
    label: str,
    fn: Callable[[], tuple[NeighborResult, QueryStats]],
    storage: StorageManager,
    keep_result: bool = False,
    dims: int = 2,
    **params: object,
) -> MethodRun:
    """Run ``fn`` against a cold buffer pool and collect all costs.

    ``fn`` must perform the query through ``storage`` and return
    ``(result, stats)``.  Counters are reset before, I/O is snapshotted
    after, and wall-process CPU time is measured around the call.

    When an ambient tracer is active (see :func:`repro.obs.use_tracer`),
    the run executes inside a ``method`` span with a ``storage`` counter
    source bound, so traced experiments attribute costs per measured run.
    """
    storage.reset_counters()
    storage.drop_caches()
    tracer = current_tracer()
    with ExitStack() as scope:
        if tracer is not None:
            if not tracer.has_source("storage"):
                scope.enter_context(tracer.source("storage", storage.layer_counters))
            scope.enter_context(tracer.span("method", label=label))
        t0 = time.process_time()
        result, stats = fn()
        cpu = time.process_time() - t0
    io = storage.io_snapshot()
    stats.cpu_time_s += cpu
    stats.add_io(io)
    return MethodRun(
        label=label,
        cpu_s=cpu,
        io_s=io["io_time_s"],
        stats=stats,
        dims=dims,
        result=result if keep_result else None,
        params=params,
    )


def run_registered(
    method: str,
    points: np.ndarray,
    storage: StorageManager,
    config: "JoinConfig | None" = None,
    label: str | None = None,
    keep_result: bool = False,
    dims: int | None = None,
    exclude_self: bool = True,
    **params: object,
) -> MethodRun:
    """Measure one :mod:`repro.join.registry` method as a :class:`MethodRun`.

    The registry's :func:`~repro.join.registry.run_join` supplies the
    build/reset/query discipline (identical to the CLI's); the tracer, if
    ambient, is passed through so MBA/RBA runs get per-stage spans.
    ``config.workers > 1`` shards the run exactly as ``--workers`` does.
    """
    from ..config import JoinConfig
    from ..join.registry import run_join

    cfg = config if config is not None else JoinConfig()
    pts = np.asarray(points, dtype=np.float64)
    outcome = run_join(
        method, pts, storage, cfg, exclude_self=exclude_self, tracer=current_tracer()
    )
    return MethodRun(
        label=label if label is not None else method,
        cpu_s=outcome.query_s,
        io_s=outcome.stats.io_time_s,
        stats=outcome.stats,
        dims=dims if dims is not None else int(pts.shape[1]),
        result=outcome.result if keep_result else None,
        params=params,
    )


def format_table(title: str, runs: list[MethodRun], extra_cols: list[str] | None = None) -> str:
    """Render runs as the text analogue of one of the paper's bar charts."""
    cols = [
        "method",
        "cpu_s",
        "io_s",
        "mcpu_s",
        "mtotal_s",
        "distances",
        "expansions",
        "page_misses",
    ]
    cols += extra_cols or []
    rows = [r.row() for r in runs]
    # An empty run list still renders a header-only table (len(c) seeds the
    # width so the max is never taken over an empty sequence).
    widths = {c: max([len(c)] + [len(str(row.get(c, ""))) for row in rows]) for c in cols}
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[c]) for c in cols))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def format_series(
    title: str,
    x_name: str,
    series: dict[str, list[tuple[float, float]]],
    unit: str = "s",
) -> str:
    """Render an x-vs-method table (the text analogue of a line figure).

    ``series`` maps method label -> list of ``(x, value)`` pairs.
    """
    xs = sorted({x for pts in series.values() for x, __ in pts})
    lines = [title, "-" * len(title)]
    header = [x_name.ljust(10)] + [str(x).rjust(10) for x in xs]
    lines.append("  ".join(header))
    for label, pts in series.items():
        lookup = dict(pts)
        cells = [label.ljust(10)]
        for x in xs:
            v = lookup.get(x)
            cells.append((f"{v:.2f}" if isinstance(v, float) else str(v)).rjust(10))
        lines.append("  ".join(cells))
    lines.append(f"(values in {unit})")
    return "\n".join(lines)
