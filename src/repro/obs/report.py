"""Render a ``repro.trace`` artifact as attribution tables.

``python -m repro trace-report t.json`` answers the two questions the
paper's evaluation sections keep asking of every method:

* **Where did the time and work go, per pruning stage?**  The engine
  accumulates Expand/Gather windows (and the lazily-applied Filter
  Stage's discard counters) into span stage aggregates; the report sums
  them over the whole span tree — including grafted per-worker shard
  spans — into one Expand/Filter/Gather table.
* **Which storage layer served the reads?**  The document's ``totals``
  carry the authoritative end-of-run counters (for sharded runs these
  include worker-side I/O the coordinator never saw), broken out here
  into the decoded-node cache, the buffer pool, and the simulated disk.

Everything here is a pure function of the (validated) document, so the
report can be regenerated from an archived CI artifact long after the
run that produced it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .schema import validate_trace

__all__ = ["load_trace", "format_trace_report", "aggregate_stages"]

#: Canonical stage order for the attribution table (Algorithm 4's
#: Expand/Filter/Gather); stages outside this list print after, sorted.
_STAGE_ORDER = ("expand", "filter", "gather")

#: Stage-table counter columns: header -> counter key inside stage deltas.
_STAGE_COLUMNS = (
    ("distances", "stats.distance_evaluations"),
    ("expansions", "stats.node_expansions"),
    ("enqueues", "stats.lpq_enqueues"),
    ("pruned", "stats.pruned_entries"),
    ("discards", "stats.lpq_filter_discards"),
)


def load_trace(path: str | Path) -> dict[str, Any]:
    """Read and schema-validate a trace artifact."""
    doc = json.loads(Path(path).read_text())
    return validate_trace(doc)


def aggregate_stages(span: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Sum stage aggregates over ``span`` and its whole subtree.

    Worker shard spans are ordinary children, so a sharded run's stages
    fold into the same totals as a serial run's.
    """
    out: dict[str, dict[str, Any]] = {}
    stack = [span]
    while stack:
        node = stack.pop()
        for name, agg in node["stages"].items():
            entry = out.setdefault(name, {"calls": 0, "time_s": 0.0, "counters": {}})
            entry["calls"] += agg["calls"]
            entry["time_s"] += agg["time_s"]
            counters = entry["counters"]
            for key, value in agg["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        stack.extend(node["children"])
    return out


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.3f}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def _span_tree_lines(span: dict[str, Any], depth: int, out: list[str]) -> None:
    attrs = span["attrs"]
    attr_text = (
        " (" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + ")" if attrs else ""
    )
    out.append(f"{'  ' * depth}{span['name']:<18s} {span['duration_s']:>9.3f}s{attr_text}")
    for child in span["children"]:
        _span_tree_lines(child, depth + 1, out)


def _stage_section(doc: dict[str, Any]) -> list[str]:
    stages = aggregate_stages(doc["root"])
    totals = doc["totals"]
    names = [s for s in _STAGE_ORDER if s in stages]
    names += sorted(set(stages) - set(_STAGE_ORDER))
    total_time = sum(stages[name]["time_s"] for name in names)

    headers = ["stage", "calls", "time_s", "time%"] + [h for h, _ in _STAGE_COLUMNS]
    rows: list[list[str]] = []
    for name in names:
        agg = stages[name]
        share = 100.0 * agg["time_s"] / total_time if total_time > 0 else 0.0
        row = [name, _fmt_num(agg["calls"]), f"{agg['time_s']:.3f}", f"{share:.1f}"]
        row += [_fmt_num(agg["counters"].get(key, 0.0)) for _, key in _STAGE_COLUMNS]
        rows.append(row)

    # The Filter Stage is applied lazily inside Expand/Gather pops
    # (Section 3.3.3), so it has no timed windows of its own; its work is
    # the discard counter, reported from the authoritative totals when
    # the producer supplied them.
    if "filter" not in stages:
        discards = totals.get("lpq_filter_discards")
        if discards is None:
            discards = sum(
                stages[name]["counters"].get("stats.lpq_filter_discards", 0.0)
                for name in names
            )
        row = ["filter", "(lazy)", "-", "-"]
        row += ["-" for _ in _STAGE_COLUMNS[:-1]] + [_fmt_num(discards)]
        rows.append(row)
        order = {"expand": 0, "filter": 1, "gather": 2}
        rows.sort(key=lambda r: order.get(r[0], len(order)))

    lines = ["Stage attribution (Expand / Filter / Gather):"]
    if rows:
        lines += _table(headers, rows)
        lines.append("(filter runs lazily inside expand/gather pops; its cost is the discards)")
    else:
        lines.append("(no stage data in this trace)")
    return lines


def _layer_section(doc: dict[str, Any]) -> list[str]:
    totals = doc["totals"]
    if not totals:
        return [
            "Layer attribution:",
            "(no totals in this trace — produced without an end-of-run counter bundle)",
        ]
    cache_hits = totals.get("node_cache_hits", 0.0)
    cache_misses = totals.get("node_cache_misses", 0.0)
    logical = totals.get("logical_reads", 0.0)
    misses = totals.get("page_misses", 0.0)
    io_time = totals.get("io_time_s", 0.0)

    def rate(hits: float, requests: float) -> str:
        return f"{100.0 * hits / requests:.1f}" if requests > 0 else "-"

    headers = ["layer", "requests", "hits", "misses", "hit%", "time_s"]
    rows = [
        [
            "node-cache",
            _fmt_num(cache_hits + cache_misses),
            _fmt_num(cache_hits),
            _fmt_num(cache_misses),
            rate(cache_hits, cache_hits + cache_misses),
            "-",
        ],
        [
            "pool",
            _fmt_num(logical),
            _fmt_num(logical - misses),
            _fmt_num(misses),
            rate(logical - misses, logical),
            "-",
        ],
        ["disk", _fmt_num(misses), "-", "-", "-", f"{io_time:.3f}"],
    ]
    lines = ["Layer attribution (decoded-node cache / buffer pool / disk):"]
    lines += _table(headers, rows)
    lines.append("(disk requests = pool misses; time_s is the simulated I/O clock)")
    return lines


def _service_section(doc: dict[str, Any]) -> list[str]:
    service = doc["service"]
    lines = ["Service counters (online run):"]
    if not service:
        lines.append("(empty service section)")
        return lines
    headers = ["counter", "value"]
    rows = [[name, _fmt_num(value)] for name, value in sorted(service.items())]
    lines += _table(headers, rows)
    submitted = service.get("submitted", 0.0)
    if submitted > 0:
        shed = ", ".join(
            f"{rule} {100.0 * service.get(f'shed_{rule}', 0.0) / submitted:.1f}%"
            for rule in ("quota", "overload", "deadline")
        )
        degraded = service.get("degraded", 0.0)
        admitted = service.get("admitted", 0.0)
        lines.append(f"(shed at admission, share of submitted: {shed})")
        if admitted > 0:
            lines.append(f"(degraded {100.0 * degraded / admitted:.1f}% of admitted)")
    return lines


def _replica_section(doc: dict[str, Any]) -> list[str]:
    replicas = doc["replica"]
    lines = ["Replica counters (multi-process serve):"]
    if not replicas:
        lines.append("(empty replica section)")
        return lines
    names = sorted(replicas)
    counter_names = sorted({key for counters in replicas.values() for key in counters})
    headers = ["counter"] + names
    rows = [
        [counter]
        + [
            _fmt_num(replicas[name][counter]) if counter in replicas[name] else "-"
            for name in names
        ]
        for counter in counter_names
    ]
    lines += _table(headers, rows)
    return lines


def format_trace_report(doc: dict[str, Any]) -> str:
    """The full text report for one (already validated) trace document."""
    meta = doc["meta"]
    lines = [f"Trace report — {doc['schema']} v{doc['version']}"]
    if meta:
        lines.append("meta: " + "  ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append("")
    lines.append("Spans:")
    _span_tree_lines(doc["root"], 1, lines)
    lines.append("")
    lines += _stage_section(doc)
    lines.append("")
    lines += _layer_section(doc)
    if "service" in doc:
        lines.append("")
        lines += _service_section(doc)
    if "replica" in doc:
        lines.append("")
        lines += _replica_section(doc)
    return "\n".join(lines)
