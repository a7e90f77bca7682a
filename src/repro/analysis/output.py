"""Diagnostic emitters for ``python -m repro analyze``: text, JSON, SARIF 2.1.0.

The JSON shape is a small stable envelope for scripting; SARIF is the
interchange format CI annotation services understand.  Neither emitter
sorts or filters: callers pass the final diagnostic list.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence

from .engine import Diagnostic

__all__ = ["FORMATS", "render", "render_text", "render_json", "render_sarif"]

FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """The conventional ``path:line:col: severity [rule] message`` lines."""
    return "".join(f"{d.format()}\n" for d in diagnostics)


def render_json(
    diagnostics: Sequence[Diagnostic],
    tool: str,
    rule_summaries: Mapping[str, str] | None = None,
) -> str:
    """A stable machine-readable envelope::

        {"tool": ..., "findings": [{"path": ..., "line": ..., "col": ...,
         "rule": ..., "severity": ..., "message": ...}, ...]}
    """
    doc: dict[str, object] = {
        "tool": tool,
        "findings": [
            {
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "rule": d.rule,
                "severity": str(d.severity),
                "message": d.message,
            }
            for d in diagnostics
        ],
    }
    if rule_summaries:
        doc["rules"] = {name: summary for name, summary in sorted(rule_summaries.items())}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def render_sarif(
    diagnostics: Sequence[Diagnostic],
    tool: str,
    rule_summaries: Mapping[str, str] | None = None,
) -> str:
    """Minimal single-run SARIF 2.1.0 document.

    The driver's ``rules`` array declares every catalogue rule the caller
    passes plus every rule id that appears in a result (SARIF requires
    the index to resolve), each with its one-line summary when known.
    """
    summaries = rule_summaries or {}
    rule_ids = sorted(set(summaries) | {d.rule for d in diagnostics})
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}
    rules = [
        {
            "id": rid,
            "shortDescription": {"text": summaries.get(rid, rid)},
        }
        for rid in rule_ids
    ]
    results = [
        {
            "ruleId": d.rule,
            "ruleIndex": rule_index[d.rule],
            "level": _SARIF_LEVELS.get(str(d.severity), "error"),
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": d.path},
                        "region": {
                            "startLine": d.line,
                            "startColumn": max(d.col, 0) + 1,
                        },
                    }
                }
            ],
        }
        for d in diagnostics
    ]
    doc: dict[str, object] = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {"driver": {"name": tool, "rules": rules}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def render(
    fmt: str,
    diagnostics: Sequence[Diagnostic],
    tool: str,
    rule_summaries: Mapping[str, str] | None = None,
) -> str:
    """Dispatch on ``fmt`` (one of :data:`FORMATS`)."""
    if fmt == "text":
        return render_text(diagnostics)
    if fmt == "json":
        return render_json(diagnostics, tool, rule_summaries)
    if fmt == "sarif":
        return render_sarif(diagnostics, tool, rule_summaries)
    raise ValueError(f"unknown format {fmt!r} (have: {', '.join(FORMATS)})")
