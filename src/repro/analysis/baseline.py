"""Baseline file for ``repro analyze``: grandfathered findings of every rule.

A baseline entry is a *grandfathered* finding: present when the gate was
introduced, tracked until fixed.  The fingerprint is ``(rule, path,
message)`` — deliberately line-free, so unrelated edits shifting a file
do not churn the baseline, while any change to the finding itself (or
its fix) does.

Two failure directions, both loud:

* a finding **not** in the baseline is *new* — the gate fails;
* a baseline entry matching **no** finding is *stale* — the gate fails
  too, so the baseline can only shrink, never silently rot.

The current tree analyzes clean, so the checked-in baseline is empty;
the machinery exists so a future true-positive can land with an explicit
grandfathering commit instead of an inline suppression when the fix is
non-trivial.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import Diagnostic

__all__ = ["fingerprint", "load_baseline", "save_baseline", "diff_against_baseline"]

_VERSION = 1


def fingerprint(diag: Diagnostic) -> str:
    return f"{diag.rule}::{diag.path}::{diag.message}"


def load_baseline(path: str | Path) -> set[str]:
    """The fingerprints in a baseline file (empty set if absent)."""
    p = Path(path)
    if not p.exists():
        return set()
    doc = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("version") != _VERSION:
        raise ValueError(f"unrecognised baseline file {p} (expected version {_VERSION})")
    entries = doc.get("entries", [])
    out: set[str] = set()
    for e in entries:
        out.add(f"{e['rule']}::{e['path']}::{e['message']}")
    return out


def save_baseline(path: str | Path, diagnostics: list[Diagnostic]) -> None:
    """Write the baseline for the given findings (sorted, stable)."""
    entries = sorted(
        (
            {"rule": d.rule, "path": d.path, "message": d.message}
            for d in diagnostics
        ),
        key=lambda e: (e["rule"], e["path"], e["message"]),
    )
    doc = {"version": _VERSION, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def diff_against_baseline(
    diagnostics: list[Diagnostic], baseline: set[str]
) -> tuple[list[Diagnostic], set[str]]:
    """Split findings into (new, stale-baseline-fingerprints)."""
    seen: set[str] = set()
    new: list[Diagnostic] = []
    for d in diagnostics:
        fp = fingerprint(d)
        seen.add(fp)
        if fp not in baseline:
            new.append(d)
    stale = baseline - seen
    return new, stale
