"""The static-analysis driver: per-file rules + whole-program passes.

``analyze_project`` is the one entry point (``python -m repro analyze``
and the repo-clean test both call it).  It builds the
:class:`~repro.analysis.model.ProjectModel` of the package, parses every
other ``.py`` file under the given paths, runs the per-file rules
(:mod:`repro.analysis.rules`) over every file and the four passes (race,
purity, contract drift, spawn discipline) over the package, drops
findings suppressed inline with ``# repro-lint: disable=RULE``, and
appends an ``unused-suppression`` diagnostic for every suppression
comment that matched nothing.  A package file is parsed once, whether it
was reached through ``package_dir`` or a path, so it is reported under
one path and its suppressions are judged against the whole catalogue.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .engine import (
    UNUSED_SUPPRESSION_RULE,
    Diagnostic,
    check_file,
    default_registry,
    iter_python_files,
    parse_source,
    unused_suppressions,
)
from .model import ProjectModel
from .passes import contracts, procspawn, purity, race

__all__ = ["ANALYZER_RULES", "analyze_project"]

ANALYZER_RULES: dict[str, str] = {
    **{name: rule.summary for name, rule in default_registry().rules.items()},
    **race.RULES,
    **purity.RULES,
    **contracts.RULES,
    **procspawn.RULES,
    UNUSED_SUPPRESSION_RULE: "suppression comment that matched no finding",
}
"""Rule id -> one-line summary: the one catalogue (stable ids)."""


def analyze_project(
    package_dir: str | Path,
    paths: Sequence[str | Path] = (),
    package: str | None = None,
    display_base: str | Path | None = None,
) -> list[Diagnostic]:
    """Analyze the package at ``package_dir`` plus the files under ``paths``.

    Package files are reported relative to ``display_base`` (default:
    the package's parent); other files under the path they were given.
    """
    model = ProjectModel.load(package_dir, package=package, display_base=display_base)
    package_files = {mod.display_path: mod.ctx for mod in model.modules.values()}
    contexts = list(package_files.values())
    seen = {mod.path.resolve() for mod in model.modules.values()}
    found: list[Diagnostic] = []
    for path in iter_python_files(paths):
        if path.resolve() in seen:
            continue
        seen.add(path.resolve())
        parsed = parse_source(path.read_text(encoding="utf-8"), path)
        if isinstance(parsed, Diagnostic):
            found.append(parsed)
        else:
            contexts.append(parsed)

    rules = list(default_registry().rules.values())
    for ctx in contexts:
        found.extend(check_file(ctx, rules))
    for diag in race.run(model) + purity.run(model) + contracts.run(model) + procspawn.run(model):
        ctx = package_files.get(diag.path)
        if ctx is None or not ctx.is_suppressed(diag.line, diag.rule):
            found.append(diag)
    for ctx in contexts:
        found.extend(unused_suppressions(ctx))
    found.sort(key=lambda d: d.sort_key)
    return found
