"""The repository must pass its own static analysis — the CI gate.

One driver run covers the per-file rules over ``src``, ``tests``,
``benchmarks`` and ``examples`` and the whole-program passes over
``src/repro``, against the checked-in baseline.  A second check runs the
per-file rules alone over the same trees with no baseline, so a domain
rule finding can never be waived by a baseline entry.  Running both
in-process (rather than shelling out) keeps the check in the ordinary
pytest run, so a violation fails fast with the diagnostic text in the
assertion message.
"""

from pathlib import Path

from repro.analysis.analyzer import analyze_project
from repro.analysis.baseline import diff_against_baseline, load_baseline
from repro.analysis.engine import lint_paths

_REPO = Path(__file__).resolve().parents[2]
_TREES = ("src", "tests", "benchmarks", "examples")


def test_repo_lints_clean():
    findings = lint_paths([p for p in (_REPO / d for d in _TREES) if p.exists()])
    assert findings == [], "\n" + "\n".join(d.format() for d in findings)


def test_repo_analyzes_clean_against_baseline():
    paths = [_REPO / d for d in _TREES]
    diagnostics = analyze_project(
        _REPO / "src" / "repro",
        [p for p in paths if p.exists()],
        display_base=_REPO / "src",
    )
    baseline = load_baseline(_REPO / ".repro-analysis-baseline.json")
    new, stale = diff_against_baseline(diagnostics, baseline)
    assert new == [], "\n" + "\n".join(d.format() for d in new)
    assert stale == set(), f"stale baseline entries (fixed? remove them): {sorted(stale)}"
