"""Domain-aware static analysis for the reproduction.

The correctness of this reproduction rests on invariants the paper states
but Python cannot enforce by itself:

* NXNDIST is **asymmetric** (Lemma 3.1) — swapping the query and target
  MBR silently yields a bound that is *not* valid for pruning.
* The machine-independent cost counters only mean anything if every
  algorithm updates the *same* :class:`~repro.core.stats.QueryStats`
  fields; a typo'd counter name would silently vanish from benchmark
  output.
* The I/O model (Figure 3(b)) is void if code bypasses the
  :class:`~repro.storage.buffer_pool.BufferPool` and reads the
  :class:`~repro.storage.disk.PageStore` directly.
* Pruning must compare **squared** distances on hot paths; a stray
  ``sqrt`` inside a comparison wastes the very cycles the paper counts.
* Benchmarks must be replayable, so unseeded randomness is banned.

* Shared state must stay under its lock, the traversal hot path must
  stay pure, and the CLI, trace schema and counters must not drift apart
  — invariants that span modules.

This package encodes those invariants as per-file AST rules
(:mod:`repro.analysis.rules`, on the :mod:`repro.analysis.engine`
framework) and whole-program passes over a
:class:`~repro.analysis.model.ProjectModel`
(:mod:`repro.analysis.passes`).  One driver,
:func:`repro.analysis.analyzer.analyze_project`, runs both with one
suppression check; run it with ``python -m repro analyze [PATH ...]``.
"""

from .engine import (
    Diagnostic,
    FileContext,
    Rule,
    RuleRegistry,
    Severity,
    default_registry,
    lint_paths,
    lint_source,
)

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "RuleRegistry",
    "Severity",
    "default_registry",
    "lint_paths",
    "lint_source",
]
