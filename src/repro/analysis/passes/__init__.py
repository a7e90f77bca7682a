"""Whole-program passes over a :class:`~repro.analysis.model.ProjectModel`.

Each pass module exports ``RULES`` (rule id -> one-line summary) and
``run(model) -> list[Diagnostic]``.  The driver in
:mod:`repro.analysis.analyzer` composes them, applies suppressions, and
diffs against the baseline.
"""

from __future__ import annotations

from . import contracts, procspawn, purity, race

__all__ = ["race", "purity", "contracts", "procspawn"]
