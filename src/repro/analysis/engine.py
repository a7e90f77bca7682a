"""Rule engine for the per-file rules: registry, suppressions, diagnostics.

The engine is deliberately small: one parse per file, one token scan for
suppression comments, and a shared :class:`FileContext` so individual
rules stay a few dozen lines each.  Rules subclass :class:`Rule`,
register themselves in a :class:`RuleRegistry`, and yield
:class:`Diagnostic` records anchored to a file and line.

Suppressions
------------
A finding is suppressed by a ``# repro-lint: ignore[rule-name]`` or
``# repro-lint: disable=rule-name`` comment either on the flagged line
or on a standalone comment line directly above it.  ``# repro-lint:
ignore`` / ``disable`` (no rule list) suppresses every rule on that
line.  Several rules may be listed: ``ignore[bare-except,
sqrt-discipline]`` or ``disable=RACE-001,PURE-003``.  Suppressions are
intentionally loud in the source — they are the reviewed, documented
exceptions to the paper's invariants.

The per-file rules here and the whole-program passes share one
suppression syntax and one catalogue; the driver
(:mod:`repro.analysis.analyzer`) runs both over the same
:class:`FileContext` and only then reports the comments that matched no
finding (see :func:`unused_suppressions`).
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Severity",
    "Diagnostic",
    "FileContext",
    "Rule",
    "RuleRegistry",
    "default_registry",
    "parse_source",
    "check_file",
    "lint_source",
    "lint_paths",
    "unused_suppressions",
    "UNUSED_SUPPRESSION_RULE",
]

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*(?:ignore(?:\[([A-Za-z0-9_,\s-]+)\])?|disable(?:=([A-Za-z0-9_,\s-]+))?)"
)

UNUSED_SUPPRESSION_RULE = "unused-suppression"
"""Rule id of the diagnostic flagging suppression comments that matched
no finding — stale exceptions must not outlive the code they excused."""

_SUPPRESS_ALL = frozenset({"*"})
"""Sentinel rule-name set meaning "every rule" for a bare ``ignore``."""


class Severity(enum.Enum):
    """How serious a finding is.  Every built-in rule emits ``ERROR``."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a file and position."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        """Render as the conventional ``path:line:col: rule message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.severity} [{self.rule}] {self.message}"

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


def _scan_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> set of rule names suppressed on that line.

    Uses the tokenizer (not a regex over raw lines) so that a
    ``repro-lint:`` inside a string literal is not mistaken for a
    suppression comment.
    """
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        names = match.group(1) if match.group(1) is not None else match.group(2)
        if names is None:
            rules = _SUPPRESS_ALL
        else:
            rules = frozenset(n.strip() for n in names.split(",") if n.strip())
        out[tok.start[0]] = out.get(tok.start[0], frozenset()) | rules
    return out


class FileContext:
    """Everything a rule needs to inspect one parsed file.

    Shared per-file infrastructure: the AST, a lazily built parent map,
    an import-alias table for resolving dotted call names, and the
    suppression table.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = _scan_suppressions(source)
        #: Lines whose suppression comment matched at least one finding —
        #: fed to :func:`unused_suppressions` after all rules have run.
        self.used_suppression_lines: set[int] = set()
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._aliases: dict[str, str] | None = None

    # -- structure ----------------------------------------------------------

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child node -> parent node, built on first use."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    # -- name resolution ----------------------------------------------------

    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> fully dotted module/object path, from imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from math import
        sqrt as s`` maps ``s -> math.sqrt``.
        """
        if self._aliases is None:
            self._aliases = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        self._aliases[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for a in node.names:
                        if a.name == "*":
                            continue
                        self._aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        return self._aliases

    def dotted_name(self, node: ast.expr) -> str | None:
        """Resolve an expression to a dotted name through import aliases.

        ``np.sqrt`` -> ``numpy.sqrt`` under ``import numpy as np``;
        returns ``None`` for anything that is not a plain name chain.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted_name(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- suppression --------------------------------------------------------

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True if ``rule`` is suppressed on ``line`` or the line above.

        A successful match records the comment's line in
        :attr:`used_suppression_lines` so stale suppressions can be
        reported afterwards by :func:`unused_suppressions`.
        """
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules is not None and (rules & _SUPPRESS_ALL or rule in rules):
                self.used_suppression_lines.add(candidate)
                return True
        return False

    # -- diagnostics --------------------------------------------------------

    def flag(
        self,
        node: ast.AST,
        rule: Rule,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``'s position."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Diagnostic(self.path, line, col, rule.name, message, severity)


def unused_suppressions(ctx: FileContext) -> list[Diagnostic]:
    """Flag suppression comments in ``ctx`` that matched no finding.

    Run this *after* every rule and pass has been checked against
    ``ctx``, so the :attr:`FileContext.used_suppression_lines`
    bookkeeping is complete.  Listing ``unused-suppression`` itself in
    the comment silences this check for that comment.
    """
    out: list[Diagnostic] = []
    for line, rules in sorted(ctx.suppressions.items()):
        if line in ctx.used_suppression_lines or UNUSED_SUPPRESSION_RULE in rules:
            continue
        label = "bare suppression" if rules & _SUPPRESS_ALL else ", ".join(sorted(rules))
        out.append(
            Diagnostic(
                ctx.path,
                line,
                0,
                UNUSED_SUPPRESSION_RULE,
                f"suppression matched no finding ({label}) — remove it",
            )
        )
    return out


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`name` (the suppression token), :attr:`summary`
    (one-line catalogue entry), and implement :meth:`check`.  A rule may
    narrow where it applies by overriding :meth:`applies_to` — e.g. the
    buffer-pool-bypass rule exempts the storage layer itself.
    """

    name: str = ""
    summary: str = ""
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (POSIX-style string)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield raw findings; the engine filters suppressed ones."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers


@dataclass
class RuleRegistry:
    """Ordered collection of rule instances, keyed by rule name."""

    rules: dict[str, Rule] = field(default_factory=dict)

    def register(self, rule: Rule) -> Rule:
        if not rule.name:
            raise ValueError(f"rule {type(rule).__name__} has no name")
        if rule.name in self.rules:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self.rules[rule.name] = rule
        return rule

    def select(self, names: Iterable[str] | None) -> list[Rule]:
        """The rules to run; ``names=None`` means all, unknown names raise."""
        if names is None:
            return list(self.rules.values())
        chosen = []
        for n in names:
            if n not in self.rules:
                raise KeyError(f"unknown rule {n!r} (have: {', '.join(sorted(self.rules))})")
            chosen.append(self.rules[n])
        return chosen


def default_registry() -> RuleRegistry:
    """The built-in rule catalogue (imported lazily to avoid cycles)."""
    from . import rules as _rules

    return _rules.build_registry()


def parse_source(source: str, path: str | Path) -> FileContext | Diagnostic:
    """Parse one file into a :class:`FileContext`, or a ``syntax-error``."""
    posix_path = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Diagnostic(
            posix_path,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            "syntax-error",
            f"cannot parse: {exc.msg}",
        )
    return FileContext(posix_path, source, tree)


def check_file(ctx: FileContext, rules: Iterable[Rule]) -> list[Diagnostic]:
    """Run ``rules`` that apply to ``ctx``; suppressed findings are dropped."""
    return [
        diag
        for rule in rules
        if rule.applies_to(ctx.path)
        for diag in rule.check(ctx)
        if not ctx.is_suppressed(diag.line, diag.rule)
    ]


def lint_source(
    source: str,
    path: str = "<string>",
    registry: RuleRegistry | None = None,
    select: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the per-file rules over one source string; sorted findings.

    A per-file run cannot tell a stale suppression from one naming a
    whole-program rule, so it reports none; the driver does.
    """
    registry = registry if registry is not None else default_registry()
    parsed = parse_source(source, path)
    if isinstance(parsed, Diagnostic):
        return [parsed]
    return sorted(check_file(parsed, registry.select(select)), key=lambda d: d.sort_key)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if not any(part.startswith(".") for part in f.parts)
            )
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Sequence[str | Path],
    registry: RuleRegistry | None = None,
    select: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint files and directory trees; returns all findings, sorted."""
    registry = registry if registry is not None else default_registry()
    found: list[Diagnostic] = []
    for f in iter_python_files(paths):
        source = f.read_text(encoding="utf-8")
        found.extend(lint_source(source, str(f), registry=registry, select=select))
    found.sort(key=lambda d: d.sort_key)
    return found
