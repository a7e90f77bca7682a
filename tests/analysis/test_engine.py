"""Tests for the lint engine: suppressions, registry, diagnostics.

All fixture programs live in plain strings fed to ``lint_source`` so the
rules they deliberately violate never fire on this test file itself.
"""

import textwrap

from repro.analysis.analyzer import analyze_project
from repro.analysis.engine import (
    Diagnostic,
    Rule,
    RuleRegistry,
    Severity,
    default_registry,
    lint_paths,
    lint_source,
)


def _lint(code: str, **kwargs) -> list[Diagnostic]:
    return lint_source(textwrap.dedent(code), path="fixture.py", **kwargs)


def _analyze(code: str, tmp_path) -> list[Diagnostic]:
    """The whole driver (rules, passes, unused suppressions) on one module."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "fixture.py").write_text(textwrap.dedent(code))
    return analyze_project(root, display_base=tmp_path)


UNSEEDED = """
    import numpy as np
    x = np.random.random(10)
"""


class TestSuppressions:
    def test_same_line_suppression(self):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: ignore[nondeterminism]
        """
        assert _lint(code) == []

    def test_line_above_suppression(self):
        code = """
            import numpy as np
            # repro-lint: ignore[nondeterminism]
            x = np.random.random(10)
        """
        assert _lint(code) == []

    def test_bare_ignore_suppresses_every_rule(self):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: ignore
        """
        assert _lint(code) == []

    def test_multi_rule_suppression(self):
        code = """
            import numpy as np

            def f(xs=[]):  # repro-lint: ignore[mutable-default-arg, nondeterminism]
                y = 1
                return y + np.random.random(10)
        """
        findings = _lint(code)
        # The comment reaches its own line and the next one only, so the
        # default-arg finding is gone but the call two lines down survives.
        assert [d.rule for d in findings] == ["nondeterminism"]

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: ignore[bare-except]
        """
        # The finding survives, and the pointless suppression is itself
        # flagged as stale.
        findings = _analyze(code, tmp_path)
        assert [d.rule for d in findings] == ["unused-suppression", "nondeterminism"]

    def test_suppression_inside_string_is_inert(self):
        code = '''
            import numpy as np
            note = "# repro-lint: ignore[nondeterminism]"
            x = np.random.random(10)
        '''
        assert [d.rule for d in _lint(code)] == ["nondeterminism"]

    def test_unsuppressed_fixture_fires(self):
        assert [d.rule for d in _lint(UNSEEDED)] == ["nondeterminism"]

    def test_disable_form_suppresses(self):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: disable=nondeterminism
        """
        assert _lint(code) == []

    def test_disable_form_multi_rule(self):
        code = """
            import numpy as np

            def f(xs=[]):  # repro-lint: disable=mutable-default-arg,nondeterminism
                return xs + [np.random.random(10)]
        """
        assert _lint(code) == []

    def test_bare_disable_suppresses_every_rule(self):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: disable
        """
        assert _lint(code) == []


class TestUnusedSuppressions:
    def test_stale_suppression_is_flagged(self, tmp_path):
        code = """
            x = 1  # repro-lint: ignore[nondeterminism]
        """
        findings = _analyze(code, tmp_path)
        assert [d.rule for d in findings] == ["unused-suppression"]
        assert "nondeterminism" in findings[0].message

    def test_stale_bare_suppression_is_flagged(self, tmp_path):
        code = """
            x = 1  # repro-lint: ignore
        """
        findings = _analyze(code, tmp_path)
        assert [d.rule for d in findings] == ["unused-suppression"]
        assert "bare" in findings[0].message

    def test_used_suppression_is_not_flagged(self, tmp_path):
        code = """
            import numpy as np
            x = np.random.random(10)  # repro-lint: ignore[nondeterminism]
        """
        assert _analyze(code, tmp_path) == []

    def test_unknown_rule_name_left_for_other_tool(self):
        # A per-file run cannot know whether a whole-program pass would
        # have used RACE-001, so lint_source polices no suppression;
        # the driver does (TestUnusedSuppressions' other tests).
        code = """
            x = 1  # repro-lint: disable=RACE-001
        """
        assert _lint(code) == []

    def test_self_silencing(self, tmp_path):
        code = """
            x = 1  # repro-lint: ignore[nondeterminism, unused-suppression]
        """
        assert _analyze(code, tmp_path) == []

    def test_not_reported_under_select(self):
        code = """
            x = 1  # repro-lint: ignore[nondeterminism]
        """
        assert _lint(code, select=["bare-except"]) == []


class TestRegistry:
    def test_default_registry_has_the_catalogue(self):
        names = set(default_registry().rules)
        assert {
            "sqrt-discipline",
            "counter-discipline",
            "buffer-pool-bypass",
            "nondeterminism",
            "mutable-default-arg",
            "bare-except",
            "nxndist-arg-order",
        } <= names

    def test_register_rejects_duplicates(self):
        class Dummy(Rule):
            name = "dummy"

        registry = RuleRegistry()
        registry.register(Dummy())
        try:
            registry.register(Dummy())
        except ValueError as exc:
            assert "duplicate" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_register_rejects_unnamed(self):
        registry = RuleRegistry()
        try:
            registry.register(Rule())
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_select_unknown_rule_raises(self):
        try:
            default_registry().select(["no-such-rule"])
        except KeyError as exc:
            assert "no-such-rule" in str(exc)
        else:
            raise AssertionError("expected KeyError")

    def test_select_filters_rules(self):
        findings = _lint(UNSEEDED, select=["bare-except"])
        assert findings == []
        findings = _lint(UNSEEDED, select=["nondeterminism"])
        assert [d.rule for d in findings] == ["nondeterminism"]


class TestDiagnostics:
    def test_format_shape(self):
        diag = Diagnostic("pkg/mod.py", 12, 4, "some-rule", "msg", Severity.ERROR)
        assert diag.format() == "pkg/mod.py:12:4: error [some-rule] msg"

    def test_findings_are_sorted(self):
        code = """
            import numpy as np

            def f(xs=[]):
                try:
                    return np.random.random(10)
                except:
                    return xs
        """
        findings = _lint(code)
        assert findings == sorted(findings, key=lambda d: d.sort_key)
        assert [d.line for d in findings] == sorted(d.line for d in findings)
        assert {d.rule for d in findings} == {
            "mutable-default-arg",
            "nondeterminism",
            "bare-except",
        }

    def test_syntax_error_becomes_diagnostic(self):
        findings = _lint("def f(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"


class TestAliasResolution:
    def test_import_as_alias_is_resolved(self):
        code = """
            import numpy.random as nr
            x = nr.random(10)
        """
        assert [d.rule for d in _lint(code)] == ["nondeterminism"]

    def test_from_import_alias_is_resolved(self):
        code = """
            from numpy.random import random as draw
            x = draw(10)
        """
        # 'from numpy.random import random' resolves to numpy.random.random.
        assert [d.rule for d in _lint(code)] == ["nondeterminism"]

    def test_unrelated_name_not_confused(self):
        code = """
            class MyThing:
                def random(self):
                    return 4

            x = MyThing().random()
        """
        assert _lint(code) == []


class TestLintPaths:
    def test_directory_walk_and_dotdir_skip(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import numpy as np\nx = np.random.rand(3)\n")
        hidden = tmp_path / ".hidden"
        hidden.mkdir()
        (hidden / "skipped.py").write_text("import numpy as np\nnp.random.rand(3)\n")
        findings = lint_paths([tmp_path])
        assert [d.rule for d in findings] == ["nondeterminism"]
        assert findings[0].path.endswith("bad.py")
