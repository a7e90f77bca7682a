"""Tests for the ``python -m repro analyze`` command-line entry point."""

import json
import textwrap

import pytest

from repro.cli import main as repro_main

CLEAN = "x = 1\n"
DIRTY = "import numpy as np\npts = np.random.rand(10, 2)\n"


def _tree(tmp_path, name, source):
    """A directory holding one module (a package when it has an init)."""
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(textwrap.dedent(source))
    return root


def _analyze(tmp_path, *args, root=None):
    root = root if root is not None else _tree(tmp_path, "pkg", CLEAN)
    return repro_main([
        "analyze", "--root", str(root),
        "--baseline", str(tmp_path / "baseline.json"), *args,
    ])


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    extra = _tree(tmp_path, "scripts", CLEAN)
    assert _analyze(tmp_path, str(extra)) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_findings(tmp_path, capsys):
    extra = _tree(tmp_path, "scripts", DIRTY)
    assert _analyze(tmp_path, str(extra)) == 1
    captured = capsys.readouterr()
    assert "[nondeterminism]" in captured.out
    assert "scripts/mod.py:2:" in captured.out
    assert "1 new finding" in captured.err


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert _analyze(tmp_path, str(tmp_path / "no-such-dir")) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_exit_two_on_unknown_format(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _analyze(tmp_path, "--format", "xml")
    assert exc.value.code == 2


def test_package_checked_without_paths(tmp_path, capsys):
    # No PATH: the per-file rules still run over the package itself.
    root = _tree(tmp_path, "pkg", DIRTY)
    assert _analyze(tmp_path, root=root) == 1
    assert "pkg/mod.py:2:" in capsys.readouterr().out


def test_format_json(tmp_path, capsys):
    extra = _tree(tmp_path, "scripts", DIRTY)
    assert _analyze(tmp_path, "--format", "json", str(extra)) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "repro.analyze"
    (finding,) = doc["findings"]
    assert finding["rule"] == "nondeterminism"
    assert finding["line"] == 2
    assert finding["path"].endswith("scripts/mod.py")
    assert {"nondeterminism", "RACE-001"} <= set(doc["rules"])


def test_format_sarif(tmp_path, capsys):
    extra = _tree(tmp_path, "scripts", DIRTY)
    assert _analyze(tmp_path, "--format", "sarif", str(extra)) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro.analyze"
    (result,) = run["results"]
    assert result["ruleId"] == "nondeterminism"
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 2
    declared = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert {"nondeterminism", "RACE-001"} <= set(declared)
    assert declared[result["ruleIndex"]] == "nondeterminism"


def test_out_file(tmp_path, capsys):
    extra = _tree(tmp_path, "scripts", DIRTY)
    report = tmp_path / "report.json"
    assert _analyze(tmp_path, "--format", "json", "--out", str(report), str(extra)) == 1
    assert capsys.readouterr().out == ""
    doc = json.loads(report.read_text())
    assert doc["findings"][0]["rule"] == "nondeterminism"


def test_list_rules(capsys):
    assert repro_main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "sqrt-discipline",
        "counter-discipline",
        "buffer-pool-bypass",
        "nondeterminism",
        "mutable-default-arg",
        "bare-except",
        "nxndist-arg-order",
        "RACE-001",
        "PURE-001",
        "DRIFT-001",
        "FORK-001",
    ):
        assert name in out


RACY = """
    import threading

    class Service:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._count = 0  # guarded-by: _lock

        def bad(self) -> None:
            self._count = 0
"""


def _racy_pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "service.py").write_text(textwrap.dedent(RACY))
    return root


def test_one_run_reports_both_rule_families(tmp_path):
    # A per-file finding in a PATH outside the package and a RACE-001
    # finding in the package land in one SARIF run.
    root = _racy_pkg(tmp_path)
    extra = _tree(tmp_path, "scripts", DIRTY)
    out_file = tmp_path / "analyze.sarif"
    code = _analyze(tmp_path, "--format", "sarif", "--out", str(out_file), str(extra),
                    root=root)
    assert code == 1
    (run,) = json.loads(out_file.read_text())["runs"]
    found = {
        (r["ruleId"], r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"])
        for r in run["results"]
    }
    assert found == {
        ("RACE-001", "pkg/service.py"),
        ("nondeterminism", f"{extra.as_posix()}/mod.py"),
    }


def test_package_file_reached_through_a_path_is_reported_once(tmp_path, capsys):
    root = _tree(tmp_path, "pkg", DIRTY)
    assert _analyze(tmp_path, str(root), str(root / "mod.py"), root=root) == 1
    out = capsys.readouterr().out
    assert out.count("[nondeterminism]") == 1
    assert "pkg/mod.py:2:" in out


def test_unmatched_cross_family_suppression_is_reported(tmp_path, capsys):
    root = _tree(tmp_path, "pkg", "x = 1  # repro-lint: disable=RACE-001,bare-except\n")
    assert _analyze(tmp_path, root=root) == 1
    out = capsys.readouterr().out
    assert "pkg/mod.py:1:0: error [unused-suppression]" in out
    assert "(RACE-001, bare-except)" in out


class TestAnalyzeCommand:
    def test_list_rules(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RACE-001", "PURE-001", "DRIFT-001"):
            assert rule_id in out

    def test_new_finding_fails_the_gate(self, tmp_path, capsys):
        root = _racy_pkg(tmp_path)
        baseline = tmp_path / "baseline.json"
        code = repro_main(
            ["analyze", "--root", str(root), "--baseline", str(baseline)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "[RACE-001]" in captured.out
        assert "1 new finding" in captured.err

    def test_write_baseline_then_clean_then_stale(self, tmp_path, capsys):
        root = _racy_pkg(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = ["analyze", "--root", str(root), "--baseline", str(baseline)]
        assert repro_main(args + ["--write-baseline"]) == 0
        # The grandfathered finding no longer fails the gate...
        assert repro_main(args) == 0
        # ...until it is fixed, at which point the entry is stale.
        (root / "service.py").write_text(textwrap.dedent(RACY).replace(
            "self._count = 0\n", "with self._lock:\n            self._count = 0\n"
        ))
        capsys.readouterr()
        assert repro_main(args) == 1
        assert "stale baseline entry" in capsys.readouterr().err

    def test_sarif_output_to_file(self, tmp_path, capsys):
        root = _racy_pkg(tmp_path)
        out_file = tmp_path / "analyze.sarif"
        code = repro_main([
            "analyze", "--root", str(root),
            "--baseline", str(tmp_path / "baseline.json"),
            "--format", "sarif", "--out", str(out_file),
        ])
        assert code == 1
        assert capsys.readouterr().out == ""
        doc = json.loads(out_file.read_text())
        assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["RACE-001"]
