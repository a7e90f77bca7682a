"""Seeded-violation fixtures for the cross-module analyzer passes.

Each fixture is a miniature package written to ``tmp_path`` that mirrors
the real tree's layout (``{pkg}.core.mba``, ``{pkg}.obs.schema``, …) so
the passes resolve the same roots and module names they use against
``src/repro``.  Every seeded violation must fail its pass with a stable
rule id; the matching clean fixture must stay silent.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.analyzer import ANALYZER_RULES, analyze_project
from repro.analysis.output import render


def _analyze(tmp_path: Path, files: dict[str, str]):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for sub in {p.parent for p in root.rglob("*.py")} | {root}:
        init = sub / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return analyze_project(root, display_base=tmp_path)


def _rules(diags) -> list[str]:
    return [d.rule for d in diags]


class TestRacePass:
    def test_unguarded_mutation_fires_race_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/service.py": """
                import threading

                class Service:
                    def __init__(self) -> None:
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                    def good(self) -> None:
                        with self._lock:
                            self._count += 1

                    def bad(self) -> None:
                        self._count = 0
            """,
        })
        assert _rules(diags) == ["RACE-001"]
        assert "_count" in diags[0].message
        assert diags[0].path == "pkg/service/service.py"

    def test_interprocedural_lock_proof_accepted(self, tmp_path):
        # _bump never takes the lock lexically, but its only caller does:
        # the call-graph proof must accept it.
        diags = _analyze(tmp_path, {
            "service/service.py": """
                import threading

                class Service:
                    def __init__(self) -> None:
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                    def good(self) -> None:
                        with self._lock:
                            self._bump()

                    def _bump(self) -> None:
                        self._count += 1
            """,
        })
        assert diags == []

    def test_lock_order_inversion_fires_race_002(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/pools.py": """
                import threading

                class Pools:
                    def __init__(self) -> None:
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self) -> None:
                        with self._a:
                            with self._b:
                                pass

                    def two(self) -> None:
                        with self._b:
                            with self._a:
                                pass
            """,
        })
        assert _rules(diags) == ["RACE-002"]

    def test_consistent_lock_order_is_fine(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/pools.py": """
                import threading

                class Pools:
                    def __init__(self) -> None:
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self) -> None:
                        with self._a:
                            with self._b:
                                pass

                    def two(self) -> None:
                        with self._a:
                            with self._b:
                                pass
            """,
        })
        assert diags == []

    def test_owner_confined_external_mutation_fires_race_003(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/queueing.py": """
                class Queue:
                    def __init__(self) -> None:
                        self._pending = []  # guarded-by: owner

                    def offer(self, item) -> None:
                        self._pending.append(item)
            """,
            "service/thief.py": """
                from .queueing import Queue

                class Thief:
                    def __init__(self) -> None:
                        self.queue = Queue()

                    def steal(self, item) -> None:
                        self.queue._pending.append(item)
            """,
        })
        assert _rules(diags) == ["RACE-003"]
        assert "_pending" in diags[0].message

    def test_unknown_lock_name_fires_race_004(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/service.py": """
                class Service:
                    def __init__(self) -> None:
                        self._count = 0  # guarded-by: _missing
            """,
        })
        assert _rules(diags) == ["RACE-004"]
        assert "_missing" in diags[0].message

    def test_suppression_silences_and_stale_suppression_flagged(self, tmp_path):
        diags = _analyze(tmp_path, {
            "service/service.py": """
                import threading

                class Service:
                    def __init__(self) -> None:
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                    def bad(self) -> None:
                        self._count = 0  # repro-lint: disable=RACE-001

                    def fine(self) -> None:
                        with self._lock:
                            self._count += 1  # repro-lint: disable=RACE-001
            """,
        })
        # The seeded violation is suppressed; the suppression on the
        # already-guarded mutation matched nothing and is itself flagged.
        assert _rules(diags) == ["unused-suppression"]


class TestPurityPass:
    def test_impure_kernel_fires_all_four_rules(self, tmp_path):
        diags = _analyze(tmp_path, {
            "core/mba.py": """
                import time

                import numpy as np

                _CALLS = 0

                def mba_join(a, b):
                    print("starting")
                    t0 = time.time()
                    global _CALLS
                    _CALLS = _CALLS + 1
                    out = []
                    for row in a:
                        buf = np.zeros(3)
                        out.append(_helper(row, buf))
                    return out, t0

                def _helper(row, buf):
                    return row
            """,
        })
        assert sorted(set(_rules(diags))) == [
            "PURE-001", "PURE-002", "PURE-003", "PURE-004",
        ]

    def test_violation_in_closure_helper_is_attributed(self, tmp_path):
        diags = _analyze(tmp_path, {
            "core/mba.py": """
                from .pruning import prune

                def mba_join(a, b):
                    return [prune(row) for row in a]
            """,
            "core/pruning.py": """
                import random

                def prune(row):
                    return random.random() < 0.5
            """,
        })
        # One run: the per-file nondeterminism rule flags the same call.
        assert _rules(diags) == ["PURE-003", "nondeterminism"]
        assert {d.path for d in diags} == {"pkg/core/pruning.py"}

    def test_clean_kernel_is_fine(self, tmp_path):
        diags = _analyze(tmp_path, {
            "core/mba.py": """
                import numpy as np

                def mba_join(a, b):
                    # Hoisted allocation and a view-only conversion: both fine.
                    acc = np.zeros(len(a))
                    for i, row in enumerate(a):
                        acc[i] = float(np.asarray(row).sum())
                    return acc
            """,
        })
        assert diags == []

    def test_obs_boundary_not_followed(self, tmp_path):
        # Tracing is the sanctioned effect boundary: the clock read inside
        # {pkg}.obs must not leak into the kernel closure.
        diags = _analyze(tmp_path, {
            "core/mba.py": """
                from ..obs.tracer import stamp

                def mba_join(a, b):
                    stamp()
                    return a
            """,
            "obs/tracer.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert diags == []


class TestContractsPass:
    def test_drifted_span_key_fires_drift_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "obs/schema.py": """
                TRACE_SCHEMA = {
                    "required": ["schema", "totals"],
                    "properties": {"schema": {}, "totals": {}},
                    "definitions": {
                        "span": {
                            "required": ["name", "t0_s"],
                            "properties": {"name": {}, "t0_s": {}},
                        },
                        "stage": {"required": ["calls", "time_s", "counters"]},
                    },
                }

                _SPAN_KEYS = frozenset({"name", "t0_s", "drifted"})

                def validate_trace(doc):
                    required = {"schema", "totals"}
                    return required <= set(doc)
            """,
        })
        assert _rules(diags) == ["DRIFT-001"]
        assert "drifted" in diags[0].message

    def test_validator_required_drift_fires_drift_002(self, tmp_path):
        diags = _analyze(tmp_path, {
            "obs/schema.py": """
                TRACE_SCHEMA = {
                    "required": ["schema", "totals"],
                    "properties": {"schema": {}, "totals": {}},
                    "definitions": {
                        "span": {
                            "required": ["name"],
                            "properties": {"name": {}},
                        },
                        "stage": {"required": ["calls", "time_s", "counters"]},
                    },
                }

                _SPAN_KEYS = frozenset({"name"})

                def validate_trace(doc):
                    required = {"schema"}
                    return required <= set(doc)
            """,
        })
        assert _rules(diags) == ["DRIFT-002"]

    def test_report_reading_undeclared_key_fires_drift_003(self, tmp_path):
        diags = _analyze(tmp_path, {
            "obs/schema.py": """
                TRACE_SCHEMA = {
                    "required": ["schema", "totals"],
                    "properties": {"schema": {}, "totals": {}},
                    "definitions": {
                        "span": {
                            "required": ["name"],
                            "properties": {"name": {}},
                        },
                        "stage": {"required": ["calls", "time_s", "counters"]},
                    },
                }

                _SPAN_KEYS = frozenset({"name"})

                def validate_trace(doc):
                    required = {"schema", "totals"}
                    return required <= set(doc)
            """,
            "obs/report.py": """
                def report(doc):
                    return doc["totals"], doc["bogus_key"]
            """,
        })
        assert _rules(diags) == ["DRIFT-003"]
        assert "bogus_key" in diags[0].message

    def test_config_describe_drift_fires_drift_004(self, tmp_path):
        diags = _analyze(tmp_path, {
            "config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class JoinConfig:
                    kind: str = "mbrqt"
                    k: int = 1
                    trace: object = None

                    def describe(self):
                        return {"kind": self.kind}
            """,
        })
        assert _rules(diags) == ["DRIFT-004"]
        assert "k" in diags[0].message

    def test_cli_reading_undefined_dest_fires_drift_005(self, tmp_path):
        diags = _analyze(tmp_path, {
            "cli.py": """
                import argparse

                def build_parser():
                    parser = argparse.ArgumentParser()
                    parser.add_argument("--alpha", type=int)
                    return parser

                def main(argv=None):
                    args = build_parser().parse_args(argv)
                    return args.alpha + args.beta
            """,
        })
        assert _rules(diags) == ["DRIFT-005"]
        assert "beta" in diags[0].message

    def test_registry_inconsistencies_fire_drift_006(self, tmp_path):
        diags = _analyze(tmp_path, {
            "config.py": """
                INDEX_KINDS = ("mbrqt", "rstar")
            """,
            "join/registry.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class JoinMethod:
                    name: str
                    summary: str
                    index_kind: str
                    batched: bool
                    exact: bool
                    run: object

                def _run_mba(workload):
                    return workload

                REGISTRY = {
                    m.name: m
                    for m in (
                        JoinMethod("mba", "ok", "mbrqt", True, True, _run_mba),
                        JoinMethod("mba", "dup", "flat", True, True, _run_missing),
                    )
                }
            """,
        })
        # Second entry: duplicate name, unknown index kind, unbound runner.
        assert _rules(diags) == ["DRIFT-006"] * 3

    def test_consistent_contracts_are_fine(self, tmp_path):
        diags = _analyze(tmp_path, {
            "config.py": """
                from dataclasses import dataclass

                INDEX_KINDS = ("mbrqt", "rstar")

                @dataclass(frozen=True)
                class JoinConfig:
                    kind: str = "mbrqt"
                    k: int = 1
                    trace: object = None

                    def describe(self):
                        return {"kind": self.kind, "k": self.k}
            """,
            "join/registry.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class JoinMethod:
                    name: str
                    summary: str
                    index_kind: str
                    batched: bool
                    exact: bool
                    run: object

                def _run_mba(workload):
                    return workload

                REGISTRY = {
                    m.name: m
                    for m in (JoinMethod("mba", "ok", "mbrqt", True, True, _run_mba),)
                }
            """,
        })
        assert diags == []


class TestProcSpawnPass:
    def test_default_context_process_fires_fork_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "serve/replica.py": """
                import multiprocessing

                def boot(main):
                    proc = multiprocessing.Process(target=main)
                    proc.start()
                    return proc
            """,
        })
        assert _rules(diags) == ["FORK-001"]
        assert "Process" in diags[0].message

    def test_bare_get_context_fires_fork_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "parallel/executor.py": """
                from multiprocessing import get_context

                def pool():
                    return get_context().Pool(2)
            """,
        })
        assert _rules(diags) == ["FORK-001"]
        assert "no argument" in diags[0].message

    def test_fork_context_fires_fork_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "serve/cluster.py": """
                import multiprocessing as mp

                def ctx():
                    return mp.get_context("fork")
            """,
        })
        assert _rules(diags) == ["FORK-001"]
        assert "'fork'" in diags[0].message

    def test_executor_without_mp_context_fires_fork_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "parallel/executor.py": """
                from concurrent.futures import ProcessPoolExecutor

                def pool(n):
                    return ProcessPoolExecutor(max_workers=n)
            """,
        })
        assert _rules(diags) == ["FORK-001"]
        assert "mp_context" in diags[0].message

    def test_os_fork_fires_fork_001(self, tmp_path):
        diags = _analyze(tmp_path, {
            "serve/frontend.py": """
                import os

                def daemonize():
                    return os.fork()
            """,
        })
        assert _rules(diags) == ["FORK-001"]

    def test_spawn_context_is_clean(self, tmp_path):
        diags = _analyze(tmp_path, {
            "serve/replica.py": """
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                def boot(main):
                    ctx = multiprocessing.get_context("spawn")
                    parent, child = ctx.Pipe()
                    proc = ctx.Process(target=main, args=(child,))
                    proc.start()
                    return parent, proc

                def pool(n):
                    return ProcessPoolExecutor(
                        max_workers=n,
                        mp_context=multiprocessing.get_context("spawn"),
                    )
            """,
        })
        assert diags == []

    def test_outside_scoped_packages_is_exempt(self, tmp_path):
        # The discipline binds the multi-process packages only; a bench
        # script using default-context helpers is not in scope.
        diags = _analyze(tmp_path, {
            "bench/load.py": """
                import multiprocessing

                def boot(main):
                    return multiprocessing.Process(target=main)
            """,
        })
        assert diags == []

    def test_shared_memory_apis_not_flagged(self, tmp_path):
        diags = _analyze(tmp_path, {
            "serve/shared_cache.py": """
                from multiprocessing import shared_memory

                def segment(size):
                    return shared_memory.SharedMemory(create=True, size=size)
            """,
        })
        assert diags == []


class TestOutputFormats:
    """Acceptance: a seeded violation carries its stable rule id in both
    JSON and SARIF output."""

    FILES = {
        "service/service.py": """
            import threading

            class Service:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bad(self) -> None:
                    self._count = 0
        """,
    }

    def test_seeded_race_in_json(self, tmp_path):
        diags = _analyze(tmp_path, self.FILES)
        doc = json.loads(render("json", diags, tool="repro.analyze",
                                rule_summaries=ANALYZER_RULES))
        assert doc["tool"] == "repro.analyze"
        assert [f["rule"] for f in doc["findings"]] == ["RACE-001"]
        assert doc["findings"][0]["path"] == "pkg/service/service.py"
        assert doc["rules"]["RACE-001"] == ANALYZER_RULES["RACE-001"]

    def test_seeded_race_in_sarif(self, tmp_path):
        diags = _analyze(tmp_path, self.FILES)
        doc = json.loads(render("sarif", diags, tool="repro.analyze",
                                rule_summaries=ANALYZER_RULES))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        declared = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RACE-001" in declared
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["RACE-001"]
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "pkg/service/service.py"


class TestCleanTree:
    def test_composite_clean_fixture(self, tmp_path):
        diags = _analyze(tmp_path, {
            "core/mba.py": """
                import numpy as np

                def mba_join(a, b):
                    acc = np.zeros(len(a))
                    for i, row in enumerate(a):
                        acc[i] = float(np.asarray(row).sum())
                    return acc
            """,
            "service/service.py": """
                import threading

                class Service:
                    def __init__(self) -> None:
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                    def bump(self) -> None:
                        with self._lock:
                            self._count += 1
            """,
        })
        assert diags == []

    def test_real_tree_analyzes_clean(self):
        src = Path(__file__).resolve().parents[2] / "src"
        diags = analyze_project(src / "repro", display_base=src)
        assert diags == [], "\n" + "\n".join(d.format() for d in diags)
