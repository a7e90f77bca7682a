"""Contract-drift analysis (rule ids ``DRIFT-NNN``).

The repo keeps several contracts in two or three places at once, by
design (the schema document *and* the zero-dependency validator; the
config dataclass *and* the CLI flags that populate it).  Handwritten
lockstep tests guarded some of these; this pass derives each side
statically from the AST and compares, so adding a field or key to one
side without the other fails CI with a rule id instead of a prose
assertion.

Rules
-----
* ``DRIFT-001`` — span/stage keys in ``TRACE_SCHEMA`` vs. the
  validator's ``_SPAN_KEYS``.
* ``DRIFT-002`` — top-level required/optional keys in ``TRACE_SCHEMA``
  vs. the validator's inline sets.
* ``DRIFT-003`` — ``trace-report`` subscripts a key the schema does not
  declare.
* ``DRIFT-004`` — config dataclass fields vs. ``describe()`` keys.
* ``DRIFT-005`` — CLI reads ``args.<dest>`` that no ``add_argument``
  defines.
* ``DRIFT-006`` — join registry entry declares an unknown index kind,
  an unbound runner, or a duplicate name.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import Diagnostic
from ..model import ModuleInfo, ProjectModel

__all__ = ["RULES", "run"]

RULES = {
    "DRIFT-001": "TRACE_SCHEMA span/stage keys drifted from the validator's key sets",
    "DRIFT-002": "TRACE_SCHEMA top-level keys drifted from the validator's key sets",
    "DRIFT-003": "trace-report reads a key TRACE_SCHEMA does not declare",
    "DRIFT-004": "config dataclass fields drifted from describe()",
    "DRIFT-005": "CLI reads an args attribute no add_argument defines",
    "DRIFT-006": "join registry entry is inconsistent (index kind, runner, or name)",
}

_STAGE_KEYS = {"calls", "time_s", "counters"}


# -- small AST extractors ----------------------------------------------------


def _assigned_value(tree: ast.AST, name: str) -> ast.expr | None:
    """The value node of the (last) ``name = ...`` assignment in ``tree``."""
    found: ast.expr | None = None
    if isinstance(tree, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
        body: list[ast.stmt] = tree.body
    else:
        body = []
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == name:
                    found = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name and stmt.value:
                found = stmt.value
    return found


def _dict_get(node: ast.expr | None, key: str) -> ast.expr | None:
    """Value node for a constant ``key`` in a dict literal."""
    if not isinstance(node, ast.Dict):
        return None
    for k, v in zip(node.keys, node.values):
        if isinstance(k, ast.Constant) and k.value == key:
            return v
    return None


def _const_strings(node: ast.expr | None) -> set[str] | None:
    """The string constants of a list/tuple/set literal (or wrapped
    ``frozenset({...})`` / ``set([...])`` call)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"frozenset", "set"} and len(node.args) == 1:
            node = node.args[0]
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return None
    out: set[str] = set()
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.add(elt.value)
    return out


def _dict_keys(node: ast.expr | None) -> set[str] | None:
    if not isinstance(node, ast.Dict):
        return None
    out: set[str] = set()
    for k in node.keys:
        if not (isinstance(k, ast.Constant) and isinstance(k.value, str)):
            return None
        out.add(k.value)
    return out


def _function_def(tree: ast.AST, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _class_def(mod: ModuleInfo, name: str) -> ast.ClassDef | None:
    cls = mod.classes.get(name)
    return cls.node if cls is not None else None


def _diff_msg(what: str, left_name: str, left: set[str], right_name: str, right: set[str]) -> str:
    only_left = sorted(left - right)
    only_right = sorted(right - left)
    parts = []
    if only_left:
        parts.append(f"only in {left_name}: {only_left}")
    if only_right:
        parts.append(f"only in {right_name}: {only_right}")
    return f"{what} drifted — " + "; ".join(parts)


# -- schema vs validator (DRIFT-001/002) -------------------------------------


def _schema_sets(mod: ModuleInfo) -> dict[str, set[str] | None]:
    schema = _assigned_value(mod.tree, "TRACE_SCHEMA")
    definitions = _dict_get(schema, "definitions")
    span = _dict_get(definitions, "span")
    stage = _dict_get(definitions, "stage")
    validate = _function_def(mod.tree, "validate_trace")
    return {
        "top_required": _const_strings(_dict_get(schema, "required")),
        "top_properties": _dict_keys(_dict_get(schema, "properties")),
        "span_required": _const_strings(_dict_get(span, "required")),
        "span_properties": _dict_keys(_dict_get(span, "properties")),
        "stage_required": _const_strings(_dict_get(stage, "required")),
        "span_keys": _const_strings(_assigned_value(mod.tree, "_SPAN_KEYS")),
        "optional_keys": _const_strings(_assigned_value(mod.tree, "_OPTIONAL_KEYS")),
        "validator_required": (
            _const_strings(_assigned_value(validate, "required")) if validate else None
        ),
    }


def _line_of(mod: ModuleInfo, name: str) -> int:
    node = _assigned_value(mod.tree, name)
    return node.lineno if node is not None else 1


def _check_schema(model: ProjectModel) -> Iterator[Diagnostic]:
    mod = model.modules.get(f"{model.package}.obs.schema")
    if mod is None:
        return
    s = _schema_sets(mod)
    span_schema = s["span_required"]
    span_keys = s["span_keys"]
    if span_schema is not None and span_keys is not None and span_schema != span_keys:
        yield Diagnostic(
            mod.display_path, _line_of(mod, "_SPAN_KEYS"), 0, "DRIFT-001",
            _diff_msg("span keys", "TRACE_SCHEMA", span_schema, "_SPAN_KEYS", span_keys),
        )
    span_props = s["span_properties"]
    if span_schema is not None and span_props is not None and span_schema != span_props:
        yield Diagnostic(
            mod.display_path, _line_of(mod, "TRACE_SCHEMA"), 0, "DRIFT-001",
            _diff_msg(
                "span required vs properties", "required", span_schema, "properties", span_props
            ),
        )
    top_schema = s["top_required"]
    validator_req = s["validator_required"]
    if top_schema is not None and validator_req is not None and top_schema != validator_req:
        yield Diagnostic(
            mod.display_path, _line_of(mod, "TRACE_SCHEMA"), 0, "DRIFT-002",
            _diff_msg(
                "top-level required keys",
                "TRACE_SCHEMA", top_schema,
                "validate_trace", validator_req,
            ),
        )
    top_props = s["top_properties"]
    optional = s["optional_keys"]
    if top_schema is not None and top_props is not None and optional is not None:
        schema_optional = top_props - top_schema
        if schema_optional != optional:
            yield Diagnostic(
                mod.display_path, _line_of(mod, "_OPTIONAL_KEYS"), 0, "DRIFT-002",
                _diff_msg(
                    "optional top-level keys",
                    "TRACE_SCHEMA", schema_optional,
                    "_OPTIONAL_KEYS", optional,
                ),
            )


def _check_report(model: ProjectModel) -> Iterator[Diagnostic]:
    report = model.modules.get(f"{model.package}.obs.report")
    schema_mod = model.modules.get(f"{model.package}.obs.schema")
    if report is None or schema_mod is None:
        return
    s = _schema_sets(schema_mod)
    allowed: set[str] = set(_STAGE_KEYS)
    for key in ("top_properties", "span_keys", "stage_required"):
        keys = s[key]
        if keys is not None:
            allowed |= keys
    if not allowed:
        return
    for node in ast.walk(report.tree):
        if not isinstance(node, ast.Subscript):
            continue
        sl = node.slice
        if not (isinstance(sl, ast.Constant) and isinstance(sl.value, str)):
            continue
        if not isinstance(node.value, ast.Name):
            continue
        if sl.value not in allowed:
            yield Diagnostic(
                report.display_path, node.lineno, node.col_offset, "DRIFT-003",
                f"trace-report reads key {sl.value!r}, which TRACE_SCHEMA does not declare",
            )


# -- config dataclasses (DRIFT-004) ------------------------------------------


def _dataclass_init_fields(cls_node: ast.ClassDef) -> set[str]:
    """Init-participating field names of a dataclass body."""
    out: set[str] = set()
    for stmt in cls_node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call):
            func = value.func
            fname = func.id if isinstance(func, ast.Name) else None
            if fname == "field":
                if any(
                    kw.arg == "init"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in value.keywords
                ):
                    continue
        out.add(stmt.target.id)
    return out


def _describe_keys(cls_node: ast.ClassDef) -> tuple[set[str] | None, int]:
    describe = None
    for stmt in cls_node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "describe":
            describe = stmt
    if describe is None:
        return None, cls_node.lineno
    for sub in ast.walk(describe):
        if isinstance(sub, ast.Return):
            keys = _dict_keys(sub.value)
            if keys is not None:
                return keys, describe.lineno
    return None, describe.lineno


def _check_config_class(
    mod: ModuleInfo, class_name: str, non_described: set[str]
) -> Iterator[Diagnostic]:
    cls_node = _class_def(mod, class_name)
    if cls_node is None:
        return
    fields = _dataclass_init_fields(cls_node)
    described, line = _describe_keys(cls_node)
    expected = fields - non_described
    if described is not None and described != expected:
        yield Diagnostic(
            mod.display_path, line, 0, "DRIFT-004",
            _diff_msg(
                f"{class_name}.describe() keys",
                "describe()", described,
                "init fields (minus " + ", ".join(sorted(non_described)) + ")", expected,
            ),
        )


def _check_configs(model: ProjectModel) -> Iterator[Diagnostic]:
    cfg_mod = model.modules.get(f"{model.package}.config")
    if cfg_mod is not None:
        yield from _check_config_class(cfg_mod, "JoinConfig", {"trace"})
    svc_mod = model.modules.get(f"{model.package}.service.config")
    if svc_mod is not None:
        yield from _check_config_class(svc_mod, "ServiceConfig", {"trace"})


# -- CLI flags (DRIFT-005) ---------------------------------------------------


def _argparse_dests(tree: ast.Module) -> set[str]:
    """Every destination ``argparse`` will set on the namespace."""
    dests: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method == "add_argument":
            explicit = next(
                (
                    kw.value.value
                    for kw in node.keywords
                    if kw.arg == "dest"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ),
                None,
            )
            if explicit is not None:
                dests.add(explicit)
                continue
            options = [
                a.value
                for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            if not options:
                continue
            longs = [o for o in options if o.startswith("--")]
            chosen = longs[0] if longs else options[0]
            dests.add(chosen.lstrip("-").replace("-", "_"))
        elif method == "set_defaults":
            for kw in node.keywords:
                if kw.arg is not None:
                    dests.add(kw.arg)
        elif method == "add_subparsers":
            for kw in node.keywords:
                if (
                    kw.arg == "dest"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    dests.add(kw.value.value)
    return dests


def _check_cli(model: ProjectModel) -> Iterator[Diagnostic]:
    cli = model.modules.get(f"{model.package}.cli")
    if cli is None:
        return
    dests = _argparse_dests(cli.tree)
    if not dests:
        return
    for node in ast.walk(cli.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
            continue
        if node.attr not in dests:
            yield Diagnostic(
                cli.display_path, node.lineno, node.col_offset, "DRIFT-005",
                f"CLI reads args.{node.attr}, but no add_argument/set_defaults "
                f"defines destination {node.attr!r}",
            )


# -- join registry (DRIFT-006) -----------------------------------------------


def _check_registry(model: ProjectModel) -> Iterator[Diagnostic]:
    reg_mod = model.modules.get(f"{model.package}.join.registry")
    cfg_mod = model.modules.get(f"{model.package}.config")
    if reg_mod is None:
        return
    kinds: set[str] = set()
    if cfg_mod is not None:
        extracted = _const_strings(_assigned_value(cfg_mod.tree, "INDEX_KINDS"))
        if extracted is not None:
            kinds = extracted
    registry = _assigned_value(reg_mod.tree, "REGISTRY")
    entries: list[ast.Call] = []
    if registry is not None:
        for sub in ast.walk(registry):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "JoinMethod"
            ):
                entries.append(sub)
    seen_names: set[str] = set()
    module_names = set(reg_mod.functions) | set(reg_mod.imports) | set(reg_mod.classes)
    for call in entries:
        args = call.args
        by_pos = {i: a for i, a in enumerate(args)}
        by_kw = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        name_node = by_pos.get(0, by_kw.get("name"))
        kind_node = by_pos.get(2, by_kw.get("index_kind"))
        run_node = by_pos.get(5, by_kw.get("run"))
        if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
            if name_node.value in seen_names:
                yield Diagnostic(
                    reg_mod.display_path, call.lineno, call.col_offset, "DRIFT-006",
                    f"duplicate registry method name {name_node.value!r}",
                )
            seen_names.add(name_node.value)
        if kinds and isinstance(kind_node, ast.Constant):
            kind = kind_node.value
            if kind is not None and kind not in kinds:
                yield Diagnostic(
                    reg_mod.display_path, call.lineno, call.col_offset, "DRIFT-006",
                    f"registry entry declares index kind {kind!r}, "
                    f"not one of INDEX_KINDS {sorted(kinds)}",
                )
        if isinstance(run_node, ast.Name) and run_node.id not in module_names:
            yield Diagnostic(
                reg_mod.display_path, call.lineno, call.col_offset, "DRIFT-006",
                f"registry entry binds runner {run_node.id!r}, "
                f"which is not defined or imported in the module",
            )


def run(model: ProjectModel) -> list[Diagnostic]:
    """Run the contract-drift pass over ``model``."""
    out: list[Diagnostic] = []
    out.extend(_check_schema(model))
    out.extend(_check_report(model))
    out.extend(_check_configs(model))
    out.extend(_check_cli(model))
    out.extend(_check_registry(model))
    return out
