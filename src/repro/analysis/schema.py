"""SCHEMA-RUN-KEY: the run-key payload matches its versioned manifest.

Run keys are the content addresses of every stored result; a payload
field added without a ``RUN_KEY_SCHEMA`` bump silently aliases new
configs onto old stored results (resume skips runs it never did), and
a bump without a payload change orphans every existing store for
nothing. PR 3 bumped the schema for ``faults``; PR 5 deliberately did
*not* bump it for ``interval`` (dropped from the payload), and 2.0
removed the legacy fault bool from the dataclass while
``config_to_dict`` still adds its key. All three decisions are
recorded in
:data:`repro.analysis.contracts.RUN_KEY_MANIFEST`, and this rule keeps
``repro/core/configs.py`` and the manifest agreeing — in both
directions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .contracts import RUN_KEY_MANIFEST
from .findings import Finding
from .rules import LintRule, Module, Project, register_rule


def _schema_assignment(module: Module) -> ast.Assign | None:
    for node in module.tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "RUN_KEY_SCHEMA"):
            return node
    return None


def _dataclass_fields(class_def: ast.ClassDef) -> tuple[str, ...]:
    """Annotated field names of a dataclass body, in order."""
    names = []
    for node in class_def.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return tuple(names)


def _dropped_fields(function: ast.FunctionDef) -> tuple[str, ...]:
    """Fields ``config_to_dict`` removes before hashing: literal
    ``del data["x"]`` statements and ``data.pop("x")`` calls."""
    dropped = []
    for node in ast.walk(function):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    dropped.append(target.slice.value)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "pop" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            dropped.append(node.args[0].value)
    return tuple(dropped)


def _added_fields(function: ast.FunctionDef) -> tuple[str, ...]:
    """Keys ``config_to_dict`` writes into the payload: literal
    ``data["x"] = ...`` assignments (a key that is also a dataclass
    field only re-encodes it)."""
    added = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    added.append(target.slice.value)
    return tuple(added)


def _payload_keys(function: ast.FunctionDef) -> tuple[str, ...]:
    """String keys of the first dict literal assigned to ``payload``."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "payload"
                and isinstance(node.value, ast.Dict)):
            keys = []
            for key in node.value.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.append(key.value)
            return tuple(keys)
    return ()


@register_rule
class RunKeySchemaRule(LintRule):
    """SCHEMA-RUN-KEY: configs.py vs. the versioned payload manifest."""

    rule_id = "SCHEMA-RUN-KEY"
    rationale = ("every run-key payload shape is recorded per "
                 "RUN_KEY_SCHEMA version in repro/analysis/contracts.py"
                 "; adding a config field without bumping the schema "
                 "(stale stores would alias new configs onto old "
                 "results), or bumping without a payload change "
                 "(orphaning every store for nothing), fails the lint")

    def check_project(self, project: Project) -> Iterator[Finding]:
        module = project.find("core/configs.py")
        if module is None:
            return
        yield from self.check_configs(module)

    def check_configs(self, module: Module) -> Iterator[Finding]:
        assignment = _schema_assignment(module)
        if assignment is None \
                or not isinstance(assignment.value, ast.Constant) \
                or not isinstance(assignment.value.value, int):
            yield self.finding_at(
                module, 1,
                "RUN_KEY_SCHEMA must be a literal int assignment in "
                "core/configs.py")
            return
        schema = assignment.value.value
        latest = max(RUN_KEY_MANIFEST)
        if schema != latest:
            yield self.finding(
                module, assignment,
                "RUN_KEY_SCHEMA is %d but the payload manifest's "
                "latest version is %d; a schema bump and its manifest "
                "entry must land in the same change" % (schema, latest))
            return

        functions = {node.name: node for node in module.tree.body
                     if isinstance(node, ast.FunctionDef)}
        classes = module.class_defs()
        expected = RUN_KEY_MANIFEST[schema]

        config_class = classes.get("ExperimentConfig")
        to_dict = functions.get("config_to_dict")
        run_key = functions.get("run_key")
        if config_class is None or to_dict is None or run_key is None:
            yield self.finding_at(
                module, 1,
                "core/configs.py must define ExperimentConfig, "
                "config_to_dict and run_key for the schema check")
            return

        declared = _dataclass_fields(config_class)
        dropped = _dropped_fields(to_dict)
        effective = {name for name in declared if name not in dropped}
        effective.update(_added_fields(to_dict))
        if effective != set(expected["config"]):
            added = sorted(set(effective) - set(expected["config"]))
            removed = sorted(set(expected["config"]) - set(effective))
            detail = []
            if added:
                detail.append("new payload field(s) %s" % added)
            if removed:
                detail.append("missing payload field(s) %s" % removed)
            yield self.finding(
                module, config_class,
                "run-key payload fields changed without a schema bump: "
                "%s (schema still %d). Bump RUN_KEY_SCHEMA and add a "
                "manifest entry, or drop the field from config_to_dict "
                "like 'interval'" % ("; ".join(detail), schema))

        top = _payload_keys(run_key)
        if set(top) != set(expected["top"]):
            yield self.finding(
                module, run_key,
                "run_key payload keys %s diverged from the manifest's "
                "%s" % (sorted(top), sorted(expected["top"])))

        previous = schema - 1
        if previous in RUN_KEY_MANIFEST and \
                RUN_KEY_MANIFEST[previous] == expected:
            yield self.finding(
                module, assignment,
                "schema %d is byte-identical to schema %d in the "
                "manifest: the bump invalidated every store without a "
                "payload change" % (schema, previous))
