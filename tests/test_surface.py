"""The package's public surface is product code.

Every public top-level function or class in ``src/threadwalk`` must be
referenced from the package itself (outside its own definition) or from
the benchmark harness in ``perfbench/``. Helpers that only tests need
live in ``tests/conftest.py``. A :class:`RunConfig` is the one source of
the settings it holds: nothing that takes one also takes one of its
fields beside it.
"""

import ast
import dataclasses
import re
from pathlib import Path

from threadwalk.pipeline import RunConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threadwalk"


def _public_definitions(module: ast.Module) -> list[ast.stmt]:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return [n for n in module.body if isinstance(n, kinds) and not n.name.startswith("_")]


def _referenced_names(module: ast.Module, skip: ast.stmt | None) -> set[str]:
    """Names read, attributes accessed and names imported in ``module``,
    outside the statement ``skip``."""
    skipped = set(ast.walk(skip)) if skip is not None else set()
    names = set()
    for node in ast.walk(module):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_is_reached():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    perfbench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    names_in = {stem: _referenced_names(module, None) for stem, module in modules.items()}
    unreached = []
    for stem, module in modules.items():
        for definition in _public_definitions(module):
            name = definition.name
            in_package = name in _referenced_names(module, definition) or any(
                name in names for other, names in names_in.items() if other != stem
            )
            in_perfbench = re.search(rf"\b{name}\b", perfbench) is not None
            if not (in_package or in_perfbench):
                unreached.append(f"{stem}.{name}")
    assert unreached == [], f"public definitions nothing in src/ or perfbench/ reaches: {unreached}"


def _run_config_overrides(module: ast.Module) -> list[str]:
    """Parameters named after a RunConfig field, of the methods of
    RunConfig and of the functions with a parameter annotated RunConfig."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    methods = [n for c in module.body if getattr(c, "name", "") == "RunConfig" for n in c.body]
    found = []
    for node in ast.walk(module):
        if not isinstance(node, ast.FunctionDef):
            continue
        params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        annotations = [ast.unparse(a.annotation) for a in params if a.annotation is not None]
        if node in methods or any(re.search(r"\bRunConfig\b", a) for a in annotations):
            found += [f"{node.name}({a.arg})" for a in params if a.arg in fields]
    return found


def test_no_parameter_overrides_a_run_config_field():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _run_config_overrides(ast.parse(path.read_text()))
    ]
    assert found == [], f"parameters that override a RunConfig field: {found}"
