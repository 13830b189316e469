"""The package's public surface is product code.

Every public top-level function or class in ``src/threadwalk`` must be
referenced from the package itself (outside its own definition) or from
the benchmark harness in ``perfbench/``. The same holds one level down:
every public method or property of a public class is read as an
attribute in ``src/`` outside its own definition (or named in
``perfbench/``), and every defaulted parameter of a public function is
passed by some call in ``src/`` or ``perfbench/``. Helpers that only
tests need live in ``tests/conftest.py``. A :class:`RunConfig` is the one
source of the settings it holds: nothing that takes one also takes one
of its fields beside it.
"""

import ast
import dataclasses
import re
from pathlib import Path

from threadwalk.pipeline import RunConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threadwalk"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
PERFBENCH = {path.stem: path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))}


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
    perfbench = "\n".join(PERFBENCH.values())
    names_in = {stem: _referenced_names(module, None) for stem, module in MODULES.items()}
    unreached = []
    for stem, module in MODULES.items():
        for definition in _public_definitions(module):
            name = definition.name
            in_package = name in _referenced_names(module, definition) or any(
                name in names for other, names in names_in.items() if other != stem
            )
            in_perfbench = re.search(rf"\b{name}\b", perfbench) is not None
            if not (in_package or in_perfbench):
                unreached.append(f"{stem}.{name}")
    assert unreached == [], f"public definitions nothing in src/ or perfbench/ reaches: {unreached}"


def test_every_public_member_is_read():
    attributes = [
        node for module in MODULES.values() for node in ast.walk(module)
        if isinstance(node, ast.Attribute)
    ]
    perfbench = "\n".join(PERFBENCH.values())
    unread = []
    for stem, module in MODULES.items():
        classes = [c for c in _public_definitions(module) if isinstance(c, ast.ClassDef)]
        for cls in classes:
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = set(ast.walk(member))
                read = any(a.attr == member.name and a not in own for a in attributes)
                if not (read or re.search(rf"\b{member.name}\b", perfbench)):
                    unread.append(f"{stem}.{cls.name}.{member.name}")
    assert unread == [], f"public members nothing in src/ or perfbench/ reads: {unread}"


def _defaulted(args: ast.arguments) -> list[tuple[int | None, str]]:
    """Each parameter with a default, as (position among the positional
    parameters or None if keyword-only, name)."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **mapping
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (len(call.args) > position or starred)


def test_every_defaulted_parameter_is_passed():
    sources = [*MODULES.values(), *(ast.parse(text) for text in PERFBENCH.values())]
    calls = [n for tree in sources for n in ast.walk(tree) if isinstance(n, ast.Call)]
    callees = [getattr(c.func, "id", None) or getattr(c.func, "attr", None) for c in calls]
    unpassed = []
    for stem, module in MODULES.items():
        functions = [f for f in _public_definitions(module) if isinstance(f, ast.FunctionDef)]
        for function in functions:
            callers = [c for c, name in zip(calls, callees) if name == function.name]
            unpassed += [
                f"{stem}.{function.name}({name})"
                for position, name in _defaulted(function.args)
                if not any(_passes(c, position, name) for c in callers)
            ]
    assert unpassed == [], f"defaulted parameters no call in src/ or perfbench/ passes: {unpassed}"


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
