"""The package's public surface is product code.

Every public top-level function or class in ``src/threadwalk`` must be
referenced from the package itself (outside its own definition) or from
the benchmark harness in ``perfbench/``. Helpers that only tests need
live in ``tests/conftest.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threadwalk"

# Documented library API that no command uses; its tests stay.
ALLOWED = {("corpus", "export_baf")}


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
            if not (in_package or in_perfbench or (stem, name) in ALLOWED):
                unreached.append(f"{stem}.{name}")
    assert unreached == [], f"public definitions nothing in src/ or perfbench/ reaches: {unreached}"
