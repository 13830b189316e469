"""The package's public surface is product code.

Every public top-level function or class in ``src/threadwalk`` must be
referenced from the package itself (outside its own definition) or named
in the code of the benchmark harness in ``perfbench/``. The same holds
one level down: every public method or property of a public class is
read as an attribute in ``src/`` outside its own definition (or named in
``perfbench/``), every field of a public dataclass or NamedTuple is read
in ``src/`` (or named in ``perfbench/``), and every defaulted parameter
of a public function is passed by some call in ``src/`` or
``perfbench/``. "Named in ``perfbench/``" means an identifier of its
code, not a word of its prose. Helpers that only tests need live in
``tests/conftest.py``. A :class:`RunConfig` is the one source of the
settings it holds: nothing that takes one also takes one of its fields
beside it, and no record of a module that ``pipeline.py`` imports
declares a field named like one of its settings. A model file is the one
source of the settings it was trained under: ``evaluate`` and
``error-analysis`` take no run option but ``--embedding-file``, and every
model ``train`` returns records every other setting. Only the command line
decides what files a command writes: outside ``cli.py``, a function that
writes a file is named only inside the definition of another. The one
exception is the cache an embedding table's parse leaves beside it.
"""

import ast
import dataclasses
import re
from pathlib import Path

from threadwalk.cli import build_parser
from threadwalk.pipeline import RunConfig, replicate, split_sides
from threadwalk.synthetic import CorpusSpec, generate

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threadwalk"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
PERFBENCH = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _identifiers(module: ast.Module) -> set[str]:
    """The identifiers the code of ``module`` names: names, attributes,
    imported names and aliases, parameters, keywords, and the identifier
    tokens of its strings other than docstrings (``tracer.TARGETS`` names
    the functions it wraps as strings)."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0].value for node in ast.walk(module)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update([*node.name.split("."), node.asname])
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node not in docstrings:
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


PERFBENCH_NAMES = set().union(*map(_identifiers, PERFBENCH))


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
    names_in = {stem: _referenced_names(module, None) for stem, module in MODULES.items()}
    unreached = []
    for stem, module in MODULES.items():
        for definition in _public_definitions(module):
            name = definition.name
            in_package = name in _referenced_names(module, definition) or any(
                name in names for other, names in names_in.items() if other != stem
            )
            if not (in_package or name in PERFBENCH_NAMES):
                unreached.append(f"{stem}.{name}")
    assert unreached == [], f"public definitions nothing in src/ or perfbench/ reaches: {unreached}"


def test_every_public_member_is_read():
    attributes = [
        node for module in MODULES.values() for node in ast.walk(module)
        if isinstance(node, ast.Attribute)
    ]
    unread = []
    for stem, module in MODULES.items():
        classes = [c for c in _public_definitions(module) if isinstance(c, ast.ClassDef)]
        for cls in classes:
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = set(ast.walk(member))
                read = any(a.attr == member.name and a not in own for a in attributes)
                if not (read or member.name in PERFBENCH_NAMES):
                    unread.append(f"{stem}.{cls.name}.{member.name}")
    assert unread == [], f"public members nothing in src/ or perfbench/ reads: {unread}"


def _name(node: ast.expr) -> str | None:
    """The name a Name or Attribute node ends in."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _record_kind(cls: ast.ClassDef) -> str | None:
    """Whether a class is a ``dataclass`` or a ``NamedTuple``; None if neither."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    kinds = {_name(m) for m in [*marks, *cls.bases]} & {"dataclass", "NamedTuple"}
    return kinds.pop() if kinds else None


def _getattr_names(module: ast.Module) -> set[str]:
    """The strings listed in tuples and lists of a module that calls
    ``getattr`` with a computed name, such as ``_GRID_COLUMNS``."""
    calls = [n for n in ast.walk(module) if isinstance(n, ast.Call)]
    if not any(
        _name(c.func) == "getattr" and len(c.args) > 1 and not isinstance(c.args[1], ast.Constant)
        for c in calls
    ):
        return set()
    listed = [e for n in ast.walk(module) if isinstance(n, (ast.Tuple, ast.List)) for e in n.elts]
    return {e.value for e in listed if isinstance(e, ast.Constant) and isinstance(e.value, str)}


def _unpacked_lengths(module: ast.Module) -> set[int]:
    """The lengths of the unstarred tuple targets of assignments and loops."""
    targets = [
        target
        for n in ast.walk(module)
        if isinstance(n, (ast.Assign, ast.For, ast.comprehension))
        for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
    ]
    return {
        len(t.elts)
        for t in targets
        if isinstance(t, (ast.Tuple, ast.List)) and not any(isinstance(e, ast.Starred) for e in t.elts)
    }


def test_every_public_field_is_read():
    """A field of a public dataclass or NamedTuple is read as an attribute,
    as a string in a getattr name list, by unpacking a NamedTuple into as
    many names as it has fields, or by ``dataclasses.asdict`` inside its
    own class."""
    modules = list(MODULES.values())
    read = {
        n.attr for m in modules for n in ast.walk(m)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    read |= set().union(*map(_getattr_names, modules), PERFBENCH_NAMES)
    lengths = set().union(*map(_unpacked_lengths, modules))
    unread = []
    for stem, module in MODULES.items():
        for cls in _public_definitions(module):
            kind = isinstance(cls, ast.ClassDef) and _record_kind(cls)
            if not kind:
                continue
            fields = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
            as_dict = any(
                isinstance(n, ast.Call) and _name(n.func) == "asdict" for n in ast.walk(cls)
            )
            unpacked = kind == "NamedTuple" and len(fields) in lengths
            if not (as_dict or unpacked):
                unread += [f"{stem}.{cls.name}.{f}" for f in fields if f not in read]
    assert unread == [], f"public fields nothing in src/ reads or perfbench/ names: {unread}"


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
    sources = [*MODULES.values(), *PERFBENCH]
    calls = [n for tree in sources for n in ast.walk(tree) if isinstance(n, ast.Call)]
    callees = [_name(c.func) for c in calls]
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


def test_layers_declare_no_run_config_field():
    """A public dataclass or NamedTuple of a module that ``pipeline.py``
    imports declares no field named like a RunConfig field: the layers a
    RunConfig drives read their settings from it, not from a record of
    their own."""
    settings = {f.name for f in dataclasses.fields(RunConfig)}
    imported = {
        node.module for node in ast.walk(MODULES["pipeline"])
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    found = []
    for stem in sorted(imported):
        for cls in _public_definitions(MODULES[stem]):
            if isinstance(cls, ast.ClassDef) and _record_kind(cls):
                fields = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
                found += [f"{stem}.{cls.name}.{f}" for f in fields if f in settings]
    assert found == [], f"RunConfig fields declared by the layers it drives: {found}"


def test_scoring_commands_read_their_settings_from_the_model():
    """Neither ``evaluate`` nor ``error-analysis`` declares ``--config`` or a
    flag named like a RunConfig field but ``--embedding-file``, and the model
    that ``train`` returns to a run records every other field in its metadata."""
    settings = {f.name for f in dataclasses.fields(RunConfig)} - {"embedding_file"}
    declared = []
    for command in ("evaluate", "error-analysis"):
        args = build_parser().parse_args([command, "--corpus", "c", "--model", "m"])
        names = sorted(vars(args).keys() & (settings | {"config"}))
        declared += [f"{command} --{name.replace('_', '-')}" for name in names]
    trees = generate(CorpusSpec(num_trees=8, mean_tree_size=4.0)).trees
    config = RunConfig(task="hate", epochs=0, bow_dim=4)
    ((model, _),) = replicate(*split_sides(trees, config), [config])
    missing = sorted(settings - model.metadata.keys())
    assert (declared, missing) == ([], []), (
        f"run options of the commands that score a model file: {declared}; "
        f"settings a trained model does not record: {missing}"
    )


WRITERS = {
    "write_bytes", "write_lines", "write_json", "write_manifest", "save_model", "save_corpus",
    "save_external_embeddings",
}
# Writers that no option decides. The sidecar beside an embedding table
# only caches its parse: deleting it changes no output, and every command
# that reads the table writes it.
CACHE_WRITERS = {"embeddings._write_cache"}


def test_only_the_cli_writes_files():
    """A writer is called or passed, outside ``cli.py``, only in the body of
    another writer or of a cache writer; a top-level statement outside any
    definition names none."""
    stray = []
    for stem, module in MODULES.items():
        if stem == "cli":
            continue
        for statement in module.body:
            owner = getattr(statement, "name", None)
            if owner in WRITERS or f"{stem}.{owner}" in CACHE_WRITERS:
                continue
            stray += [
                f"{stem}.{owner}: {_name(node)}"
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and _name(node) in WRITERS
            ]
    assert stray == [], f"files written outside cli.py: {stray}"
    defined = {
        f"{stem}.{statement.name}"
        for stem, module in MODULES.items()
        for statement in module.body
        if isinstance(statement, ast.FunctionDef)
    }
    assert CACHE_WRITERS <= defined, f"stale cache writers: {CACHE_WRITERS - defined}"
