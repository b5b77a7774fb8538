"""Repository-wide reference checks: every top-level library function and
class, and every method and property of a library class, has a program
consumer, every generator setting is read, and every function the benchmark
tracer wraps still exists."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loadsense"
PROGRAM_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# Public names that only tests call today, each waiting for a consumer: the
# two dual-task scorers, for a `stats` secondary_task.csv.  (model.json has no
# reader in the package; a `predict` command would bring one with it.)
ALLOWED_UNREFERENCED = {
    "nback_rate",  # ROADMAP item 6: `stats` writes secondary_task.csv
    "visual_search_perf",  # ROADMAP item 6: `stats` writes secondary_task.csv
}


def _definitions(private: bool) -> dict[str, str]:
    """Top-level functions and classes of the package, the private ones
    (leading underscore) or the public ones: name -> module file."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private:
                defined[node.name] = path.name
    return defined


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module refers to by Name, Attribute or import, leaving out a
    top-level definition's references to itself."""
    names = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            else:
                continue
            names |= found - {own}
    return names


def _program_references() -> set[str]:
    referenced = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.glob("*.py")):
            referenced |= _referenced_names(ast.parse(path.read_text()))
    return referenced


def test_every_public_name_has_a_program_consumer():
    referenced = _program_references()
    unreferenced = {name for name in _definitions(private=False) if name not in referenced}
    assert unreferenced == ALLOWED_UNREFERENCED


def test_every_private_name_has_a_program_consumer():
    referenced = _program_references()
    assert {name for name in _definitions(private=True) if name not in referenced} == set()


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names a module reads as `obj.name`, leaving out those it also
    assigns as `obj.name = ...`: such a name is an attribute of its own (the
    benchmark tracer's `missing` list, say), not a library method."""
    loads, stores = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            (stores if isinstance(node.ctx, ast.Store) else loads).add(node.attr)
    return loads - stores


def test_every_method_has_a_program_consumer():
    """Every non-dunder method and property of a package class is read as an
    attribute by some program module."""
    read = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.glob("*.py")):
            read |= _attribute_reads(ast.parse(path.read_text()))
    methods = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods |= {(f"{path.name}:{node.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")}
    assert {method for method in methods if method[1] not in read} == set()


def test_every_generator_setting_is_read():
    """Each GeneratorConfig and LevelTargets field is read as an attribute in
    the package; config_text's getattr over every field does not count."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    synth = importlib.import_module("loadsense.synth")
    settings = {f.name for cls in (synth.GeneratorConfig, synth.LevelTargets) for f in dataclasses.fields(cls)}
    assert settings - read == set()


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for span, module_name, attr_path, _ in tracing.WRAPS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(span)
    assert unresolved == []
