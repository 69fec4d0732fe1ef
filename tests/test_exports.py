"""Every name the package exports has a user.

A name that ``kernstab/__init__.py`` exports must be referenced as code in
another part of the package (an AST name or attribute, so docstrings and
the name's own definition do not count), be imported by the acceptance
suite, or be a span that ``bench/run.py`` expects.  Library API with none of
these users is wired into a command or deleted.
"""

import ast
from pathlib import Path

import kernstab
from test_bench_spans import _expected_spans

PACKAGE = Path(kernstab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# the paper's condition-number bound, kept for the cond(k*) column to come
UNUSED_BY_DESIGN = {"cond_upper_bound"}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(node, inside=frozenset()) -> set:
    """Names and attribute names used as code under ``node``, leaving out a
    function's or class's references to itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found - inside


def _package_references() -> set:
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            found |= _references(ast.parse(path.read_text()))
    return found


def _acceptance_imports() -> set:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _span_parts() -> set:
    spans = set().union(*_expected_spans().values())
    return {part for span in spans for part in span.split(".")}


def test_every_export_has_a_user():
    exports = _exports()
    assert UNUSED_BY_DESIGN <= exports
    used = _package_references() | _acceptance_imports() | _span_parts()
    assert sorted(exports - used - UNUSED_BY_DESIGN) == []
