"""Every name the package exports, and every default and field it declares, has a user.

A name that ``kernstab/__init__.py`` exports must be referenced as code in
another part of the package (an AST name or attribute, so docstrings and
the name's own definition do not count), be imported by the acceptance
suite, or be a span that ``bench/run.py`` expects.  Library API with none of
these users is wired into a command or deleted.

Every module of the package is imported by another of its modules (the
package's ``__init__`` and ``__main__`` count), so a module left behind by
the code that used it fails here.

Likewise each default of a module-level function's parameter, private or
public, or of a public dataclass field must be passed some other value, by
position, by keyword or through ``*``/``**``, by at least one call in the
package or the acceptance suite; a default that no caller changes is made a
constant.  And every field of a package dataclass is read by some code in
the package or the acceptance suite; a field that nothing reads is deleted.

An error message that tells the user to ``pass <name>`` names a field of
``ExperimentConfig``, so that its flag is one the CLI takes.

The facts of a kernel family live in one table, ``kernels.PROFILES``: no
module compares a value with a ``Family`` member, and no other
module-level dict is keyed by members, bare or in a tuple.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import kernstab
from kernstab.experiments import ExperimentConfig
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


# the entry points: the package itself and ``python -m kernstab``
ENTRY_MODULES = {"__init__", "__main__"}


def _imported_modules(path: Path) -> set:
    """The package's modules that ``path`` imports, relatively or by the
    package's name (``from . import x`` counts every name it imports)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "kernstab":
                    continue
                module = module[len("kernstab"):].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("kernstab.")
            }
    return found


def test_every_module_is_imported_by_another():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        imported |= _imported_modules(path) - {path.stem}
    assert ENTRY_MODULES <= modules
    assert sorted(modules - imported - ENTRY_MODULES) == []


# a settable default that every caller leaves alone is a constant in disguise
UNSET_BY_DESIGN = {
    "main(argv)": "the console entry point: it reads sys.argv when it is None",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def _signature(fn: ast.FunctionDef, method: bool):
    """Positional parameter names, and the default expression of each
    parameter that has one, of a function or method (``self`` dropped)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return positional, defaults


def _fields(node: ast.ClassDef) -> list:
    """(name, default expression or None) of each field a dataclass declares."""
    return [
        (s.target.id, s.value)
        for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


def _knobs() -> dict:
    """Callable name -> (positional names, {parameter: default expression})
    for every module-level function, private ones too, and every public
    class of the package: a class is called through its dataclass fields
    or its ``__init__``."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in found, f"two functions named {node.name}"
                found[node.name] = _signature(node, method=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    fields = _fields(node)
                    found[node.name] = (
                        [name for name, _ in fields],
                        {name: value for name, value in fields if value is not None},
                    )
                for s in node.body:
                    if isinstance(s, ast.FunctionDef) and s.name == "__init__":
                        found[node.name] = _signature(s, method=True)
    return found


def _same_value(arg: ast.expr, default: ast.expr) -> bool:
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(arg) == ast.dump(default)


def _set_parameters(call: ast.Call, positional: list, defaults: dict) -> set:
    """The defaulted parameters that ``call`` may pass another value: every
    one behind a ``*`` or ``**`` argument, else each it passes a value
    that is not the default's own literal or expression."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return set(defaults)
    passed = dict(zip(positional, call.args))
    passed.update((k.arg, k.value) for k in call.keywords)
    return {
        name for name, value in passed.items()
        if name in defaults and not _same_value(value, defaults[name])
    }


def test_every_default_is_set_by_some_caller():
    knobs = _knobs()
    set_somewhere = set()
    for path in [*PACKAGE.glob("*.py"), ACCEPTANCE]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in knobs:
                    set_somewhere |= {f"{name}({p})" for p in _set_parameters(node, *knobs[name])}
    declared = {f"{name}({p})" for name, (_, defaults) in knobs.items() for p in defaults}
    assert set(UNSET_BY_DESIGN) <= declared
    unset = sorted(declared - set_somewhere - set(UNSET_BY_DESIGN))
    assert not unset, f"defaults that no caller changes: {unset}"


def test_every_dataclass_field_is_read():
    # a field is read when some code in the package or the acceptance suite
    # loads an attribute of its name.  Names alone are matched, not types, so
    # a field can hide behind another object's attribute of the same name:
    # a ``kernel`` field of one class would pass by ``cfg.kernel`` of another
    read = set()
    for path in [*PACKAGE.glob("*.py"), ACCEPTANCE]:
        read |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    unread = sorted(
        f"{node.name}.{name}"
        for _, tree in _package_trees()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for name, _ in _fields(node)
        if name not in read
    )
    assert not unread, f"fields that nothing reads: {unread}"


def _raised_text(tree) -> list:
    # the string constants of every raised expression, f-string parts included
    return [
        part.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for part in ast.walk(node.exc)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]


def test_every_named_option_is_a_config_field():
    named = {
        f"{name}:{option}"
        for name, tree in _package_trees()
        for text in _raised_text(tree)
        for option in re.findall(r"\bpass (\w+)", text)
    }
    assert named, "no error message names an option"
    config = {field.name for field in fields(ExperimentConfig)}
    assert sorted(entry for entry in named if entry.split(":")[1] not in config) == []


def _is_family_member(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Family"
    )


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_module_branches_on_a_family():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.MatchValue):
                operands = [node.value]
            else:
                continue
            if any(_is_family_member(n) for op in operands for n in ast.walk(op)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _holds_family_member(key) -> bool:
    """A bare member, or a tuple key that holds one, as ``(Family.X, 1)``."""
    if isinstance(key, ast.Tuple):
        return any(_is_family_member(item) for item in key.elts)
    return _is_family_member(key)


def test_profiles_is_the_only_table_keyed_by_family():
    found = []
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(_holds_family_member(key) for key in node.value.keys):
                    found += [f"{name}:{ast.unparse(t)}" for t in targets]
    assert found == ["kernels.py:PROFILES"]


def _is_own_transpose(left, right) -> bool:
    return (
        isinstance(right, ast.Attribute) and right.attr == "T"
        and ast.dump(right.value) == ast.dump(left)
    )


def _own_transpose_sums(node, where: str) -> set:
    """The functions under ``node`` that add an array to its own transpose,
    as ``np.add(M, M.T, ...)`` or ``M + M.T`` in either order."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    operands = None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = node.left, node.right
    elif (
        isinstance(node, ast.Call) and len(node.args) >= 2
        and isinstance(node.func, ast.Attribute) and node.func.attr == "add"
    ):
        operands = node.args[0], node.args[1]
    found = set()
    if operands and (_is_own_transpose(*operands) or _is_own_transpose(*operands[::-1])):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        found |= _own_transpose_sums(child, where)
    return found


def test_only_symmetrize_symmetrizes():
    # 0.5 (M + M^T) is made one way, by assembly._symmetrize, in place by
    # row blocks; it adds mirrored blocks, never a matrix to its transpose
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{where}" for where in _own_transpose_sums(tree, "<module>")]
    assert found == []


def _block_budget_reads(node, where: str) -> set:
    """The functions under ``node`` that read ``_BLOCK_ENTRIES``, as a name,
    an attribute or an import, with ``where`` for reads outside any."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    found = set()
    if (
        isinstance(node, ast.Name) and node.id == "_BLOCK_ENTRIES" and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "_BLOCK_ENTRIES"
        or isinstance(node, ast.alias) and node.name == "_BLOCK_ENTRIES"
    ):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        found |= _block_budget_reads(child, where)
    return found


def test_only_row_blocks_reads_the_block_budget():
    # one rule for the height of every row block, so each pass's blocks are
    # those of geometry._row_blocks
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{where}" for where in _block_budget_reads(tree, "<module>")]
    assert sorted(found) == ["geometry.py:_row_blocks"]


def test_every_verifier_takes_the_kernel_spec():
    # one verifier signature, verify_*(spec, X, ...): a verifier that needs
    # the spectral density builds it from the spec, so no driver builds one
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    verifiers = {
        node.name: [a.arg for a in node.args.posonlyargs + node.args.args][:2]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
    }
    assert len(verifiers) == 4
    assert {name: args for name, args in verifiers.items() if args != ["spec", "X"]} == {}
    drivers = ast.parse((PACKAGE / "experiments.py").read_text())
    imported = {node.name for node in ast.walk(drivers) if isinstance(node, ast.alias)}
    assert "spectral_density_1d" not in _references(drivers) | imported
