"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import adiafact

PACKAGE = Path(adiafact.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every runtime check must raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_tuple_of_a_generator_expression_in_the_package():
    # tuple(<generator>) cannot know its length: it allocates a guessed size and
    # shrinks the tuple to fit.  When freed, the tuple goes to CPython's free list
    # of its final size, which tuple(<generator>) never allocates from, so that
    # list only fills (up to 2000 tuples per size).  Only a full gc collection
    # empties it; once the penalty stopped building Poly Monomials, which kept gc
    # collecting, these lists raised a screen walk's peak RSS.  tuple([...])
    # allocates the exact size and reuses what it frees.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
        ]
    assert found == []


def _absolute_imports():
    """(location, top-level module) for every absolute import in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.split(".")[0]


def test_every_imported_name_is_read():
    # no linter runs in CI: a deletion must not leave an unused import behind.
    # __init__.py imports to re-export, and __future__ imports set compiler flags
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert found == []


def test_every_private_module_name_is_read():
    # a private helper or constant left behind by a deletion is dead code; a
    # name counts as read where a module loads it, takes it as an attribute
    # or imports it by name
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} {defined_name}" for defined_name in defined
                      if defined_name.startswith("_") and not defined_name.startswith("__")
                      and defined_name not in read]
    assert found == []


def test_package_imports_only_stdlib_and_numpy():
    # scipy and the rest of the test extras stay out of the installed package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = [f"{where} {name}" for where, name in _absolute_imports() if name not in allowed]
    assert found == []


def test_package_does_not_import_fractions():
    # every coefficient and energy is an int, from the layout to the diagonal
    assert [where for where, name in _absolute_imports() if name == "fractions"] == []


def test_package_does_not_import_numpy_random():
    # numpy.random loads 19 modules and 6.4 MiB into the process that first reads it;
    # the gap walk seeds its block from the stdlib generator, which numpy imports
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert found == []


def test_the_oracles_import_only_varid_from_the_package():
    # a reference that calls library code cannot catch that code's faults, so the
    # oracles take nothing from the package but the plain VarId type
    path = Path(__file__).with_name("oracles.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "adiafact"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "adiafact":
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if (node.module, alias.name) != ("adiafact", "VarId")]
    assert found == []


def test_all_lists_exactly_the_public_names_in_sorted_order():
    # a removed export cannot leave a stale entry behind, nor a new one go unlisted
    public = {
        name
        for name, value in vars(adiafact).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert adiafact.__all__ == sorted(adiafact.__all__)
    assert set(adiafact.__all__) == public
