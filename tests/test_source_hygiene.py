"""The package source carries no dead names: every module uses what it
imports, and every module-level private helper has a caller somewhere in
``src/``.  Read with the stdlib ``ast`` module, so nothing is imported or run.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "f3sum"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    """Every name the tree reads: bare names, attribute names, and the
    strings of a module-level ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _imported_names(tree):
    """The names the module's imports bind, ``__future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _module_private_names(tree):
    """Names starting with one underscore that the module binds at top
    level: functions, classes, assignments and loop variables."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in targets if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_every_private_module_name_is_referenced():
    referenced = set()
    for path in SRC.rglob("*.py"):
        tree = _tree(path)
        referenced |= _loaded_names(tree)
        referenced.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in _module_private_names(_tree(path))
        if name not in referenced
    ]
    assert unused == []
