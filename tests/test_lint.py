"""Static checks of the package source."""

import ast
import pathlib

import pytest

import chaosctl

_PACKAGE = pathlib.Path(chaosctl.__file__).parent
# __init__'s imports are the package's exports
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_are_found():
    assert {p.stem for p in _MODULES} >= {"cli", "control", "maps", "sim", "stability"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


def _private_definitions(tree):
    """Each `_name` (not a dunder) that a module binds at top level, with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_name_is_read():
    # a private helper that no code reads is dead code left behind
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in _MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(module, name, line) for module, tree in trees.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert unread == [], "module-level private names that nothing in the package reads"
