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
