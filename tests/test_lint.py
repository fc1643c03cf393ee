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
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


#: control's one-word-at-a-time scalar reference, which the tests hold the
#: chunked noise stream to; the package reads the noise only through
#: `control_pairs` and `stream_for_trial`.
_SCALAR_REFERENCE = {
    "next_rand", "RngState", "uniform_m1p1", "bernoulli_pm1", "sample_noise",
    "control_at_step", "scramble",
}


@pytest.mark.parametrize(
    "path", [p for p in _MODULES if p.stem != "control"], ids=lambda p: p.stem
)
def test_only_control_imports_the_scalar_reference(path):
    # __init__, not among _MODULES, re-exports next_rand and RngState
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("control", "chaosctl.control")
        for alias in node.names
        if alias.name in _SCALAR_REFERENCE
    ]
    assert found == [], f"{path.name} imports the scalar reference"


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


def _reads(node):
    """Each name that the code under `node` reads: a loaded name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_name_is_read():
    # a private helper that no code reads is dead code left behind
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in _MODULES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [(module, name, line) for module, tree in trees.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert unread == [], "module-level private names that nothing in the package reads"


_PERFBENCH = sorted((pathlib.Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
#: Public names that nothing in the package or the benchmark reads, each kept
#: on purpose.
_UNREAD_PUBLIC = {
    # the one-word-at-a-time scalar reference the tests hold the chunked
    # noise stream to
    "control_at_step",
    # the exact controlled Jacobian, which a top Lyapunov exponent estimate
    # (ROADMAP.md, item 1) is to read
    "controlled_jacobian",
}


def test_every_public_name_is_read():
    # a public function or class that only __init__ exports is dead code; a
    # definition's reads of its own name do not count
    read = {name for p in _PERFBENCH for name in _reads(ast.parse(p.read_text(encoding="utf-8")))}
    public = []
    for path in _MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((path.stem, node.name))
            read.update(name for name in _reads(node) if getattr(node, "name", None) != name)
    assert _PERFBENCH and public
    unread = [(module, name) for module, name in public if name not in read]
    assert sorted(name for _, name in unread) == sorted(_UNREAD_PUBLIC), unread
