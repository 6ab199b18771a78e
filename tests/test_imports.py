"""Every module-level import in the package and the tests is read somewhere,
every module-level private function or constant of the package is read
somewhere in the package outside its own definition, and every exception
class of the package is raised in it or is a base of one that is.

Names listed in ``__all__`` and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hardyseries").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def _private_definitions(node: ast.stmt) -> list[str]:
    """The private names (one leading underscore) a module-level statement
    defines as a function or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """Names a statement reads, bare or as a module attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_no_dead_private_helpers():
    # each module-level statement of the package, and the names it reads;
    # a private name counts as read when any other statement reads it
    statements = [(path.name, node, _reads(node)) for path in PACKAGE
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    dead = [f"{name}:{node.lineno} {private}" for name, node, _ in statements
            for private in _private_definitions(node)
            if not any(private in reads for _, other, reads in statements
                       if other is not node)]
    assert dead == []


def _raised(node: ast.AST) -> set[str]:
    """Names of the exception classes a tree raises, bare or as a module
    attribute, called or not."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_no_orphan_exceptions():
    # every class of errors.py is raised somewhere in the package, or is a
    # base of a class that is
    errors = [node for node in ast.parse((ROOT / "src" / "hardyseries" / "errors.py")
                                         .read_text(encoding="utf-8")).body
              if isinstance(node, ast.ClassDef)]
    live = set().union(*(_raised(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE))
    for node in reversed(errors):  # a base is defined before its subclasses
        if node.name in live:
            live.update(base.id for base in node.bases if isinstance(base, ast.Name))
    assert [node.name for node in errors if node.name not in live] == []
