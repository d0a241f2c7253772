"""Every definition in the package is used somewhere."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "huaops"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def _references(node, enclosing=frozenset()):
    """Names read as a name, an attribute or an import, outside the
    definitions of the same name (a recursive call is no use)."""
    if isinstance(node, DEFINITIONS):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        name = None
    if name is not None and name not in enclosing:
        yield name
    if isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_no_definition_in_the_package_is_unreferenced():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{path.name}: {qualified}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualified in _definitions(tree)
              if qualified.rsplit(".", 1)[-1] not in used]
    assert not unused
