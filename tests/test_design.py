"""Design rules checked on the source itself: every exported name is used."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _defined(tree):
    """(name, node) for every top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _identifiers(node) -> set[str]:
    """Names read and attributes taken anywhere under node; imports and strings are not."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_top_level_name_is_used():
    # a name counts as used when some other top-level statement of src/,
    # tests/ or bench/ reads it; its own definition, the import that
    # re-exports it and its string in __all__ do not count
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    references = [(node, _identifiers(node)) for tree in trees.values() for node in tree.body]
    definitions = [(f"{path.stem}.{name}", name, node)
                   for path, tree in trees.items() if path.parent == ROOT / "src" / "orientdiam"
                   for name, node in _defined(tree)
                   if not (name.startswith("__") and name.endswith("__"))]
    assert len(definitions) > 100  # the package was found and parsed
    unused = [qualified for qualified, name, node in definitions
              if not any(name in ids for other, ids in references if other is not node)]
    assert unused == []
