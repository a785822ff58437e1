#!/usr/bin/env python
"""Docstring-coverage gate for ``src/repro`` (used by the docs-sync CI job).

Walks every module under the given package root and fails (exit 1) if a
module, public class or public function/method is missing a docstring.
"Public" means the name has no leading underscore.  Two exemptions keep the
gate practical: purely mechanical dunder methods, and *interface overrides* —
a method whose name is documented on some other class in the package (e.g.
``Module.forward``, ``Optimizer.step``, the recorder ``on_*`` hooks)
does not need to repeat the contract at every implementation site.

Usage::

    python tools/check_docstrings.py [src/repro]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Dunder methods whose behavior is fully conventional; no docstring required.
EXEMPT_DUNDERS = {
    "__init__", "__repr__", "__str__", "__len__", "__iter__", "__next__",
    "__eq__", "__ne__", "__hash__", "__enter__", "__exit__", "__contains__",
    "__getitem__", "__setitem__", "__call__", "__post_init__", "__setattr__",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _walk_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(dotted name, node)`` for every public class/function."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if name in EXEMPT_DUNDERS:
                    continue
                if not _is_public(name):
                    continue
                dotted = f"{prefix}{name}"
                yield dotted, child
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, f"{dotted}.")

    yield from visit(tree, "")


def missing_docstrings(root: Path) -> List[str]:
    """Every public definition under ``root`` lacking a docstring."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}

    # Pass 1: method names documented on at least one class anywhere in the
    # package — overrides of these are interface implementations and exempt.
    documented_methods = set()
    for tree in trees.values():
        for dotted, node in _walk_definitions(tree):
            if ("." in dotted
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node) is not None):
                documented_methods.add(node.name)

    problems: List[str] = []
    for path, tree in trees.items():
        relative = path.relative_to(root.parent)
        if ast.get_docstring(tree) is None:
            problems.append(f"{relative}: missing module docstring")
        for dotted, node in _walk_definitions(tree):
            if ast.get_docstring(node) is not None:
                continue
            is_method = "." in dotted and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_method and node.name in documented_methods:
                continue
            problems.append(f"{relative}:{node.lineno}: {dotted} missing docstring")
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point; returns the process exit code."""
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    if not root.is_dir():
        print(f"error: package root {root} not found", file=sys.stderr)
        return 2
    problems = missing_docstrings(root)
    if problems:
        print(f"{len(problems)} public definition(s) missing docstrings:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docstring coverage OK under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
