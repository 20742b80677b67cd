"""No module under ``src/`` imports a name it never uses.

No linter runs in CI, so this stdlib-``ast`` check stands in for one:
every name bound by a top-level ``import`` or ``from ... import`` of a
non-``__init__`` module must be read somewhere in that module — in
code, in an annotation (quoted annotations included) or in
``__all__``.  Package ``__init__`` modules exist to re-export, so they
are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _top_level_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import at module level, also
    inside top-level ``if``/``try`` blocks (``TYPE_CHECKING`` imports)."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of each top-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        (name, line) for name, line in _top_level_imports(tree)
        if name not in used
    ]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "from .a import b as c, d\n"
        "if TYPE_CHECKING:\n"
        "    from .e import F, G\n"
        "__all__ = ['d']\n"
        "def f(x: 'F') -> List[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [
        ("sys", 2), ("Optional", 3), ("c", 4), ("G", 6),
    ]


def test_no_unused_imports_under_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
