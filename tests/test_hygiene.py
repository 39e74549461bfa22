"""Source hygiene: no module of the package imports a name it never uses.

No linter ships with the test dependencies, so this reads each module's
syntax tree.  ``__init__.py`` is exempt: its imports are the public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ostrans

MODULES = sorted(
    p for p in Path(ostrans.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for c in ast.walk(annotation) if annotation is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                inner = ast.parse(c.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert {"translate.py", "rewrite.py", "bisim.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert unused == []


def test_guard_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\n\ndef f(y: 'a') -> None:\n    return c\n")
    used = _used(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["b"]
