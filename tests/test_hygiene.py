"""Source hygiene: no unused imports, no dead top-level definitions.

No linter ships with the test dependencies, so this reads each module's
syntax tree.  ``__init__.py`` is exempt from the import check: its
imports are the public API.  A top-level function or class must be named
somewhere besides its own definition: in the package, its tests or the
benchmark.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import ostrans

PACKAGE = Path(ostrans.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
# Where a definition may be used: the package, the tests and the benchmark.
USERS = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench") for p in d.rglob("*.py"))


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


def _top_level_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _dead(definitions: list[str], sources: list[str]) -> list[str]:
    """Definitions whose name occurs only once, in their own ``def`` or ``class``."""
    counts = Counter(
        word for text in sources for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
    )
    return sorted(name for name in definitions if counts[name] <= 1)


def test_no_dead_definitions():
    definitions = [
        name for path in MODULES
        for name in _top_level_definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    sources = [p.read_text(encoding="utf-8") for p in USERS]
    assert len(definitions) > 50
    assert _dead(definitions, sources) == []


def test_guard_sees_a_dead_definition():
    source = "def used():\n    pass\n\n\nclass Dead:\n    pass\n\n\nused()\n"
    tree = ast.parse(source)
    assert _dead(_top_level_definitions(tree), [source]) == ["Dead"]
