"""Source hygiene: no unused imports, no dead top-level definitions.

No linter ships with the test dependencies, so this reads each module's
syntax tree.  ``__init__.py`` is exempt from the import check: its
imports are the public API.  A top-level function or class must be named
somewhere besides its own definition: in the package, its tests or the
benchmark.  The functions and methods that recurse are pinned, so deep
terms cannot meet a new recursive walk, and so are those that walk with
a hand-written ``while stack:`` loop.  The classes that hold memos are
pinned with their slots, so each cache is declared in one place, and
only ``terms.py`` names the intern pools, so their layout can change in
one module.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import ostrans
from ostrans import parse_spec, rewrite, translate_algebra

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(function: ast.AST, kind: type[ast.AST]):
    """The nodes of type ``kind`` in a function's body, leaving out nested
    definitions."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _recursive(tree: ast.Module) -> list[str]:
    """Functions that call themselves, directly or through one other
    function of the same module.

    Top-level functions, methods (``Class.name``) and nested functions
    (``outer.name``) all count.  A bare name calls the innermost function
    of that name in scope; ``self.name(...)``, on a method's first
    parameter, calls the method ``name`` of the same class.
    """
    functions: dict[str, tuple[ast.AST, str | None, list[str]]] = {}

    def collect(body, prefix: str, cls: str | None, scope: list[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                functions[name] = (node, cls, scope)
                collect(node.body, name + ".", None, scope + [name])
            elif isinstance(node, ast.ClassDef):
                collect(node.body, prefix + node.name + ".", prefix + node.name, scope)

    collect(tree.body, "", None, [])

    def resolve(name: str, scope: list[str]) -> str | None:
        for outer in reversed(scope):
            if f"{outer}.{name}" in functions:
                return f"{outer}.{name}"
        return name if name in functions else None

    calls = {}
    for name, (node, cls, scope) in functions.items():
        params = node.args.posonlyargs + node.args.args
        me = params[0].arg if cls is not None and params else None
        callees = set()
        for call in _own_nodes(node, ast.Call):
            f = call.func
            if isinstance(f, ast.Name):
                callees.add(resolve(f.id, scope + [name]))
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == me):
                callees.add(f"{cls}.{f.attr}")
        calls[name] = callees & functions.keys()
    return sorted(
        name for name, callees in calls.items()
        if name in callees or any(name in calls[g] for g in callees)
    )


# The recursive functions left in the package, pinned: none, so no term
# or statement side is too deep for any walk.  A new recursive walk
# fails here.
RECURSIVE = {}


def test_recursive_functions_are_pinned():
    found = {}
    for path in MODULES:
        names = _recursive(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.name] = names
    assert found == RECURSIVE


def test_guard_sees_recursion():
    source = (
        "def walk(t):\n    return [walk(a) for a in t]\n\n\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n\n\n"
        "def flat(t):\n    return len(t)\n"
    )
    assert _recursive(ast.parse(source)) == ["even", "odd", "walk"]


def test_guard_sees_recursive_methods_and_nested_functions():
    source = (
        "class Parser:\n"
        "    def term(self):\n        return [self.term() for _ in self.args()]\n\n"
        "    def args(self):\n        return []\n\n"
        "    def flat(self, other):\n        return other.flat(self)\n\n\n"
        "def outer(t):\n"
        "    def build(u):\n        return [build(a) for a in u]\n\n"
        "    return build(t)\n"
    )
    assert _recursive(ast.parse(source)) == ["Parser.term", "outer.build"]


def _stack_walks(tree: ast.Module) -> list[str]:
    """Functions, methods (``Class.name``) and nested functions
    (``outer.name``) with a ``while stack:`` loop of their own."""
    found = []

    def collect(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, _SCOPES):
                name = prefix + node.name
                if any(isinstance(w.test, ast.Name) and w.test.id == "stack"
                       for w in _own_nodes(node, ast.While)):
                    found.append(name)
                collect(node.body, name + ".")

    collect(tree.body, "")
    return sorted(found)


# The hand-written term and graph walks, pinned: a new walk is pinned on
# purpose or written with ``terms.fold_term``.
STACK_WALKS = {
    "poset.py": ["SortPoset.components", "SortPoset.enumerate_paths"],
    "rewrite.py": ["_direction_key", "_match_ms", "_match_os", "_preorder", "_redexes"],
    "terms.py": ["fold_term", "print_term", "variables_of"],
}


def test_stack_walks_are_pinned():
    found = {}
    for path in MODULES:
        names = _stack_walks(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.name] = names
    assert found == STACK_WALKS


def test_guard_sees_stack_walks():
    source = (
        "def walk(t):\n    stack = [t]\n    while stack:\n        stack.pop()\n\n\n"
        "class Table:\n    def canonical(self, t):\n"
        "        def inner(u):\n            stack = [u]\n            while stack:\n"
        "                stack.pop()\n\n        return inner(t)\n\n\n"
        "def drain(queue):\n    while queue:\n        queue.pop()\n"
    )
    assert _stack_walks(ast.parse(source)) == ["Table.canonical.inner", "walk"]


# Functions that switch the process-global cyclic garbage collector or
# move objects between its generations.
GC_SWITCHES = frozenset({"disable", "enable", "freeze", "unfreeze"})


def _gc_switchers(tree: ast.Module) -> list[str]:
    """Names of the functions that name ``gc.disable``, ``gc.enable``,
    ``gc.freeze`` or ``gc.unfreeze``, called or not (a bare reference can
    be handed to ``atexit.register``): ``<module>`` for a reference outside
    any, and ``<import>`` for a name imported from ``gc``, whose uses would
    not be seen.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_SCOPES)):
            for f in _own_nodes(node, ast.Attribute):
                if (isinstance(f.value, ast.Name) and f.value.id == "gc"
                        and f.attr in GC_SWITCHES):
                    found.add(getattr(node, "name", "<module>"))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.add("<import>")
    return sorted(found)


# The functions that switch the collector, pinned: the pause around a
# sweep or class search, and the freeze at interpreter exit.
GC_SWITCHERS = ["rewrite.py:_collector_paused", "rewrite.py:_freeze_at_exit"]


def test_collector_is_switched_in_two_functions():
    found = [
        f"{path.name}:{name}" for path in MODULES
        for name in _gc_switchers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == GC_SWITCHERS


def test_guard_sees_collector_switches():
    source = (
        "import atexit\nimport gc\nfrom gc import freeze\n\n"
        "gc.enable()\n\n\n"
        "def paused():\n    gc.disable()\n    gc.collect()\n\n\n"
        "def at_exit():\n    atexit.register(gc.unfreeze)\n\n\n"
        "class Run:\n    def go(self):\n        def inner():\n            gc.freeze()\n"
        "        return gc.isenabled()\n"
    )
    assert _gc_switchers(ast.parse(source)) == [
        "<import>", "<module>", "at_exit", "inner", "paused"]


# The classes that hold memos and indexes, each with the slots that it and
# its bases declare: every cache is declared once, with its comment, in
# its holder's ``__slots__``.  "__dict__" here would mean that a holder
# takes attributes no class of it declares, so a module could attach an
# undeclared cache.
MEMO_SLOTS = {
    "OSAlgebra": ["_equation_index", "_rule_index", "_validity", "equations", "rules",
                  "signature"],
    "OSSignature": ["_by_ctor", "_by_shape", "_component", "_least_at_cache", "_least_cache",
                    "_sides", "_sorts_cache", "operators", "poset", "sorts", "subsort_pairs"],
    "MSAlgebra": ["_equation_index", "_rule_index", "core_equations", "equations", "rules",
                  "signature"],
    "MSSignature": ["_by_ctor", "_by_key", "_cast_index", "_sides", "_sort_cache", "non_core",
                    "operators", "sorts"],
    "TranslationMap": ["_plans", "_tr_cache", "canonical_path_of", "casts", "original_name_of",
                       "rename_of", "representative_of", "source", "table", "target_sort_of",
                       "tie_break"],
    "CastTable": ["_canon_cache", "canonical_path_of", "name_of", "pair_of", "poset"],
    "RedexIndex": ["candidates", "complete", "finish", "heads", "lhs", "memo", "pairs", "shapes",
                   "sig", "table"],
}


def _declared_slots(obj) -> list[str]:
    """The slots that ``obj``'s class and its bases declare, and
    ``__dict__`` when ``obj`` takes attributes they do not declare."""
    names = [s for c in type(obj).__mro__ for s in vars(c).get("__slots__", ())]
    return sorted(names + ["__dict__"] * hasattr(obj, "__dict__"))


def test_memo_holders_declare_every_slot(imp_text):
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    holders = [alg, alg.signature, ms, ms.signature, tm, tm.table,
               rewrite._rule_index(alg), rewrite._equation_index(ms)]
    assert {type(h).__name__: _declared_slots(h) for h in holders} == MEMO_SLOTS


def test_guard_sees_undeclared_attributes():
    class Base:
        __slots__ = ("a",)

    class Closed(Base):
        __slots__ = ("b",)

    class Open(Base):
        pass

    assert _declared_slots(Closed()) == ["a", "b"]
    assert _declared_slots(Open()) == ["__dict__", "a"]


# Interned nodes are told apart from variables alone, so no type test in
# the package names a node class.
NODE_CLASSES = frozenset({"GroundTerm", "PNode", "_Interned"})


def _is_type_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def _type_tests(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` for each name a type test mentions as a class:
    the class arguments of ``isinstance`` and ``issubclass``, and the
    operands of a comparison with a ``type(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")):
            classes = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                _is_type_call(o) for o in (node.left, *node.comparators)):
            classes = [o for o in (node.left, *node.comparators) if not _is_type_call(o)]
        else:
            continue
        found += [(node.lineno, n.id) for c in classes for n in ast.walk(c)
                  if isinstance(n, ast.Name)]
    return sorted(found)


def test_type_tests_name_no_node_class():
    found = [
        f"{path.name}:{line} {name}" for path in MODULES
        for line, name in _type_tests(ast.parse(path.read_text(encoding="utf-8")))
        if name in NODE_CLASSES
    ]
    assert found == []


def test_guard_sees_type_tests():
    source = (
        "def f(t, s):\n"
        "    a = isinstance(t, GroundTerm)\n"
        "    b = type(t) is not PNode\n"
        "    c = isinstance(t, (Var, PNode))\n"
        "    d = type(t) in (GroundTerm,)\n"
        "    e = type(t) is Var or isinstance(s, OSSignature)\n"
        "    return type(t)(s, ()), type(t) is type(s)\n"
    )
    assert _type_tests(ast.parse(source)) == [
        (2, "GroundTerm"), (3, "PNode"), (4, "PNode"), (4, "Var"),
        (5, "GroundTerm"), (6, "OSSignature"), (6, "Var"),
    ]


def _pool_names(tree: ast.Module) -> list[int]:
    """Lines that name ``_pool``: as an attribute, a plain name or an import."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_pool")
        or (isinstance(node, ast.Name) and node.id == "_pool")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "_pool" for a in node.names))
    )


def test_only_terms_names_the_intern_pools():
    found = [
        f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "terms.py"
        for line in _pool_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_guard_sees_pool_names():
    source = (
        "from .terms import _pool\n"
        "n = len(GroundTerm._pool)\n"
        "_pool = {}\n\n\n"
        "def f(t):\n"
        "    return t._pool_size + len(_pool) + t.pool\n"
    )
    assert _pool_names(ast.parse(source)) == [1, 2, 3, 7]
