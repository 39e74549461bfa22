"""Source hygiene, and guards on what the engine must do for any input.

No linter ships with the test dependencies, so the hygiene checks read
each module's syntax tree.  ``__init__.py`` is exempt from the import
check: its imports are the public API.  A top-level function or class
must be named somewhere besides its own definition: in the package, its
tests or the benchmark.  Only ``terms.py`` names the intern pools, so
their layout can change in one module, and no type test names a node
class.

The other guards test behaviour, not names.  Every public entry point
runs, with the collector on and off, on terms, statement sides and a
subsort chain deeper than the frames a lowered recursion limit leaves
it, and must leave the collector as it found it.  Every object that
holds a cache declares it in its class's ``__slots__``.
"""

from __future__ import annotations

import ast
import gc
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import ostrans
from ostrans import (
    BisimConfig, GroundTerm, MSSignature, Operator, OSSignature, PNode, RewriteConfig,
    SpecSyntaxError, Var, apply_substitution, build_poset, cast_table, core_canonicalize,
    direct_steps, e_class_bounded, find_diamonds, format_trace, generate_cast_operators,
    least_sort, match_pattern, parse_spec, parse_term_text, positions, print_spec, print_term,
    replace_at, rewrite, rewrite_step, rewrite_trace, run_bisim, sorts_of, strip_casts,
    subterm_at, term_sort, translate_algebra, translate_term, validate_algebra, variables_of,
    well_formed_ground,
)

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


# --- deep input and the collector ---------------------------------------------

H = 400  # height of the deep terms and statement sides
CHAIN = 100  # sorts in the subsort chain c0 < c1 < ...
_TOWER = "p(" * H + "0" + ")" * H
_SIDE = "g(" + "p(" * H + "X:n" + ")" * (H + 1)
# One unary operator over one constant: one term per height, so a
# bisimulation sweep can go H deep.
TOWER_SPEC = ("algebra deep\nsorts n m\nsubsorts n < m\nop 0 : -> n\nop p : m -> n\n"
              f"rule {_TOWER} => 0\n")
DEEP_SPEC = TOWER_SPEC + f"op g : n -> n\neq {_SIDE} = g(X:n)\nrule {_SIDE} => X:n\n"
BUDGETS = RewriteConfig(eclass_depth=2, eclass_max=20)


def _tower(cls, height: int, bottom):
    for _ in range(height):
        bottom = cls("p", (bottom,))
    return bottom


def _deep_inputs() -> SimpleNamespace:
    """Deep inputs, built before the limit is lowered: only the statement
    sides are walked here, so each other walk starts cold in its row."""
    d = SimpleNamespace(os=parse_spec(DEEP_SPEC))
    d.ms, d.tm = translate_algebra(d.os)
    u = zero = GroundTerm("0")
    for _ in range(2 * H):
        u = GroundTerm("p", (GroundTerm("Cast_n_to_m", (u,)),))
    # g(p^2H(0)) and its translation: a redex at the root and one H + 1 down.
    d.t, d.u = GroundTerm("g", (_tower(GroundTerm, 2 * H, zero),)), GroundTerm("g", (u,))
    d.sides = ((d.os, d.t), (d.ms, d.u))
    d.pattern = PNode("g", (_tower(PNode, H, Var("Y", "n")),))  # not a statement side
    d.sorts = [f"c{i}" for i in range(CHAIN)]
    d.pairs = list(zip(d.sorts, d.sorts[1:]))
    return d


# Each row names the exports it runs, directly or through another, and
# returns whether they answered right.
DEEP_ROWS = {}


def _row(names: str):
    return lambda check: DEEP_ROWS.setdefault(names, check)


@_row("parse_spec print_spec OSAlgebra MSAlgebra Equation Rule validate_algebra check_sensible"
      " check_strong_sensible check_maximal_argument_bounding check_equations_sort_equal"
      " check_rules_sort_decreasing argument_compatible translate_algebra select_representatives"
      " TranslationMap translate_equations translate_rules generate_core_equations")
def _statements(d):
    alg = parse_spec(print_spec(parse_spec(DEEP_SPEC)))
    return (alg == d.os and validate_algebra(alg).translatable
            and translate_algebra(alg)[0] == d.ms == parse_spec(print_spec(d.ms), kind="msa"))


@_row("GroundTerm PNode print_term parse_term_text")
def _printing(d):
    bad = print_term(d.t).replace("0", "p(0, 0)")
    with pytest.raises(SpecSyntaxError, match=f"^1:{4 * H + 3}: constructor 'p' used with 2"):
        parse_term_text(bad, d.os.signature)
    return all(parse_term_text(print_term(t), a.signature) is t for a, t in d.sides)


@_row("sorts_of well_formed_ground least_sort term_sort ms_sort positions subterm_at replace_at")
def _sorting(d):
    sig, ms_sig, bottom = d.os.signature, d.ms.signature, positions(d.t)[-1]
    return (sorts_of(sig, d.t) == {"n", "m"} and least_sort(sig, d.t) == "n"
            and least_sort(sig, d.pattern) == "n"
            and well_formed_ground(ms_sig, d.u) and term_sort(ms_sig, d.u) == "n"
            and replace_at(d.t, bottom, subterm_at(d.t, bottom)) is d.t)


@_row("variables_of match_pattern apply_substitution translate_term strip_casts"
      " core_canonicalize")
def _matching(d):
    ms_pattern = translate_term(d.tm, d.pattern)
    return (variables_of(d.pattern) == {"Y": "n"}
            and translate_term(d.tm, d.t) is d.u and strip_casts(d.tm, d.u) is d.t
            and core_canonicalize(d.ms.signature, ms_pattern) is ms_pattern
            and all(apply_substitution(a.signature, p, match_pattern(a.signature, p, t)) is t
                    for a, p, t in ((d.os, d.pattern, d.t), (d.ms, ms_pattern, d.u))))


@_row("direct_steps e_class_bounded rewrite_step rewrite_trace format_trace")
def _rewriting(d):
    strategies = ("leftmost-innermost", "leftmost-outermost", "exhaustive-breadth")
    return all(
        len(direct_steps(a, t)) == 2 and e_class_bounded(a, t, 2, 20).members[0] is t
        and len(rewrite_step(a, t, BUDGETS)) >= 2
        and all(format_trace(rewrite_trace(a, t, s, 3, BUDGETS)) for s in strategies)
        for a, t in d.sides)


@_row("run_bisim check_forward check_backward enumerate_ground_terms")
def _bisimulation(d):
    report = run_bisim(parse_spec(TOWER_SPEC), BisimConfig(term_depth=H))
    return (report.terms_checked, report.steps_checked, report.verdict) == (2 * H + 2, 1, "pass")


@_row("build_poset SortPoset find_diamonds choose_canonical OSSignature generate_cast_operators"
      " MSSignature cast_table CastTable compute_canonical_paths")
def _chain(d):
    chain, top = build_poset(d.sorts, d.pairs), d.sorts[-1]
    sig = OSSignature(d.sorts, d.pairs, [Operator("f", (top,), "c0")])
    casts = generate_cast_operators(chain).values()
    table = cast_table(MSSignature(d.sorts, casts))
    cast = table.wrap_canonical(GroundTerm("k"), "c0", top)
    return (chain.components() == [frozenset(d.sorts)] == [sig.poset.supersorts("c0")]
            and chain.enumerate_paths("c0", top) == (tuple(d.sorts),)
            and find_diamonds(chain) == () and table.canonical(cast) is cast)


def test_backward_sweep_strips_each_node_once(count_calls):
    # One sweep strips its H + 1 tower terms through one cache, so no node
    # is stripped twice, where a fresh cache per term stripped each whole.
    from ostrans.translate import _strip_node
    stripped = count_calls(_strip_node)
    report = run_bisim(parse_spec(TOWER_SPEC), BisimConfig(term_depth=H))
    nodes = [node for _, node, _ in stripped]
    assert report.verdict == "pass"
    assert len(nodes) == len(set(nodes)) > H


# Exports that take no term, algebra or poset: configuration and report
# classes, operator and variable declarations, and name helpers.
NO_DEEP_INPUT = frozenset({
    "BisimConfig", "BisimReport", "Counterexample", "Diamond", "EClassApprox", "RewriteConfig",
    "RewriteStep", "SpecDocument", "ValidityReport", "Operator", "Var", "cast_name",
    "is_reserved_name", "rename_constructors"})


def test_every_export_is_in_a_deep_input_row():
    exports = {
        name for name, value in vars(ostrans).items()
        if callable(value) and getattr(value, "__module__", "").startswith("ostrans.")
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    in_rows = {name for names in DEEP_ROWS for name in names.split()}
    assert (exports - NO_DEEP_INPUT, NO_DEEP_INPUT - exports) == (in_rows, set())


def _run_row(shallow_stack, check, d) -> None:
    """``check(d)`` under a lowered recursion limit; it must hold and
    leave the collector as it found it."""
    state = (gc.isenabled(), gc.get_freeze_count())
    with shallow_stack():
        assert check(d)
    assert (gc.isenabled(), gc.get_freeze_count()) == state


@pytest.mark.parametrize("collector", ["on", "off"])
def test_entry_points_take_deep_input(shallow_stack, collector):
    d = _deep_inputs()
    was_enabled = gc.isenabled()
    (gc.enable if collector == "on" else gc.disable)()
    try:
        for check in DEEP_ROWS.values():
            _run_row(shallow_stack, check, d)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_guard_sees_a_recursive_walk(shallow_stack):
    def height(t):
        return 1 + max(map(height, t.args), default=0)

    t = _tower(GroundTerm, H, GroundTerm("0"))
    assert height(t) == H + 1
    with pytest.raises(RecursionError):
        _run_row(shallow_stack, height, t)


@pytest.mark.parametrize("switch", [gc.disable, gc.freeze])
def test_guard_sees_the_collector_left_switched(shallow_stack, switch):
    assert gc.isenabled() and gc.get_freeze_count() == 0
    try:
        with pytest.raises(AssertionError):
            _run_row(shallow_stack, lambda d: switch() or True, None)
    finally:
        gc.unfreeze()
        gc.enable()


# --- declared caches ----------------------------------------------------------

def _takes_undeclared(obj) -> bool:
    """Whether ``obj`` takes an attribute its class and bases do not declare."""
    try:
        obj.undeclared_cache = {}
    except AttributeError:
        return hasattr(obj, "__dict__")
    return True


def test_memo_holders_declare_every_slot(imp_text):
    # Each cache is declared in its holder's ``__slots__``: no module can attach one.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    holders = [alg, alg.signature, ms, ms.signature, tm, tm.table,
               rewrite._rule_index(alg), rewrite._equation_index(ms)]
    assert [type(h).__name__ for h in holders if _takes_undeclared(h)] == []


def test_guard_sees_undeclared_attributes():
    base = type("Base", (), {"__slots__": ("a",)})
    assert not _takes_undeclared(type("Closed", (base,), {"__slots__": ("b",)})())
    assert _takes_undeclared(type("Open", (base,), {})())


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
