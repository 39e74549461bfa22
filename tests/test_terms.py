from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from gen_algebras import _try_algebra

from ostrans import (
    AmbiguousSort,
    GroundTerm,
    IllFormedTerm,
    InconsistentAnnotation,
    MSSignature,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    Rule,
    SortViolation,
    UnboundVariable,
    UnknownSort,
    Var,
    apply_substitution,
    enumerate_ground_terms,
    least_sort,
    ms_sort,
    print_term,
    terms,
    translate_term,
    sorts_of,
    validate_algebra,
    variables_of,
    well_formed_ground,
)

G = GroundTerm

ZERO = G("0")
S0 = G("s", (ZERO,))
TRUE = G("true")


def test_ground_terms_are_interned():
    assert G("s", (G("0"),)) is S0
    assert G("+", (ZERO, S0)) is G("+", (G("0"), G("s", (G("0"),))))


def test_pattern_nodes_are_interned():
    x = Var("X", "nat")
    assert PNode("s", (PNode("0"),)) is PNode("s", (PNode("0"),))
    assert PNode("+", (x, PNode("0"))) is PNode("+", (Var("X", "nat"), PNode("0")))
    assert PNode(constructor="s", args=(x,)) is PNode("s", (x,))
    assert PNode("s", (x,)) is not PNode("s", (Var("X", "int"),))


def test_variables_are_interned():
    x = Var("X", "nat")
    assert Var(name="X", sort="nat") is x and Var("X", "int") is not x
    assert Var("Y", "nat") is not x
    assert (x.name, x.sort, repr(Var("A", "AExp"))) == ("X", "nat", "A:AExp")
    # Hashed by identity: no Python-level __hash__ runs.
    assert type(x).__hash__ is object.__hash__ and not hasattr(x, "__dict__")


def test_pattern_nodes_are_not_ground_terms():
    assert PNode("0") is not ZERO and PNode("0") != ZERO
    assert PNode("s", (PNode("0"),)) != S0
    assert len({PNode("0"), ZERO}) == 2


def test_patterns_leave_the_ground_pool_alone():
    before = len(GroundTerm._pool)
    p = PNode("fresh-pattern-head", (PNode("fresh-pattern-leaf"), Var("X", "nat")))
    assert PNode("fresh-pattern-head", p.args) is p
    assert len(GroundTerm._pool) == before
    assert ("fresh-pattern-leaf", ()) in PNode._pool
    assert ("fresh-pattern-leaf", ()) not in GroundTerm._pool


def test_the_builders_intern_through_the_class_pools():
    # ``_intern`` is the class call's own body: either way a node comes
    # from its class's pool, and the ground and pattern pools stay apart.
    assert terms._Interned.__new__ is terms._intern
    leaf = terms._intern(GroundTerm, "intern-leaf", ())
    assert leaf is G("intern-leaf") and type(leaf) is GroundTerm
    node = terms._intern(GroundTerm, "intern-node", (leaf, S0))
    assert node is G("intern-node", (G("intern-leaf"), S0))
    pattern = terms._intern(PNode, "intern-leaf", ())
    assert pattern is PNode("intern-leaf") and type(pattern) is PNode
    assert pattern is not leaf
    assert terms._intern(PNode, "intern-node", (pattern, S0)) is not node
    assert ("intern-node", (leaf, S0)) not in PNode._pool
    assert ("intern-node", (pattern, S0)) not in GroundTerm._pool


def test_the_ground_pool_counts_and_finds_its_nodes():
    before = len(GroundTerm._pool)
    leaves = [G(f"pool-leaf-{i}") for i in range(3)]
    nodes = [G("pool-node", (leaf,)) for leaf in leaves]
    assert len(GroundTerm._pool) == before + 6
    assert [G("pool-node", (leaf,)) for leaf in leaves] == nodes
    assert len(GroundTerm._pool) == before + 6
    assert all(("pool-node", n.args) in GroundTerm._pool for n in nodes)
    assert ("pool-leaf-0", ()) in GroundTerm._pool
    assert ("pool-node", (nodes[0],)) not in GroundTerm._pool
    assert ("pool-absent", ()) not in GroundTerm._pool
    pattern = PNode("pool-node", (PNode("pool-leaf-0"),))
    assert ("pool-node", pattern.args) in PNode._pool
    assert ("pool-node", pattern.args) not in GroundTerm._pool


def test_a_fresh_node_costs_under_100_bytes():
    # Pooled by constructor, then by argument tuple, a fresh node costs
    # 77.5 B: the node (48 B) and its slot in its constructor's table.
    # Keyed by a (constructor, args) tuple per node in one shared table,
    # it cost 132 to 163 B, depending on when that table resized.
    args = [(G(f"cost-leaf-{i}"),) for i in range(10_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in args:
            G("cost-node", a)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(args) < 100


def test_least_sort_basic(imp):
    sig = imp.signature
    assert least_sort(sig, ZERO) == "nat"
    assert least_sort(sig, G("s", (S0,))) == "nat"
    # Both -:nat->int and -:int->int admit -(0); the targets agree on int.
    assert least_sort(sig, G("-", (ZERO,))) == "int"
    assert least_sort(sig, G("v", (ZERO,))) == "Id"
    assert least_sort(sig, G("+", (ZERO, S0))) == "AExp"


def test_least_sort_ill_formed(imp):
    with pytest.raises(IllFormedTerm):
        least_sort(imp.signature, G("s", (TRUE,)))


def _ambiguous_signature():
    return OSSignature(
        sorts={"a", "x", "y"},
        subsort_pairs=set(),
        operators=[
            Operator("c", (), "a"),
            Operator("f", ("a",), "x"),
            Operator("f", ("a",), "y"),
        ],
    )


def test_least_sort_ambiguous():
    with pytest.raises(AmbiguousSort):
        least_sort(_ambiguous_signature(), G("f", (G("c"),)))


def test_least_sort_memo_keeps_successes_only(imp):
    # A failure is not memoised: it raises again, with the same message.
    sig = _fresh_signature(imp.signature)
    ambiguous = _ambiguous_signature()
    for s, t, error in ((sig, G("s", (TRUE,)), IllFormedTerm),
                        (ambiguous, G("f", (G("c"),)), AmbiguousSort)):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as raised:
                least_sort(s, t)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        key = (t.constructor, tuple(least_sort(s, a) for a in t.args))
        assert key not in s._least_at_cache
    assert least_sort(sig, S0) == "nat"
    assert sig._least_at_cache[("s", ("nat",))] == "nat"


def test_least_sort_over_sorted_children_matches_a_cold_walk(imp, imp_real):
    # A node whose children have cached sorts gets the sort, and caches
    # it, that a new signature, every cache empty, gives it.
    for sig in (imp.signature, imp_real.signature):
        warm = _fresh_signature(sig)
        nodes = [t for t in enumerate_ground_terms(sig, depth=2) if t.args]
        assert len(nodes) > 200
        for t in nodes:
            for a in t.args:
                least_sort(warm, a)
            got = least_sort(warm, t)
            assert warm._least_cache[t] == got
            assert least_sort(_fresh_signature(sig), t) == got, t


def test_least_sort_failures_over_sorted_children_match_a_cold_walk(imp):
    # The same error and message whether the children's sorts are cached
    # or not, and nothing is cached for the failing node.
    cases = [(imp.signature, G("s", (TRUE,)), IllFormedTerm),
             (imp.signature, G("+", (TRUE, S0)), IllFormedTerm),
             (imp.signature, G("v", (G("-", (ZERO,)),)), IllFormedTerm),
             (_ambiguous_signature(), G("f", (G("c"),)), AmbiguousSort)]
    for sig, t, error in cases:
        messages = []
        for warm in (False, True):
            fresh = _fresh_signature(sig)
            if warm:
                for a in t.args:
                    least_sort(fresh, a)
            with pytest.raises(error) as raised:
                least_sort(fresh, t)
            messages.append(str(raised.value))
            assert t not in fresh._least_cache
        assert messages[0] == messages[1], t


def _admitting_cases(imp, imp_real):
    """The fixtures' signatures, those of 30 seeded draws, and each draw's
    with a twin of one operator at a random target, which mostly fails
    validation; and how many of them fail it."""
    rng = random.Random(16)
    signatures = [imp.signature, imp_real.signature]
    for alg in filter(None, (_try_algebra(rng, 5, 8, 2, 2) for _ in range(30))):
        sig = alg.signature
        op = rng.choice(sig.operators)
        twin = Operator(op.constructor, op.arg_sorts, rng.choice(sorted(sig.sorts)))
        signatures += [sig, OSSignature(sig.sorts, sig.subsort_pairs, sig.operators + (twin,))]
    failing = sum(not validate_algebra(OSAlgebra(s)).strictly_sensible for s in signatures)
    return signatures, failing


def test_admitting_matches_declaration_order_filter(imp, imp_real):
    signatures, failing = _admitting_cases(imp, imp_real)
    assert failing > 0
    checked = 0
    for sig in signatures:
        leq = sig.poset.leq
        for c in sorted(sig.constructors):
            for arity in {op.arity for op in sig.ops_named(c)}:
                for child_sorts in itertools.product(sorted(sig.sorts), repeat=arity):
                    naive = tuple(
                        op for op in sig.ops_named(c) if op.arity == arity
                        and all(leq(cs, s) for cs, s in zip(child_sorts, op.arg_sorts))
                    )
                    assert sig.admitting(c, child_sorts) == naive, (c, child_sorts)
                    checked += 1
    assert checked > 1000


def test_least_sort_unique_on_enumerated_terms(imp):
    for t in enumerate_ground_terms(imp.signature, depth=2):
        least_sort(imp.signature, t)  # raises on non-uniqueness


def test_monotonicity_on_enumerated_terms(imp):
    # A term of least sort s inhabits exactly the supersorts of s.
    sig = imp.signature
    for t in enumerate_ground_terms(sig, depth=2):
        assert sorts_of(sig, t) == sig.poset.supersorts(least_sort(sig, t))


def test_well_formed_order_sorted_widening(imp):
    # nat fits both AExp argument slots of <= via nat < int < AExp.
    assert well_formed_ground(imp.signature, G("<=", (ZERO, S0)))


def test_well_formed_many_sorted_is_exact(imp_translated):
    ms, _ = imp_translated
    sig = ms.signature
    assert not well_formed_ground(sig, G("<=", (ZERO, S0)))
    lifted = G("<=", (
        G("Cast_int_to_AExp", (G("Cast_nat_to_int", (ZERO,)),)),
        G("Cast_int_to_AExp", (G("Cast_nat_to_int", (S0,)),)),
    ))
    assert well_formed_ground(sig, lifted)
    assert ms_sort(sig, lifted) == "BExp"


def test_well_formed_total_on_unknown_constructors(imp):
    assert not well_formed_ground(imp.signature, G("nosuch", (ZERO,)))


def test_apply_substitution_direct(imp):
    p = PNode("+", (Var("A", "nat"), PNode("s", (Var("B", "nat"),))))
    out = apply_substitution(imp.signature, p, {"A": ZERO, "B": ZERO})
    assert out is G("+", (ZERO, G("s", (ZERO,))))


def test_apply_substitution_subsort_binding(imp):
    # A variable of sort AExp accepts a nat image.
    out = apply_substitution(imp.signature, Var("A", "AExp"), {"A": S0})
    assert out is S0


def test_apply_substitution_sort_violation(imp):
    with pytest.raises(SortViolation):
        apply_substitution(imp.signature, Var("A", "nat"), {"A": TRUE})


def test_apply_substitution_unbound(imp):
    with pytest.raises(UnboundVariable):
        apply_substitution(imp.signature, Var("A", "nat"), {})


def test_apply_substitution_exact_in_many_sorted(imp_translated):
    ms, _ = imp_translated
    with pytest.raises(SortViolation):
        apply_substitution(ms.signature, Var("A", "int"), {"A": ZERO})
    lifted = G("Cast_nat_to_int", (ZERO,))
    assert apply_substitution(ms.signature, Var("A", "int"), {"A": lifted}) is lifted


def test_apply_substitution_preserves_well_formedness(imp):
    sig = imp.signature
    p = PNode("<=", (Var("A", "AExp"), Var("B", "AExp")))
    for image in enumerate_ground_terms(sig, sort="AExp", depth=2):
        out = apply_substitution(sig, p, {"A": image, "B": ZERO})
        assert well_formed_ground(sig, out)
        assert sig.poset.leq(least_sort(sig, out), "BExp")


def test_variables_of():
    p = PNode("+", (Var("A", "nat"), PNode("s", (Var("B", "nat"),))))
    assert variables_of(p) == {"A": "nat", "B": "nat"}
    assert variables_of(PNode("0", ())) == {}


def test_variables_of_inconsistent():
    p = PNode("+", (Var("A", "AExp"), Var("A", "int")))
    with pytest.raises(InconsistentAnnotation):
        variables_of(p)


def test_algebra_rejects_cross_side_annotation_clash(imp):
    rule = Rule(PNode("s", (Var("A", "nat"),)), Var("A", "int"))
    with pytest.raises(InconsistentAnnotation):
        OSAlgebra(imp.signature, (), (rule,))


def test_algebra_rejects_unbound_rule_variables(imp):
    rule = Rule(PNode("s", (Var("A", "nat"),)), PNode("s", (Var("B", "nat"),)))
    with pytest.raises(IllFormedTerm):
        OSAlgebra(imp.signature, (), (rule,))


def test_algebra_rejects_bare_variable_rule_head(imp):
    with pytest.raises(IllFormedTerm):
        OSAlgebra(imp.signature, (), (Rule(Var("A", "nat"), PNode("0", ())),))


def test_ms_signature_rejects_indistinguishable_overloads():
    with pytest.raises(Exception):
        MSSignature(
            sorts={"a", "b"},
            operators=[Operator("f", ("a",), "a"), Operator("f", ("a",), "b")],
        )


@pytest.mark.parametrize("build", [
    lambda: MSSignature({"", "a"}, [Operator("c", (), "")]),
    lambda: OSSignature({"", "a"}, [], [Operator("c", (), "")]),
    lambda: MSSignature({""}, [Operator("c", (), "b")]),
], ids=["many-sorted", "order-sorted", "before-the-operator-check"])
def test_signatures_reject_an_empty_sort_name(build):
    # The name check runs before the operator check, on both kinds: an
    # accepted "" would read as ill-formed, the many-sorted sort memo's marker.
    with pytest.raises(UnknownSort, match="sort names must be non-empty"):
        build()


def test_print_term_forms(imp):
    assert print_term(G("+", (ZERO, S0))) == "+(0, s(0))"
    assert print_term(ZERO) == "0"
    assert print_term(Var("A", "nat")) == "A:nat"


def _print_recursive(t) -> str:
    """The recursive printer that ``print_term`` replaced, as an oracle."""
    if isinstance(t, Var):
        return f"{t.name}:{t.sort}"
    if not t.args:
        return t.constructor
    return f"{t.constructor}({', '.join(_print_recursive(a) for a in t.args)})"


def test_print_term_matches_recursive_printer(imp, imp_real, imp_translated, imp_real_translated):
    terms = []
    for alg in (imp, imp_real, imp_translated[0], imp_real_translated[0]):
        for stmt in alg.equations + alg.rules:
            terms += (stmt.lhs, stmt.rhs)
    for alg in (imp, imp_real):
        terms += enumerate_ground_terms(alg.signature, depth=2)
    for ms, tm in (imp_translated, imp_real_translated):
        terms += (translate_term(tm, t) for t in enumerate_ground_terms(tm.source, depth=2))
    assert len(terms) > 1000
    for t in terms:
        assert print_term(t) == _print_recursive(t)


def test_print_term_deep():
    # Deeper than the interpreter's recursion limit.
    height = 5_000
    t = ZERO
    for _ in range(height):
        t = G("s", (t,))
    assert print_term(G("+", (t, TRUE))) == "+(" + "s(" * height + "0" + ")" * height + ", true)"


def _fresh_signature(sig):
    return OSSignature(sig.sorts, sig.subsort_pairs, sig.operators)


def test_sorts_of_deep_terms(imp):
    # Deeper than the interpreter's recursion limit, each cache cold.
    height = 5_000
    tower, pattern, bad = ZERO, Var("X", "nat"), TRUE
    for _ in range(height):
        tower, pattern, bad = G("s", (tower,)), PNode("s", (pattern,)), G("s", (bad,))
    neg = G("-", (tower,))
    assert least_sort(_fresh_signature(imp.signature), neg) == "int"
    assert sorts_of(_fresh_signature(imp.signature), neg) == {"int", "AExp"}
    sig = _fresh_signature(imp.signature)
    assert (sorts_of(sig, neg), least_sort(sig, neg)) == ({"int", "AExp"}, "int")
    # Patterns are not cached; an ill-formed tower names its lowest bad node.
    assert least_sort(sig, PNode("-", (pattern,))) == "int"
    assert sorts_of(sig, pattern) == {"nat", "int", "AExp"}
    with pytest.raises(IllFormedTerm, match=r"^no operator admits s\(true\) "):
        least_sort(sig, bad)
    assert sorts_of(sig, bad) == frozenset()
    assert not well_formed_ground(sig, G("-", (bad,)))


def test_shared_ill_formed_subterms_are_walked_once():
    # 2^60 paths through 61 distinct nodes: a pass that did not cache the
    # ill-formed ones would never finish.
    f = Operator("f", ("a", "a"), "a")
    ms_sig = MSSignature(["a"], [Operator("c", (), "a"), f])
    os_sig = OSSignature(["a"], [], [Operator("c", (), "a"), f])
    t = G("g")
    for _ in range(60):
        t = G("f", (t, t))
    assert not well_formed_ground(ms_sig, t) and not well_formed_ground(os_sig, t)
    with pytest.raises(IllFormedTerm, match=r"^no operator admits g "):
        least_sort(os_sig, t)
