from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import all_paths_from, chain_term, chain_world, oracle_closure, segment_of
from gen_algebras import random_algebra
from ostrans import (
    BudgetExceeded,
    Equation,
    GroundTerm,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    Rule,
    Var,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    enumerate_ground_terms,
    generate_core_equations,
    match_pattern,
    ms_sort,
    positions,
    replace_at,
    rewrite_step,
    rewrite_trace,
    subterm_at,
    translate_term,
)

from ostrans.rewrite import _postorder_index

G = GroundTerm
ZERO = G("0")
S0 = G("s", (ZERO,))


# --- positions ---------------------------------------------------------------

def test_position_helpers():
    t = G("+", (ZERO, G("s", (ZERO,))))
    assert positions(t) == [(), (0,), (1,), (1, 0)]
    assert subterm_at(t, (1, 0)) is ZERO
    assert replace_at(t, (1,), ZERO) is G("+", (ZERO, ZERO))
    assert replace_at(t, (), ZERO) is ZERO


def test_position_helpers_handle_deep_terms():
    # Deeper than the interpreter's recursion limit.
    height = 5_000
    t = ZERO
    for _ in range(height):
        t = G("s", (t,))
    bottom = (0,) * height
    replaced = replace_at(t, bottom, G("true"))
    assert subterm_at(replaced, bottom) is G("true")
    assert subterm_at(replaced, bottom[1:]) is G("s", (G("true"),))
    order = _postorder_index(t)
    assert len(order) == height + 1
    assert order[bottom] == 0 and order[()] == height


# --- matching ----------------------------------------------------------------

def test_match_order_sorted(imp):
    sig = imp.signature
    p = PNode("+", (PNode("0", ()), Var("A", "AExp")))
    t = G("+", (ZERO, S0))
    assert match_pattern(sig, p, t) == {"A": S0}
    assert match_pattern(sig, Var("A", "nat"), G("true")) is None
    assert match_pattern(sig, Var("x", "nat"), S0) == {"x": S0}


def test_match_nonlinear_requires_identical_subterms(imp):
    sig = imp.signature
    p = PNode("+", (Var("A", "AExp"), Var("A", "AExp")))
    assert match_pattern(sig, p, G("+", (ZERO, ZERO))) == {"A": ZERO}
    assert match_pattern(sig, p, G("+", (ZERO, S0))) is None


def test_match_many_sorted_exact_variable_sorts(imp_translated):
    ms, _ = imp_translated
    lifted = G("Cast_nat_to_int", (ZERO,))
    assert match_pattern(ms.signature, Var("A", "int"), lifted) == {"A": lifted}
    assert match_pattern(ms.signature, Var("A", "nat"), lifted) is None


def test_match_many_sorted_through_cast_chains(imp_translated):
    # The pattern's chain cuts into the subject's canonical chain; the
    # variable binding picks up the remaining lower chain.
    ms, tm = imp_translated
    pattern = PNode("Cast_int_to_AExp", (Var("A", "int"),))
    subject = core_canonicalize(tm, translate_term(tm, ZERO, expected="AExp"))
    got = match_pattern(ms.signature, pattern, subject)
    assert got == {"A": G("Cast_nat_to_int", (ZERO,))}


def test_match_modulo_core_equality(imp_real_translated):
    # A subject written along the real path still matches an int-path
    # pattern once canonicalized.
    ms, tm = imp_real_translated
    pattern = PNode("Cast_int_to_AExp", (PNode("Cast_nat_to_int", (Var("A", "nat"),)),))
    subject = core_canonicalize(
        tm, G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    )
    assert match_pattern(ms.signature, pattern, subject) == {"A": ZERO}


# --- rewrite steps -----------------------------------------------------------

def test_match_recovers_instantiation(imp):
    # Dual route: instantiate a rule head, then match the head against
    # the instance.  All IMP heads are linear, so the exact binding must
    # come back.
    from ostrans import apply_substitution, variables_of
    sig = imp.signature
    for rule in imp.rules:
        binding = {
            name: next(iter(enumerate_ground_terms(sig, sort=sort, depth=2)))
            for name, sort in variables_of(rule.lhs).items()
        }
        instance = apply_substitution(sig, rule.lhs, binding)
        assert match_pattern(sig, rule.lhs, instance) == binding


def test_rewrite_step_examples(imp):
    results = {s.result for s in rewrite_step(imp, G("-", (G("true"),)))}
    assert G("false") in results
    results = {s.result for s in rewrite_step(imp, G("<=", (ZERO, S0)))}
    assert G("true") in results
    assert rewrite_step(imp, G("emptymap")) == ()


def test_rewrite_step_requires_well_formed_results(imp):
    # Rules only produce terms of the algebra; every result stays inside.
    from ostrans import well_formed_ground
    for t in enumerate_ground_terms(imp.signature, depth=2):
        for step in direct_steps(imp, t):
            assert well_formed_ground(imp.signature, step.result)


def test_rewrite_step_budget_flag(imp):
    with pytest.raises(BudgetExceeded):
        rewrite_step(imp, ZERO, require_exhausted=True)


def test_rewrite_step_class_level():
    # With c = d equationally, a rule matching h(c) also fires from h(d).
    sig = OSSignature(
        ["a"], [],
        [Operator("c", (), "a"), Operator("d", (), "a"), Operator("h", ("a",), "a")],
    )
    alg = OSAlgebra(
        sig,
        (Equation(PNode("c", ()), PNode("d", ())),),
        (Rule(PNode("h", (PNode("c", ()),)), PNode("c", ())),),
    )
    hc, hd = G("h", (G("c"),)), G("h", (G("d"),))
    steps_c = {(s.rule_index, s.result) for s in rewrite_step(alg, hc)}
    steps_d = {(s.rule_index, s.result) for s in rewrite_step(alg, hd)}
    assert steps_c == steps_d != set()


# --- bounded classes ---------------------------------------------------------

def test_e_class_members_example(imp):
    cls = e_class_bounded(imp, G("+", (ZERO, S0)), depth=1)
    assert S0 in cls.members                      # left identity
    assert G("+", (S0, ZERO)) in cls.members      # commutativity
    assert not cls.exhausted


def test_e_class_equation_free_is_exhausted():
    sig = OSSignature(["a"], [], [Operator("c", (), "a")])
    alg = OSAlgebra(sig, (), ())
    cls = e_class_bounded(alg, G("c"), depth=3)
    assert cls.members == (G("c"),)
    assert cls.exhausted


def test_e_class_symmetric_when_exhausted():
    sig = OSSignature(
        ["a"], [],
        [Operator("c", (), "a"), Operator("d", (), "a"), Operator("h", ("a",), "a")],
    )
    alg = OSAlgebra(sig, (Equation(PNode("c", ()), PNode("d", ())),), ())
    for seed in (G("h", (G("c"),)), G("h", (G("d"),)), G("c")):
        cls = e_class_bounded(alg, seed, depth=4)
        assert cls.exhausted
        for member in cls.members:
            back = e_class_bounded(alg, member, depth=4)
            assert back.exhausted
            assert set(back.members) == set(cls.members)


def test_e_class_ms_members_are_canonical(imp_real_translated):
    # The class of a casted constant holds the canonical image of the
    # real-path variant: members are deduplicated through core equality.
    ms, tm = imp_real_translated
    seed = G("Cast_int_to_AExp", (G("Cast_nat_to_int", (ZERO,)),))
    real_variant = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    cls = e_class_bounded(ms, seed, depth=2)
    assert core_canonicalize(tm, real_variant) in cls.members
    for member in cls.members:
        assert core_canonicalize(tm, member) is member


# --- core canonicalization ----------------------------------------------------

def test_core_canonicalize_examples(imp_real_translated):
    _, tm = imp_real_translated
    real_path = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    int_path = G("Cast_int_to_AExp", (G("Cast_nat_to_int", (ZERO,)),))
    assert core_canonicalize(tm, real_path) is int_path
    assert core_canonicalize(tm, int_path) is int_path
    assert core_canonicalize(tm, ZERO) is ZERO
    single = G("Cast_bool_to_BExp", (G("true"),))
    assert core_canonicalize(tm, single) is single


def test_core_equality_decision_matches_search_oracle():
    rng = random.Random(20240614)
    for _ in range(30):
        sig, tm = chain_world(rng, max_sorts=6)
        segments = [segment_of(tm, eq) for eq in generate_core_equations(tm)]
        for bottom in sorted(sig.poset.sorts):
            paths = [p for p in all_paths_from(sig.poset, bottom, 4) if len(p) > 1]
            by_top: dict[str, list[tuple[str, ...]]] = {}
            for p in paths:
                by_top.setdefault(p[-1], []).append(p)
            for group in by_top.values():
                closures = {p: oracle_closure(p, segments) for p in group}
                for p in group:
                    for q in group:
                        canon_equal = (
                            core_canonicalize(tm, chain_term(p))
                            is core_canonicalize(tm, chain_term(q))
                        )
                        assert canon_equal == (q in closures[p]), (p, q)


def test_core_equality_complete_on_dense_poset():
    # Complete order on six sorts: sixteen distinct chains join bottom
    # and top, yet the generated equations connect every pair of them.
    from ostrans import TranslationMap, compute_canonical_paths, generate_cast_operators
    names = [f"s{i}" for i in range(6)]
    pairs = {(names[i], names[j]) for i in range(6) for j in range(i + 1, 6)}
    sig = OSSignature(names, pairs, ())
    tm = TranslationMap(
        source=sig,
        tie_break="lex",
        representative_of={},
        rename_of={},
        casts=generate_cast_operators(sig.poset),
        canonical_path_of=compute_canonical_paths(sig.poset, "lex"),
    )
    segments = [segment_of(tm, eq) for eq in generate_core_equations(tm)]
    chains = [p for p in all_paths_from(sig.poset, names[0], 5) if p[-1] == names[5]]
    assert len(chains) == 16
    closure = oracle_closure(chains[0], segments)
    assert set(chains) <= closure
    assert len({core_canonicalize(tm, chain_term(p)) for p in chains}) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_core_canonicalize_idempotent(seed):
    rng = random.Random(seed)
    sig, tm = chain_world(rng, max_sorts=6)
    for bottom in sig.poset.sorts:
        for path in all_paths_from(sig.poset, bottom, 4):
            if len(path) < 2:
                continue
            once = core_canonicalize(tm, chain_term(path))
            assert core_canonicalize(tm, once) is once


# --- traces ------------------------------------------------------------------

def test_trace_program_term(imp):
    program = G("pgm", (
        G("emptymap"),
        G("seq", (G("assign", (G("v", (ZERO,)), S0)), G("emptyblock"))),
    ))
    trace = rewrite_trace(imp, program)
    assert trace
    assert trace[0].result == G("pgm", (
        G("update", (G("emptymap"), S0, G("v", (ZERO,)))),
        G("emptyblock"),
    ))


def test_trace_normal_form_is_empty(imp):
    assert rewrite_trace(imp, G("emptymap")) == []


def test_trace_translated_correspondence(imp, imp_translated):
    ms, tm = imp_translated
    program = G("pgm", (
        G("emptymap"),
        G("seq", (G("assign", (G("v", (ZERO,)), S0)), G("emptyblock"))),
    ))
    os_trace = rewrite_trace(imp, program)
    ms_trace = rewrite_trace(ms, core_canonicalize(tm, translate_term(tm, program)))
    assert len(os_trace) == len(ms_trace)
    for os_step, ms_step in zip(os_trace, ms_trace):
        assert os_step.rule_index == ms_step.rule_index
        assert core_canonicalize(tm, translate_term(tm, os_step.result)) is ms_step.result


def test_trace_strategies_differ_deterministically(imp):
    # Nested redexes: guess-the-variable inside a comparison.
    t = G("<=", (G("v", (ZERO,)), G("v", (S0,))))
    inner = rewrite_trace(imp, t, strategy="leftmost-innermost", max_steps=1)
    outer = rewrite_trace(imp, t, strategy="leftmost-outermost", max_steps=1)
    assert inner and outer
    breadth = rewrite_trace(imp, t, strategy="exhaustive-breadth", max_steps=10)
    assert {s.result for s in inner} <= {s.result for s in breadth}


def test_ms_steps_preserve_sort(imp_translated):
    ms, _ = imp_translated
    for t in enumerate_ground_terms(ms.signature, depth=2):
        canonical = core_canonicalize(ms.signature, t)
        for step in direct_steps(ms, canonical):
            assert ms_sort(ms.signature, step.result) == ms_sort(ms.signature, canonical)


def _commutative_toy() -> OSAlgebra:
    sig = OSSignature(
        ["a"], [],
        [Operator("c", (), "a"), Operator("d", (), "a"),
         Operator("g", ("a", "a"), "a")],
    )
    comm = Equation(
        PNode("g", (Var("X", "a"), Var("Y", "a"))),
        PNode("g", (Var("Y", "a"), Var("X", "a"))),
    )
    return OSAlgebra(sig, (comm,), ())


def test_exhausted_classes_are_symmetric():
    rng = random.Random(5150)
    algebras = [_commutative_toy()] + [random_algebra(rng) for _ in range(15)]
    checked = 0
    for alg in algebras:
        for t in list(enumerate_ground_terms(alg.signature, depth=2))[:30]:
            cls = e_class_bounded(alg, t, depth=4, max_size=300)
            if not cls.exhausted or len(cls.members) < 2:
                continue
            checked += 1
            for member in cls.members:
                back = e_class_bounded(alg, member, depth=4, max_size=300)
                assert back.exhausted
                assert set(back.members) == set(cls.members)
    assert checked > 0
