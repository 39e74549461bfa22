from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

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
    parse_spec,
    positions,
    replace_at,
    rewrite,
    rewrite_step,
    rewrite_trace,
    subterm_at,
    translate_algebra,
    translate_term,
)

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
    # Two redexes, at the root and below the tower: the trace strategies
    # order their positions by key, with no walk of the term.
    nat = OSSignature({"n"}, set(), [Operator("0", (), "n"), Operator("s", ("n",), "n"),
                                     Operator("g", ("n",), "n")])
    drop_g = OSAlgebra(nat, rules=[Rule(PNode("g", (Var("X", "n"),)), Var("X", "n"))])
    u = G("g", (replace_at(t, bottom, G("g", (ZERO,))),))
    inner, = rewrite_trace(drop_g, u, "leftmost-innermost", max_steps=1)
    outer, = rewrite_trace(drop_g, u, "leftmost-outermost", max_steps=1)
    assert inner.position == (0,) + bottom and inner.result is G("g", (t,))
    assert outer.position == () and outer.result is u.args[0]


def test_deep_terms_rewrite_on_both_sides(imp_text):
    # -(s^2000(0)) and its translation, deeper than the recursion limit,
    # with every cache cold: neither the translation, the redex search nor
    # the class search may recurse.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    t = ZERO
    for _ in range(2_000):
        t = G("s", (t,))
    t = G("-", (t,))
    for a, u in ((alg, t), (ms, translate_term(tm, t))):
        assert direct_steps(a, u) == []
        cls = e_class_bounded(a, u, 2, 50)
        assert cls.members[0] is u and len(cls.members) > 1


def test_redex_beside_a_deep_sibling_on_both_sides(imp_text):
    # +(s^2000(0), -(0)): the redex sits beside a tower whose sorts were
    # never computed, so checking the composed result +(s^2000(0), 0)
    # computes them, and must not recurse.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    tower = ZERO
    for _ in range(2_000):
        tower = G("s", (tower,))
    u = G("+", (tower, G("-", (ZERO,))))
    want = G("+", (tower, ZERO))
    steps = direct_steps(alg, u)
    assert [(s.rule_index, s.position, s.result) for s in steps] == [(0, (1,), want)]
    ms_steps = direct_steps(ms, translate_term(tm, u))
    assert [(s.rule_index, s.position) for s in ms_steps] == [(0, (1, 0))]
    assert ms_steps[0].result is translate_term(tm, want)


def test_only_proper_subterms_keep_result_lists(imp_text):
    # A memo entry per subject would grow with every term a check visits;
    # only the subterms that later subjects share keep theirs.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    t = G("+", (G("-", (G("true"),)), G("-", (G("false"),))))
    for a, u in ((alg, t), (ms, translate_term(tm, t))):
        steps = direct_steps(a, u)
        assert {s.position for s in steps} == {(), (0,), (1,)}
        memo = a._rule_index.memo
        assert u not in memo
        assert all(memo[c] is not rewrite.CLEAN for c in u.args)


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


def test_deep_rule_sides_rewrite_on_both_sides():
    # A left side deeper than the recursion limit: compiling, matching and
    # instantiating it use explicit stacks.
    side = "s(" * 3000 + "0" + ")" * 3000
    alg = parse_spec(f"algebra d\nsorts n\nop 0 : -> n\nop s : n -> n\nrule {side} => 0\n")
    ms, tm = translate_algebra(alg)
    t = ZERO
    for _ in range(3000):
        t = G("s", (t,))
    for a, u in ((alg, t), (ms, translate_term(tm, t))):
        for steps in (direct_steps(a, u), rewrite_step(a, u)):
            assert [(s.rule_index, s.position, s.result) for s in steps] == [(0, (), ZERO)]
        assert direct_steps(a, u.args[0]) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_rewrite_step_pauses_the_collector_and_restores_it(imp, monkeypatch, enabled):
    seen = []
    search = rewrite.direct_steps

    def recording(alg, u):
        seen.append(gc.isenabled())
        return search(alg, u)

    monkeypatch.setattr(rewrite, "direct_steps", recording)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert rewrite_step(imp, G("-", (G("true"),)))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


def test_rewrite_step_restores_the_collector_when_the_budget_is_hit(imp):
    assert gc.isenabled()
    with pytest.raises(BudgetExceeded):
        rewrite_step(imp, ZERO, require_exhausted=True)
    assert gc.isenabled()


def test_rewrite_step_leaves_no_collection_due(imp_text, collections_in):
    # What the call keeps leaves it in the oldest generation, so no young
    # collection walks it afterwards.
    alg = parse_spec(imp_text)
    steps, started = collections_in(lambda: rewrite_step(alg, G("+", (ZERO, S0))))
    assert steps and started == []


def test_rewrite_step_keeps_what_the_caller_froze_frozen(imp_text):
    alg = parse_spec(imp_text)
    marker = [[]]
    gc.freeze()
    try:
        assert rewrite_step(alg, G("+", (ZERO, S0)))
        assert gc.get_freeze_count() > 0
        assert not any(o is marker for o in gc.get_objects())
    finally:
        gc.unfreeze()


def test_rewrite_step_with_the_collector_off_leaves_the_generations_alone(imp_text):
    alg = parse_spec(imp_text)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        frozen = gc.get_freeze_count()
        steps = rewrite_step(alg, G("+", (ZERO, S0)))
        assert not gc.isenabled()
        assert gc.get_count()[1:] == (0, 0)
        assert gc.get_freeze_count() == frozen
        assert any(o is steps[0] for o in gc.get_objects(generation=0))
    finally:
        if was_enabled:
            gc.enable()


def test_rewrite_step_leaves_no_cyclic_garbage(imp_text):
    # The collector is off while the class search runs, so whatever cycles
    # it made would pile up until a full collection: there must be none.
    alg = parse_spec(imp_text)
    gc.collect()
    assert rewrite_step(alg, G("+", (ZERO, S0)))
    assert gc.collect() == 0


def test_the_collector_is_frozen_at_exit():
    # Handlers run last-registered first, so one registered before the
    # import runs after the package's own.
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "import ostrans\n")
    src = str(Path(rewrite.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "True\n"


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
            var = Var("X", bottom)
            over_var = tm.table.wrap_along(var, path)
            ground_part = tm.table.wrap_along(PNode(f"base_{bottom}"), path)
            # Ground chains, chains over a variable, a pattern node over one
            # and a variable-free chain, and the bare variable.
            for t in (chain_term(path), over_var, PNode("pair", (over_var, ground_part)), var):
                once = core_canonicalize(tm, t)
                assert core_canonicalize(tm, once) is once
            assert core_canonicalize(tm, var) is var
            assert core_canonicalize(tm, over_var) is tm.table.wrap_canonical(
                var, bottom, path[-1])


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
