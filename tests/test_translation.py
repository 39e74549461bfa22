from __future__ import annotations

import itertools
import random
from importlib import resources

import pytest

from chain_oracle import all_paths_from, chain_term, chain_world
from gen_algebras import random_algebra
from ostrans import terms, translate, validity
from ostrans import (
    BisimConfig,
    Equation,
    GroundTerm,
    IllFormedTerm,
    NoPath,
    NotStrictlySensible,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    RenameCollision,
    Rule,
    UntranslatableSort,
    Var,
    build_poset,
    cast_table,
    check_backward,
    check_forward,
    core_canonicalize,
    enumerate_ground_terms,
    find_diamonds,
    generate_cast_operators,
    generate_core_equations,
    least_sort,
    ms_sort,
    parse_spec,
    print_spec,
    print_term,
    rename_constructors,
    select_representatives,
    strip_casts,
    translate_algebra,
    translate_term,
    validate_algebra,
)
from spec_inputs import wide_spec

G = GroundTerm
ZERO = G("0")

EXPECTED_CASTS = [
    "Cast_Block_to_Stmt",
    "Cast_Id_to_AExp",
    "Cast_bool_to_BExp",
    "Cast_int_to_AExp",
    "Cast_nat_to_int",
]


def test_select_representatives_imp(imp):
    reduced, reps = select_representatives(imp)
    assert len(reduced) == 21
    plus_reps = {reps[op] for op in imp.signature.ops_named("+")}
    assert plus_reps == {
        Operator("+", ("AExp", "AExp"), "AExp"),
        Operator("+", ("BExp", "BExp"), "BExp"),
    }
    minus_reps = {reps[op] for op in imp.signature.ops_named("-")}
    assert minus_reps == {
        Operator("-", ("int",), "int"),
        Operator("-", ("BExp",), "BExp"),
    }
    singleton = Operator("guess", ("Id",), "int")
    assert reps[singleton] == singleton


def test_select_representatives_refuses_non_strict(imp):
    ops = [
        Operator("+", ("nat", "nat"), "nat") if op == Operator("+", ("nat", "nat"), "AExp") else op
        for op in imp.signature.operators
    ]
    sig = OSSignature(imp.signature.sorts, imp.signature.subsort_pairs, ops)
    with pytest.raises(NotStrictlySensible):
        select_representatives(OSAlgebra(sig, (), ()))


def test_rename_constructors_imp(imp):
    reduced, _ = select_representatives(imp)
    renames = rename_constructors(reduced, taken=imp.signature.constructors)
    assert renames[Operator("+", ("AExp", "AExp"), "AExp")] == "+AExp"
    assert renames[Operator("+", ("BExp", "BExp"), "BExp")] == "+BExp"
    assert renames[Operator("-", ("int",), "int")] == "-int"
    assert renames[Operator("-", ("BExp",), "BExp")] == "-BExp"
    assert renames[Operator("guess", ("Id",), "int")] == "guess"


def test_rename_constructors_falls_back_to_argument_sorts():
    # Same constructor, same target, incompatible argument sorts: the
    # second operator's target suffix collides with the first's, so its
    # argument list disambiguates.
    ops = (Operator("f", ("a",), "t"), Operator("f", ("b",), "t"))
    renames = rename_constructors(ops)
    assert renames[Operator("f", ("a",), "t")] == "ft"
    assert renames[Operator("f", ("b",), "t")] == "ft_b"


def test_rename_constructors_collision_is_an_error():
    ops = (Operator("f", ("a",), "t"), Operator("f", ("b",), "t"))
    with pytest.raises(RenameCollision):
        rename_constructors(ops, taken=frozenset({"ft_a", "ft_b"}))


def test_generate_cast_operators_imp(imp):
    casts = generate_cast_operators(imp.signature.poset)
    assert sorted(op.constructor for op in casts.values()) == EXPECTED_CASTS
    assert casts[("nat", "int")] == Operator("Cast_nat_to_int", ("nat",), "int")


def test_generate_cast_operators_edges():
    assert generate_cast_operators(build_poset(["a"], [])) == {}
    single = generate_cast_operators(build_poset(["a", "b"], [("a", "b")]))
    assert single == {("a", "b"): Operator("Cast_a_to_b", ("a",), "b")}
    with pytest.raises(RenameCollision):
        generate_cast_operators(build_poset(["a", "b"], [("a", "b")]),
                                reserved=frozenset({"Cast_a_to_b"}))


def test_canonical_path_choice(imp_translated, imp_real_translated):
    _, tm = imp_translated
    assert tm.table.canonical_path("nat", "AExp") == ("nat", "int", "AExp")
    _, tmr = imp_real_translated
    assert tmr.table.canonical_path("nat", "AExp") == ("nat", "int", "AExp")
    with pytest.raises(NoPath):
        tm.table.canonical_path("bool", "AExp")


def test_canonical_path_revlex(imp_real):
    _, tm = translate_algebra(imp_real, tie_break="revlex")
    assert tm.table.canonical_path("nat", "AExp") == ("nat", "real", "AExp")


def test_translate_term_equation_side(imp_translated):
    _, tm = imp_translated
    side = PNode("+", (PNode("s", (Var("A", "nat"),)), Var("B", "nat")))
    chain = lambda inner: PNode("Cast_int_to_AExp", (PNode("Cast_nat_to_int", (inner,)),))
    expected = PNode("+AExp", (
        chain(PNode("s", (Var("A", "nat"),))),
        chain(Var("B", "nat")),
    ))
    assert translate_term(tm, side) == expected


def test_translate_term_no_cast_when_sorts_match(imp_translated):
    _, tm = imp_translated
    assert translate_term(tm, ZERO, expected="nat") is ZERO


def test_translate_term_single_pair_chain(imp_translated):
    _, tm = imp_translated
    assert translate_term(tm, G("true"), expected="BExp") is G(
        "Cast_bool_to_BExp", (G("true"),)
    )


def test_translate_term_unrelated_expected_sort(imp_translated):
    _, tm = imp_translated
    with pytest.raises(UntranslatableSort):
        translate_term(tm, G("true"), expected="nat")


def test_core_equations_imp_empty(imp_translated):
    _, tm = imp_translated
    assert generate_core_equations(tm) == ()


def test_core_equations_real_extension(imp_real_translated):
    ms, tm = imp_real_translated
    core = generate_core_equations(tm)
    var = Var("A", "nat")
    expected = Equation(
        PNode("Cast_int_to_AExp", (PNode("Cast_nat_to_int", (var,)),)),
        PNode("Cast_real_to_AExp", (PNode("Cast_nat_to_real", (var,)),)),
    )
    assert core == (expected,)
    assert ms.core_equations == frozenset((expected,))


def test_core_equations_chain_only():
    sig = OSSignature(["a", "b", "c"], [("a", "b"), ("b", "c")], [Operator("k", (), "a")])
    _, tm = translate_algebra(OSAlgebra(sig, (), ()))
    assert generate_core_equations(tm) == ()


def test_core_equation_bound_on_complete_dag():
    # Densest eight-sort case: every forward pair declared.  One witness
    # per diverging first edge gives C(8,3) equations, still below 64.
    names = [f"s{i}" for i in range(8)]
    pairs = [(names[i], names[j]) for i in range(8) for j in range(i + 1, 8)]
    sig = OSSignature(names, pairs, ())
    from ostrans import TranslationMap, compute_canonical_paths
    tm = TranslationMap(
        source=sig,
        tie_break="lex",
        representative_of={},
        rename_of={},
        casts=generate_cast_operators(sig.poset),
        canonical_path_of=compute_canonical_paths(sig.poset, "lex"),
    )
    core = generate_core_equations(tm)
    assert len(core) == 56
    assert len(core) < len(names) ** 2


def test_translate_equations_goldens(imp, imp_translated):
    ms, tm = imp_translated
    by_source = dict(zip(imp.equations, ms.equations))
    double_neg = Equation(PNode("-", (PNode("-", (Var("A", "int"),)),)), Var("A", "int"))
    assert by_source[double_neg] == Equation(
        PNode("-int", (PNode("-int", (Var("A", "int"),)),)), Var("A", "int")
    )
    left_id = Equation(PNode("+", (PNode("0", ()), Var("A", "AExp"))), Var("A", "AExp"))
    assert by_source[left_id] == Equation(
        PNode("+AExp", (
            PNode("Cast_int_to_AExp", (PNode("Cast_nat_to_int", (PNode("0", ()),)),)),
            Var("A", "AExp"),
        )),
        Var("A", "AExp"),
    )


def test_translate_rules_goldens(imp, imp_translated):
    ms, tm = imp_translated
    by_source = dict(zip(imp.rules, ms.rules))
    neg_zero = Rule(PNode("-", (PNode("0", ()),)), PNode("0", ()))
    translated = by_source[neg_zero]
    # The right side is cast up to the left side's sort; the left argument
    # position likewise needs its cast (int demanded, nat provided).
    assert translated.rhs == PNode("Cast_nat_to_int", (PNode("0", ()),))
    assert translated.lhs == PNode("-int", (PNode("Cast_nat_to_int", (PNode("0", ()),)),))

    neg_true = Rule(PNode("-", (PNode("true", ()),)), PNode("false", ()))
    assert by_source[neg_true] == Rule(
        PNode("-BExp", (PNode("Cast_bool_to_BExp", (PNode("true", ()),)),)),
        PNode("Cast_bool_to_BExp", (PNode("false", ()),)),
    )


def test_translate_algebra_imp_counts(imp, imp_translated):
    ms, tm = imp_translated
    assert ms.signature.sorts == imp.signature.sorts
    assert len(ms.signature.sorts) == 10
    assert len(ms.signature.operators) == 26
    assert len(ms.signature.non_core) == 5
    assert len(ms.equations) == len(imp.equations) == 17
    assert len(ms.core_equations) == 0
    assert len(ms.rules) == len(imp.rules) == 13


def test_translate_algebra_real_counts(imp_real, imp_real_translated):
    ms, _ = imp_real_translated
    assert len(ms.equations) == len(imp_real.equations) + 1


def test_translate_algebra_empty_subsorts():
    sig = OSSignature(
        ["a", "b"], [],
        [Operator("c", (), "a"), Operator("f", ("a",), "b")],
    )
    alg = OSAlgebra(sig, (Equation(PNode("f", (Var("x", "a"),)), PNode("f", (Var("x", "a"),))),), ())
    ms, tm = translate_algebra(alg)
    assert ms.signature.non_core == frozenset()
    assert {op.constructor for op in ms.signature.operators} == {"c", "f"}
    assert len(ms.equations) == len(alg.equations)


def test_translated_overloads_were_incompatible_at_source(imp_translated, imp):
    # Any two surviving operators from one source constructor must differ
    # at a position whose sorts share no supersort in the source order.
    ms, tm = imp_translated
    poset = imp.signature.poset
    core_ops = [op for op in ms.signature.operators if op not in ms.signature.non_core]
    by_original: dict[str, list[Operator]] = {}
    for op in core_ops:
        by_original.setdefault(tm.original_name_of[op.constructor], []).append(op)
    for group in by_original.values():
        for i, f in enumerate(group):
            for g in group[i + 1:]:
                assert any(
                    not poset.common_supersort_exists(a, b)
                    for a, b in zip(f.arg_sorts, g.arg_sorts)
                )


def test_translation_target_sort_matches_least_sort(imp, imp_translated):
    ms, tm = imp_translated
    for t in enumerate_ground_terms(imp.signature, depth=2):
        assert ms_sort(ms.signature, translate_term(tm, t)) == least_sort(imp.signature, t)


def test_strip_casts_round_trip(imp, imp_translated):
    _, tm = imp_translated
    for t in enumerate_ground_terms(imp.signature, depth=2):
        assert strip_casts(tm, translate_term(tm, t)) is t


def test_strip_casts_reports_the_first_bad_constructor_in_postorder(imp_translated):
    # The children come first: the argument's name is reported, not the root's.
    _, tm = imp_translated
    with pytest.raises(IllFormedTerm, match="'bogusLeft' is not a translated name"):
        strip_casts(tm, G("bogusTop", (G("bogusLeft"), ZERO)))
    with pytest.raises(IllFormedTerm, match="'bogusTop' is not a translated name"):
        strip_casts(tm, G("bogusTop", (G("Cast_nat_to_int", (ZERO,)), ZERO)))


def test_map_and_signature_share_one_table(imp_real):
    ms, tm = translate_algebra(imp_real)
    assert tm.table is cast_table(ms) is cast_table(tm)
    assert tm.table.poset is tm.source.poset


def test_reparsed_signature_builds_its_own_lex_table(imp_real):
    ms, tm = translate_algebra(imp_real)
    reparsed = parse_spec(print_spec(ms), kind="msa").signature
    table = cast_table(reparsed)
    assert table is cast_table(reparsed) and table is not tm.table
    assert table.poset == tm.table.poset
    assert (table.name_of, table.canonical_path_of) == (tm.table.name_of, tm.table.canonical_path_of)
    with pytest.raises(TypeError):
        cast_table(imp_real.signature)


def test_translate_algebra_builds_no_poset(imp_real, count_calls):
    calls = count_calls(build_poset)
    translate_algebra(imp_real)
    assert calls == []


def test_deep_terms_canonicalize_and_strip(imp_real):
    # Deeper than the interpreter's recursion limit, on a fresh table.
    ms, tm = translate_algebra(imp_real)
    nat = ZERO
    for _ in range(5_000):
        nat = G("s", (nat,))
    via_real = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (nat,)),))
    via_int = G("Cast_int_to_AExp", (G("Cast_nat_to_int", (nat,)),))
    assert core_canonicalize(ms.signature, via_real) is via_int
    assert core_canonicalize(ms.signature, via_int) is via_int
    assert strip_casts(tm, via_real) is nat
    # A chain to rewrite at every level of a deep sum.
    real0 = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    int0 = G("Cast_int_to_AExp", (G("Cast_nat_to_int", (ZERO,)),))
    lhs, rhs, source = real0, int0, ZERO
    for _ in range(5_000):
        lhs = G("+AExp", (real0, lhs))
        rhs = G("+AExp", (int0, rhs))
        source = G("+", (ZERO, source))
    assert core_canonicalize(ms.signature, lhs) is rhs
    assert strip_casts(tm, lhs) is source


def test_a_node_over_normal_forms_is_one_step(imp_real, count_calls):
    # Each normal form is recorded as a fixpoint, so a cast built over one
    # takes one combine step, with no walk below it.
    ms, _ = translate_algebra(imp_real)
    via_real = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    normal = core_canonicalize(ms.signature, via_real)
    assert normal is not via_real
    steps = count_calls(translate._canonical_node)
    cast = G("Cast_nat_to_int", (ZERO,))
    assert core_canonicalize(ms.signature, cast) is cast
    assert len(steps) == 1


def test_a_core_node_over_normal_forms_is_its_own_normal_form(imp_real):
    # A node whose head is not a cast, over recorded fixpoints, is its own
    # normal form, recorded as a fixpoint, as a fresh full fold finds.
    ms, tm = translate_algebra(imp_real)
    via_real = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (ZERO,)),))
    normal = core_canonicalize(ms.signature, via_real)
    node = G("+AExp", (normal, normal))
    for _ in range(2):
        assert core_canonicalize(ms.signature, node) is node
        assert tm.table._canon_cache[node] is node
    assert _full_fold(tm.table, node) is node
    # A node over an argument that is not a normal form is rebuilt.
    mixed = G("+AExp", (via_real, normal))
    assert core_canonicalize(ms.signature, mixed) is node is _full_fold(tm.table, mixed)


def _full_fold(table, t):
    """The normal form of ``t`` by a full fold on a fresh copy of ``table``."""
    fresh = translate.CastTable(table.name_of, table.poset, table.canonical_path_of)
    return terms.fold_term(
        t, fresh._canon_cache, translate._itself, translate._canonical_node, fresh)


def test_canonical_matches_a_fresh_full_fold(imp_real):
    ms, tm = translate_algebra(imp_real)
    ms_rev, tm_rev = translate_algebra(imp_real, tie_break="revlex")
    sig = imp_real.signature
    # Cast chains along both tie-breaks, up to every supersort of each
    # term's least sort: the revlex chains are not normal forms under lex.
    subjects = [
        translate_term(t_map, t, expected=top)
        for t in enumerate_ground_terms(sig, depth=2)
        for top in sorted(sig.poset.supersorts(least_sort(sig, t)))
        for t_map in (tm, tm_rev)
    ]
    subjects += [side for alg in (ms, ms_rev) for st in alg.equations + alg.rules
                 for side in (st.lhs, st.rhs)]
    table = tm.table
    for memo in ("cold", "warm"):
        for t in subjects:
            assert table.canonical(t) is _full_fold(table, t), (memo, t)
    assert sum(_full_fold(table, t) is not t for t in subjects) > 50


def _tables(imp, imp_real):
    """``(poset, table, many-sorted terms)`` for the fixtures, subsort
    chains, the three-sort triangle and seeded random posets and algebras.

    The terms are the ground terms of height up to 3 of a translated
    algebra, or every declared cast chain of up to 4 casts.
    """
    out = []
    rng = random.Random(2406)
    for alg in [imp, imp_real] + [random_algebra(rng) for _ in range(30)]:
        ms, tm = translate_algebra(alg)
        out.append((alg.signature.poset, tm.table,
                    list(itertools.islice(enumerate_ground_terms(ms.signature, depth=3), 2000))))
    chains = [(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
              ([f"c{i}" for i in range(6)], [(f"c{i}", f"c{i + 1}") for i in range(5)])]
    worlds = [OSSignature(names, pairs, ()) for names, pairs in chains]
    worlds += [chain_world(rng, 7)[0] for _ in range(60)]
    for sig in worlds:
        table = translate.CastTable(
            {pair: op.constructor for pair, op in generate_cast_operators(sig.poset).items()},
            sig.poset, translate.compute_canonical_paths(sig.poset, "lex"))
        paths = [p for s in sorted(sig.sorts) for p in all_paths_from(sig.poset, s, 4)]
        out.append((sig.poset, table, [chain_term(p) for p in paths]))
    return out


def test_single_chain_tables_are_the_diamond_free_ones(imp, imp_real):
    # A table reads ``single_chain`` off successors and supersorts; it
    # must agree with the path enumeration of ``find_diamonds``, and
    # under it the reference fold must change no term: each is its own
    # normal form.
    tables = _tables(imp, imp_real)
    flags = [table.single_chain for _, table, _ in tables]
    assert flags == [not find_diamonds(poset) for poset, _, _ in tables]
    assert flags[:2] == [True, False]
    assert flags[2 + 30] is False  # the triangle a < b < c with a < c
    assert 10 < sum(flags) < len(flags) - 10
    checked = 0
    for (_, table, subjects), single in zip(tables, flags):
        if single:
            for t in subjects:
                assert _full_fold(table, t) is t, t
                assert table.canonical(t) is t
            checked += len(subjects)
    assert checked > 4000


@pytest.mark.parametrize("fixture, recorded", [("imp", False), ("imp_real", True)])
def test_only_a_table_with_a_diamond_records_normal_forms(request, fixture, recorded):
    alg = request.getfixturevalue(fixture)
    ms, tm = translate_algebra(alg)
    cfg = BisimConfig(term_depth=2)
    report = check_forward(alg, ms, tm, cfg).merge(check_backward(alg, ms, tm, cfg))
    assert report.verdict == "pass"
    assert cast_table(ms) is tm.table
    assert bool(tm.table._canon_cache) is recorded


def test_translate_term_deep(imp_text):
    # Deeper than the interpreter's recursion limit, every cache cold.
    _, tm = translate_algebra(parse_spec(imp_text))
    tower = ZERO
    for _ in range(5_000):
        tower = G("s", (tower,))
    neg, ident = G("-", (tower,)), G("v", (tower,))
    neg_int = G("-int", (G("Cast_nat_to_int", (tower,)),))
    assert translate_term(tm, neg, expected="AExp") is G("Cast_int_to_AExp", (neg_int,))
    want = G("+AExp", (G("Cast_int_to_AExp", (neg_int,)), G("Cast_Id_to_AExp", (ident,))))
    assert translate_term(tm, G("+", (neg, ident))) is want
    assert strip_casts(tm, want) is G("+", (neg, ident))


def test_translating_a_pattern_sorts_each_node_once(imp_text, count_calls):
    # Patterns are not cached, so a node's least sort must come with its
    # child's translation: sorting every child afresh is quadratic.
    _, tm = translate_algebra(parse_spec(imp_text))
    tower = Var("X", "nat")
    for _ in range(5_000):
        tower = PNode("s", (tower,))
    passes = count_calls(terms.fold_term)
    got = translate_term(tm, PNode("-", (tower,)), expected="AExp")
    # The sort check below the root, the translation, one per new plan.
    assert len(passes) <= 4
    # Patterns compare structurally, which recurses; their prints do not.
    assert print_term(got) == print_term(PNode("Cast_int_to_AExp", (
        PNode("-int", (PNode("Cast_nat_to_int", (tower,)),)),
    )))


@pytest.mark.parametrize("name", ["imp.osa", "imp_real.osa"])
def test_translating_a_node_over_translated_children_matches_a_cold_walk(name):
    # A node whose children are translated gets, lifted or not, the
    # translation that a new translation, every cache emptied before each
    # term, gives it.
    text = (resources.files("ostrans") / "fixtures" / name).read_text(encoding="utf-8")
    alg = parse_spec(text)
    sig = alg.signature
    _, warm = translate_algebra(alg)
    _, cold = translate_algebra(parse_spec(text))
    nodes = [t for t in enumerate_ground_terms(sig, depth=2) if t.args]
    assert len(nodes) > 200
    for t in nodes:
        tops = sorted(sig.poset.supersorts(least_sort(sig, t)), reverse=True) + [None]
        for a in t.args:
            translate_term(warm, a)
        got = [translate_term(warm, t, expected=top) for top in tops]
        for cache in (cold._tr_cache, cold._plans, cold.source._least_cache):
            cache.clear()
        assert [translate_term(cold, t, expected=top) for top in tops] == got, t


def test_an_ill_formed_node_over_translated_children_fails_as_before(imp_text):
    # The same message whether the children are translated or not, and no
    # translation is cached for the node.
    for t in (G("s", (G("true"),)), G("+", (G("true"), G("s", (ZERO,)))),
              G("v", (G("-", (ZERO,)),))):
        messages = []
        for warm in (False, True):
            _, tm = translate_algebra(parse_spec(imp_text))
            if warm:
                for a in t.args:
                    translate_term(tm, a)
            with pytest.raises(IllFormedTerm) as raised:
                translate_term(tm, t)
            messages.append(str(raised.value))
            assert t not in tm._tr_cache
        assert messages[0] == messages[1], t


def test_tie_break_independence_small(imp_real):
    ms_a, tm_a = translate_algebra(imp_real, tie_break="lex")
    ms_b, tm_b = translate_algebra(imp_real, tie_break="revlex")
    for t in enumerate_ground_terms(imp_real.signature, depth=2):
        lhs = core_canonicalize(tm_a, translate_term(tm_a, t))
        rhs = core_canonicalize(tm_a, translate_term(tm_b, t))
        assert lhs is rhs


def test_rule_and_equation_counts_on_random_algebras():
    rng = random.Random(411)
    for _ in range(25):
        alg = random_algebra(rng)
        ms, tm = translate_algebra(alg)
        assert len(ms.rules) == len(alg.rules)
        assert len(ms.equations) == len(alg.equations) + len(ms.core_equations)
        assert ms.signature.sorts == alg.signature.sorts


def test_spec_pipeline_sorts_each_side_once(count_calls):
    # Parse, validate, translate, print and parse again, as the benchmark's
    # spec_wide does: each algebra sorts each statement side once and
    # walks its variables once; the translation folds each source side.
    text = wide_spec(5, copies=4)
    folds, walks = count_calls(terms.fold_term), count_calls(terms.variables_of)
    alg = parse_spec(text)
    validate_algebra(alg)
    ms, _ = translate_algebra(alg)
    again = parse_spec(print_spec(ms), kind="msa")
    os_sides = 2 * (len(alg.equations) + len(alg.rules))
    ms_sides = 2 * (len(ms.equations) + len(ms.rules))
    assert again == ms and (os_sides, ms_sides) == (240, 248)
    assert len(folds) <= os_sides + 2 * ms_sides + os_sides
    assert len(walks) <= os_sides + 2 * ms_sides


def test_translation_reuses_the_validity_report(count_calls):
    alg = parse_spec(wide_spec(5, copies=2))
    checks = count_calls(validity.check_sensible)
    report = validate_algebra(alg)
    translate_algebra(alg)
    assert len(checks) == 1
    assert validate_algebra(alg) is report


def test_unknown_tie_break_is_refused_before_any_work():
    # With no subsort pairs no path is ever chosen, so nothing later
    # would reject the name.
    alg = parse_spec("algebra a\nsorts n\nop 0 : -> n\n")
    with pytest.raises(ValueError, match="unknown tie_break 'bogus'"):
        translate_algebra(alg, tie_break="bogus")
    assert alg._validity is None


def test_ill_formed_pattern_is_reported_below_the_root(imp_translated):
    # Only a pattern whose root already has a least sort, such as a side
    # the algebra sorted, skips the check below the root.
    _, tm = imp_translated
    bad = PNode("s", (PNode("s", (PNode("true", ()),)),))
    with pytest.raises(IllFormedTerm, match=r"no operator admits s\(true\) \(children sorted"):
        translate_term(tm, bad)
