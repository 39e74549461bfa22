"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria that quantify over "all terms of depth <= 4" are checked by an
exhaustive sweep up to depth 3 plus a representative sweep of depth 4.
The depth-4 layer of the IMP fixture holds over 10^8 terms, far beyond
what any engine can materialize in a minute; soundness of the reduction:
both the least sort and the translated term's target sort of
``f(c1..cn)`` are functions of ``f`` and the children's least sorts
alone, so checking one witness per realizable (operator, child-sort
vector) combination, after all children have been verified exhaustively,
covers every depth-4 term's resolution path.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import product

from chain_oracle import all_paths_from, chain_term, chain_world, oracle_closure, segment_of
from gen_algebras import random_algebra, random_dag_pairs
from ostrans import (
    BisimConfig,
    Equation,
    GroundTerm,
    Operator,
    OSSignature,
    PNode,
    TranslationMap,
    Var,
    core_canonicalize,
    enumerate_ground_terms,
    generate_core_equations,
    least_sort,
    ms_sort,
    parse_spec,
    print_spec,
    run_bisim,
    translate_algebra,
    translate_term,
)

G = GroundTerm


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_01_imp_cast_generation(imp_translated):
    with criterion(1, "imp-cast-generation"):
        ms, _ = imp_translated
        casts = sorted(op.constructor for op in ms.signature.non_core)
        assert casts == [
            "Cast_Block_to_Stmt",
            "Cast_Id_to_AExp",
            "Cast_bool_to_BExp",
            "Cast_int_to_AExp",
            "Cast_nat_to_int",
        ]
        assert {(op.arg_sorts[0], op.target_sort) for op in ms.signature.non_core} == {
            ("nat", "int"), ("int", "AExp"), ("Id", "AExp"),
            ("bool", "BExp"), ("Block", "Stmt"),
        }


def test_02_imp_overload_collapse(imp, imp_translated):
    with criterion(2, "imp-overload-collapse"):
        assert len(imp.signature.ops_named("+")) == 5
        ms, _ = imp_translated
        plus = sorted(
            op for op in ms.signature.operators if op.constructor.startswith("+")
        )
        assert plus == [
            Operator("+AExp", ("AExp", "AExp"), "AExp"),
            Operator("+BExp", ("BExp", "BExp"), "BExp"),
        ]


def test_03_equation_count_bound(imp, imp_translated, imp_real, imp_real_translated):
    with criterion(3, "equation-count-bound"):
        ms, _ = imp_translated
        assert len(ms.equations) == len(imp.equations)
        assert len(ms.core_equations) == 0

        ms_real, _ = imp_real_translated
        assert len(ms_real.equations) == len(imp_real.equations) + 1
        var = Var("A", "nat")
        assert set(ms_real.core_equations) == {Equation(
            PNode("Cast_int_to_AExp", (PNode("Cast_nat_to_int", (var,)),)),
            PNode("Cast_real_to_AExp", (PNode("Cast_nat_to_real", (var,)),)),
        )}

        rng = random.Random(33001)
        posets_with_diamonds = 0
        for _ in range(200):
            names, pairs = random_dag_pairs(rng, max_sorts=8)
            sig = OSSignature(names, pairs, ())
            tm = TranslationMap(
                source=sig,
                tie_break="lex",
                representative_of={},
                rename_of={},
            )
            core = generate_core_equations(tm)
            assert len(core) < len(names) ** 2, (names, pairs, len(core))
            posets_with_diamonds += bool(core)
        assert posets_with_diamonds > 20  # the bound was actually exercised


def test_04_rule_count_preservation(imp, imp_translated):
    with criterion(4, "rule-count-preservation"):
        ms, _ = imp_translated
        assert len(ms.rules) == len(imp.rules) == 13
        rng = random.Random(44001)
        for _ in range(100):
            alg = random_algebra(rng)
            translated, _ = translate_algebra(alg)
            assert len(translated.rules) == len(alg.rules)


def test_05_rule_translation_golden(imp, imp_translated):
    with criterion(5, "rule-translation-golden"):
        ms, _ = imp_translated
        neg_zero = PNode("-", (PNode("0", ()),))
        index = next(i for i, r in enumerate(imp.rules) if r.lhs == neg_zero)
        translated = ms.rules[index]
        assert translated.rhs == PNode("Cast_nat_to_int", (PNode("0", ()),))
        # Left side carries the argument cast the general scheme inserts.
        assert translated.lhs == PNode("-int", (PNode("Cast_nat_to_int", (PNode("0", ()),)),))


def test_06_translated_overloads_differ_incompatibly():
    with criterion(6, "overload-incompatibility"):
        rng = random.Random(66001)
        sharing_pairs = 0
        for _ in range(200):
            alg = random_algebra(rng)
            ms, tm = translate_algebra(alg)
            poset = alg.signature.poset
            core_ops = [
                op for op in ms.signature.operators
                if op not in ms.signature.non_core
            ]
            by_original: dict[str, list[Operator]] = {}
            for op in core_ops:
                by_original.setdefault(tm.original_name_of[op.constructor], []).append(op)
            for group in by_original.values():
                for i, f in enumerate(group):
                    for g in group[i + 1:]:
                        sharing_pairs += 1
                        if f.arity != g.arity:
                            continue
                        assert any(
                            not poset.common_supersort_exists(a, b)
                            for a, b in zip(f.arg_sorts, g.arg_sorts)
                        ), (f, g)
        assert sharing_pairs > 20  # constructor sharing was actually exercised


def test_07_core_equality_matches_search_oracle():
    with criterion(7, "core-equality-vs-oracle"):
        rng = random.Random(77001)
        diamond_worlds = 0
        for _ in range(40):
            sig, tm = chain_world(rng, max_sorts=6)
            segments = [segment_of(tm, eq) for eq in generate_core_equations(tm)]
            diamond_worlds += bool(segments)
            for bottom in sorted(sig.poset.sorts):
                chains = [
                    p for p in all_paths_from(sig.poset, bottom, 4) if len(p) > 1
                ]
                by_top: dict[str, list] = {}
                for p in chains:
                    by_top.setdefault(p[-1], []).append(p)
                for group in by_top.values():
                    closures = {p: oracle_closure(p, segments) for p in group}
                    for p in group:
                        for q in group:
                            decided = (
                                core_canonicalize(tm, chain_term(p))
                                is core_canonicalize(tm, chain_term(q))
                            )
                            assert decided == (q in closures[p]), (p, q)
        assert diamond_worlds > 5  # equality became non-trivial somewhere


def _depth4_signature_witnesses(sig, depth3_terms):
    """One witness term per (operator, child-least-sort vector) realizable
    with children of height up to 3."""
    representative: dict[str, GroundTerm] = {}
    for t in depth3_terms:
        representative.setdefault(least_sort(sig, t), t)
    witnesses = []
    realizable = sorted(representative)
    for op in sig.operators:
        if op.arity == 0:
            continue
        for vector in product(realizable, repeat=op.arity):
            if not all(sig.poset.leq(s, want) for s, want in zip(vector, op.arg_sorts)):
                continue
            witnesses.append(G(op.constructor, tuple(representative[s] for s in vector)))
    return witnesses


def test_08_translation_preserves_least_sort(imp, imp_translated):
    with criterion(8, "translated-target-sort"):
        ms, tm = imp_translated
        sig = imp.signature
        depth3 = list(enumerate_ground_terms(sig, depth=3))
        for t in depth3:
            assert ms_sort(ms.signature, translate_term(tm, t)) == least_sort(sig, t)
        checked = len(depth3)
        for t in _depth4_signature_witnesses(sig, depth3):
            assert ms_sort(ms.signature, translate_term(tm, t)) == least_sort(sig, t)
            checked += 1
        assert checked > len(depth3)


def test_09_tie_break_independence(imp_real):
    with criterion(9, "tie-break-independence"):
        _, tm_lex = translate_algebra(imp_real, tie_break="lex")
        _, tm_rev = translate_algebra(imp_real, tie_break="revlex")
        assert tm_lex.table.canonical_path("nat", "AExp") != tm_rev.table.canonical_path("nat", "AExp")
        sig = imp_real.signature
        depth3 = list(enumerate_ground_terms(sig, depth=3))
        for t in depth3 + _depth4_signature_witnesses(sig, depth3):
            lhs = core_canonicalize(tm_lex, translate_term(tm_lex, t))
            rhs = core_canonicalize(tm_lex, translate_term(tm_rev, t))
            assert lhs is rhs, t


def test_10_bisimulation(imp):
    with criterion(10, "bisimulation"):
        report = run_bisim(imp, BisimConfig(term_depth=3, eclass_depth=5))
        assert report.forward_failures == []
        assert report.backward_failures == []
        assert report.skipped_unexhausted == 0
        assert not report.truncated

        rng = random.Random(101001)
        random_steps = 0
        for _ in range(50):
            alg = random_algebra(rng, max_sorts=5, max_ops=8, max_eqs=4, max_rules=4)
            small = run_bisim(alg, BisimConfig(
                term_depth=3, eclass_depth=5, max_terms=5000,
            ))
            assert small.forward_failures == [], alg
            assert small.backward_failures == [], alg
            assert small.skipped_unexhausted == 0, alg
            random_steps += small.steps_checked
        assert random_steps > 100  # the random suite actually took steps


def test_11_round_trip(imp):
    with criterion(11, "spec-round-trip"):
        assert parse_spec(print_spec(imp)) == imp
        rng = random.Random(111001)
        for _ in range(100):
            alg = random_algebra(rng)
            assert parse_spec(print_spec(alg)) == alg
