from __future__ import annotations

import random

import pytest

from gen_algebras import random_algebra
from ostrans import (
    CastNameReserved,
    DuplicateDeclaration,
    GroundTerm,
    SpecSyntaxError,
    SpecUnknownSort,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    enumerate_ground_terms,
    least_sort,
    parse_spec,
    parse_term_text,
    print_spec,
    print_term,
    translate_algebra,
    translate_term,
)
from ostrans.terms import _check_statement

G = GroundTerm


def test_imp_fixture_counts(imp):
    assert len(imp.signature.sorts) == 10
    assert len(imp.signature.subsort_pairs) == 5
    assert len(imp.signature.operators) == 26
    assert len(imp.equations) == 17
    assert len(imp.rules) == 13


def test_empty_file_is_a_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse_spec("")


def test_cast_names_are_reserved_in_order_sorted_files():
    text = "algebra t\nsorts a b\nop Cast_a_to_b : a -> b\n"
    with pytest.raises(CastNameReserved):
        parse_spec(text)


def test_cast_named_operator_must_match_profile_in_msa():
    good = "algebra t\nsorts a b\nop c : -> a\nop Cast_a_to_b : a -> b\n"
    alg = parse_spec(good, kind="msa")
    assert len(alg.signature.non_core) == 1
    bad = "algebra t\nsorts a b\nop c : -> a\nop Cast_a_to_b : b -> b\n"
    with pytest.raises(CastNameReserved):
        parse_spec(bad, kind="msa")


def test_cast_name_splits_at_every_to_between_declared_sorts():
    op = "op Cast_a_to_b_to_c : a -> b_to_c\n"
    # Both (a, b_to_c) and (a_to_b, c) are declared pairs: ambiguous.
    with pytest.raises(CastNameReserved, match="unique sort pair"):
        parse_spec("algebra t\nsorts a a_to_b b_to_c c\n" + op, kind="msa")
    alg = parse_spec("algebra t\nsorts a b_to_c\n" + op, kind="msa")
    (cast,) = alg.signature.non_core
    assert (cast.arg_sorts, cast.target_sort) == (("a",), "b_to_c")


def test_duplicate_declarations_rejected():
    with pytest.raises(DuplicateDeclaration):
        parse_spec("algebra t\nsorts a a\n")
    with pytest.raises(DuplicateDeclaration):
        parse_spec("algebra t\nsorts a b\nsubsorts a < b; a < b\n")
    with pytest.raises(DuplicateDeclaration):
        parse_spec("algebra t\nsorts a\nop c : -> a\nop c : -> a\n")


def test_unknown_sort_has_span():
    text = "algebra t\nsorts a\nop c : -> b\n"
    with pytest.raises(SpecUnknownSort) as info:
        parse_spec(text)
    assert info.value.line == 3
    assert info.value.col > 0


def test_syntax_error_has_span():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec("algebra t\nsorts a\nop c :\n")
    assert info.value.line in (3, 4)


def test_unknown_constructor_in_term():
    text = "algebra t\nsorts a\nop c : -> a\neq ghost = c\n"
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


@pytest.mark.parametrize("rule_first", [True, False])
def test_first_bad_statement_in_file_order_is_reported(rule_first):
    # A rule with a variable left side and an equation whose sides have
    # different sorts: the algebra checks equations before rules, the
    # elaborator checks each statement where the file has it.
    rule, eq = "rule X:a => c", "eq c = d"
    body = [rule, eq] if rule_first else [eq, rule]
    text = "algebra t\nsorts a b\nop c : -> a\nop d : -> b\n" + "\n".join(body) + "\n"
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(text, kind="msa")
    assert (info.value.line, info.value.col) == (5, 1)
    assert info.value.message == (
        "rule left side must start with a constructor: X:a" if rule_first
        else "equation sides have different sorts: c = d")


@pytest.mark.parametrize("later", ["eq c = c\neq c = c", "eq ghost = c"])
def test_bad_statement_is_reported_before_a_later_error(later):
    # A duplicate or an unknown constructor further down is found first,
    # yet the bad rule above it is the first error in the file.
    text = "algebra t\nsorts a\nop c : -> a\nrule X:a => c\n" + later + "\n"
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(text)
    assert (info.value.line, info.value.col) == (4, 1)


def test_each_statement_is_checked_once(imp_text, count_calls):
    calls = count_calls(_check_statement)
    alg = parse_spec(imp_text)
    assert len(calls) == len(alg.equations) + len(alg.rules) == 30


def test_subsorts_rejected_in_msa():
    with pytest.raises(SpecSyntaxError):
        parse_spec("algebra t\nsorts a b\nsubsorts a < b\n", kind="msa")


def test_round_trip_imp(imp):
    assert parse_spec(print_spec(imp)) == imp


def test_round_trip_translated_imp(imp_translated):
    ms, _ = imp_translated
    reparsed = parse_spec(print_spec(ms), kind="msa")
    assert reparsed == ms
    assert reparsed.core_equations == ms.core_equations


def test_round_trip_translated_real(imp_real_translated):
    ms, _ = imp_real_translated
    reparsed = parse_spec(print_spec(ms), kind="msa")
    assert reparsed == ms
    assert len(reparsed.core_equations) == 1


def test_round_trip_random_algebras():
    rng = random.Random(808)
    for _ in range(20):
        alg = random_algebra(rng)
        assert parse_spec(print_spec(alg)) == alg
        ms, _ = translate_algebra(alg)
        assert parse_spec(print_spec(ms), kind="msa") == ms


def test_print_is_deterministic(imp):
    assert print_spec(imp) == print_spec(imp)


def test_printed_translation_lists_every_cast(imp_translated):
    ms, _ = imp_translated
    text = print_spec(ms)
    for name in ("Cast_nat_to_int", "Cast_int_to_AExp", "Cast_Id_to_AExp",
                 "Cast_bool_to_BExp", "Cast_Block_to_Stmt"):
        assert f"op {name} : " in text


def test_minimal_document():
    alg = parse_spec("algebra tiny\nsorts a\nop c : -> a\n")
    assert print_spec(alg).count("\n") <= 7
    assert parse_spec(print_spec(alg)) == alg


def test_term_print_parse_round_trip(imp):
    for t in enumerate_ground_terms(imp.signature, depth=2):
        assert parse_term_text(print_term(t), imp.signature) is t


def test_parse_term_rejects_variables(imp):
    with pytest.raises(SpecSyntaxError):
        parse_term_text("A:nat", imp.signature)


def test_parse_term_rejects_ill_formed(imp):
    # At a token: a constructor not declared with its arity, or else the first
    # node in preorder that no operator admits over well-formed arguments.
    for text, message in [
        ("s(true)", "1:1: term is not well-formed in the signature"),
        ("+(0, bogus(0))", "1:6: unknown constructor 'bogus'"),
        ("s(0, 0)", "1:1: constructor 's' used with 2 arguments"),
        ("  +(0, s(true))", "1:8: term is not well-formed in the signature"),
        ("+(s(true), bogus(0))", "1:3: term is not well-formed in the signature"),
    ]:
        with pytest.raises(SpecSyntaxError) as info:
            parse_term_text(text, imp.signature)
        assert str(info.value) == message


def test_symbolic_constructors_tokenize(imp):
    t = parse_term_text("<=(+(0, 0), -(0))", imp.signature)
    assert t is G("<=", (G("+", (G("0"), G("0"))), G("-", (G("0"),))))


def test_deep_term_parses_and_prints_back(imp_text):
    # +(s^10000(0), -(0)): far deeper than the recursion limit, so the
    # term parser, like every layer after it, must not recurse.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    text = "+(" + "s(" * 10_000 + "0" + ")" * 10_000 + ", -(0))"
    t = parse_term_text(text, alg.signature)
    assert least_sort(alg.signature, t) == "AExp"
    u = translate_term(tm, t)
    assert core_canonicalize(ms.signature, u) is u
    assert len(direct_steps(alg, t)) == 1 and len(direct_steps(ms, u)) == 1
    assert print_term(t) == text


def test_deep_statement_sides_round_trip():
    # Sides of height 3,000 on both statement kinds: parsing checks them
    # for duplicates, and the algebras key them, without walking them.
    # Indexing and matching them take explicit stacks, so both sides
    # rewrite and close the subject under the equation too.
    side = "s(" * 3000 + "0" + ")" * 3000
    text = (
        "algebra d\nsorts n\nop 0 : -> n\nop s : n -> n\n"
        f"eq {side} = 0\nrule {side} => 0\n"
    )
    alg = parse_spec(text)
    assert print_term(alg.rules[0].lhs) == side
    ms, tm = translate_algebra(alg)
    assert parse_spec(print_spec(alg)) == alg
    assert parse_spec(print_spec(ms), kind="msa") == ms
    t = parse_term_text(side, alg.signature)
    for a, u in ((alg, t), (ms, translate_term(tm, t))):
        assert [s.result for s in direct_steps(a, u)] == [G("0")]
        assert e_class_bounded(a, u, 1, 10).members[:2] == (u, G("0"))
