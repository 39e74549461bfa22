from __future__ import annotations

import gc
import random
from functools import partial

import pytest

from gen_algebras import random_algebra
from ostrans import (
    BisimConfig,
    BisimReport,
    GroundTerm,
    MSAlgebra,
    NotStrictlySensible,
    OSAlgebra,
    PNode,
    Rule,
    RewriteConfig,
    RewriteStep,
    bisim,
    cast_table,
    check_backward,
    check_forward,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    enumerate_ground_terms,
    least_sort,
    parse_spec,
    replace_at,
    run_bisim,
    strip_casts,
    translate_algebra,
    translate_term,
    validate_algebra,
)
from ostrans.rewrite import CLEAN, RedexIndex, _entry, rule_redexes

G = GroundTerm
ZERO = G("0")
S0 = G("s", (ZERO,))


def test_enumerate_nat_depth_two(imp):
    got = list(enumerate_ground_terms(imp.signature, sort="nat", depth=2))
    assert got == [ZERO, S0, G("s", (S0,))]


def test_enumerate_depth_zero_is_constants(imp):
    got = set(enumerate_ground_terms(imp.signature, depth=0))
    assert got == {ZERO, G("true"), G("false"), G("emptyblock"), G("emptymap")}


def test_enumerate_bool_depth_zero(imp):
    got = set(enumerate_ground_terms(imp.signature, sort="bool", depth=0))
    assert got == {G("true"), G("false")}


def test_enumerate_is_deterministic(imp):
    first = list(enumerate_ground_terms(imp.signature, depth=2))
    second = list(enumerate_ground_terms(imp.signature, depth=2))
    assert first == second


def test_enumerate_many_sorted_exact(imp_translated):
    ms, _ = imp_translated
    got = list(enumerate_ground_terms(ms.signature, sort="int", depth=1))
    assert G("Cast_nat_to_int", (ZERO,)) in got
    assert ZERO not in got


def test_forward_mirror_of_negation(imp, imp_translated):
    # -(true) steps to false; the translated term steps to the casted false.
    ms, tm = imp_translated
    source = core_canonicalize(tm, translate_term(tm, G("-", (G("true"),))))
    results = {s.result for s in direct_steps(ms, source)}
    assert G("Cast_bool_to_BExp", (G("false"),)) in results


def test_forward_mirror_of_negated_zero(imp, imp_translated):
    # -(0) steps to 0; the mirror lands on the casted zero.
    ms, tm = imp_translated
    source = core_canonicalize(tm, translate_term(tm, G("-", (ZERO,))))
    results = {s.result for s in direct_steps(ms, source)}
    assert G("Cast_nat_to_int", (ZERO,)) in results


def test_backward_preimage_of_negation(imp, imp_translated):
    ms, tm = imp_translated
    p = G("-BExp", (G("Cast_bool_to_BExp", (G("true"),)),))
    assert strip_casts(tm, p) is G("-", (G("true"),))
    os_results = {s.result for s in direct_steps(imp, G("-", (G("true"),)))}
    assert G("false") in os_results


def test_forward_report_is_clean(imp, imp_translated):
    ms, tm = imp_translated
    report = check_forward(imp, ms, tm, BisimConfig(term_depth=2))
    assert report.terms_checked > 0
    assert report.steps_checked > 0
    assert report.forward_failures == []
    assert report.skipped_unexhausted == 0


def test_backward_report_counts_non_image_terms(imp, imp_translated):
    ms, tm = imp_translated
    report = check_backward(imp, ms, tm, BisimConfig(term_depth=1))
    assert report.backward_failures == []
    # Root-cast terms such as Cast_nat_to_int(0) mirror no source term.
    assert report.not_in_image > 0


def test_revlex_translation_and_its_signature_share_canonical_forms(imp_real, monkeypatch):
    ms, tm = translate_algebra(imp_real, tie_break="revlex")
    backward = check_backward(imp_real, ms, tm, BisimConfig(term_depth=3))
    # The same counts as under lex: only root-cast terms fall outside the image.
    assert (backward.not_in_image, backward.steps_checked) == (18, 131)
    calls = []

    def counted(*args):
        calls.append(args)
        return e_class_bounded(*args)

    monkeypatch.setattr(bisim, "e_class_bounded", counted)
    forward = check_forward(imp_real, ms, tm, BisimConfig(term_depth=2))
    assert forward.passed and forward.steps_checked > 0
    assert calls == []
    assert cast_table(ms) is cast_table(tm)


def test_run_bisim_small_depth_passes(imp):
    report = run_bisim(imp, BisimConfig(term_depth=2))
    assert report.passed
    assert report.skipped_unexhausted == 0
    assert not report.truncated


def test_run_bisim_rejects_sort_increasing_rule(imp):
    bad_rule = Rule(PNode("0", ()), PNode("-", (PNode("0", ()),)))
    bad = OSAlgebra(imp.signature, imp.equations, imp.rules + (bad_rule,))
    with pytest.raises(NotStrictlySensible):
        run_bisim(bad, BisimConfig(term_depth=1))


def test_run_bisim_validates_once(imp, count_calls):
    calls = count_calls(validate_algebra)
    run_bisim(imp, BisimConfig(term_depth=1))
    assert len(calls) == 1


def test_run_bisim_replays_each_subject_once(imp, count_calls, monkeypatch):
    # Results are composed from memoised child results, never rebuilt
    # along a spine, and each direction searches a subject at most once
    # on each side for all of its steps: through ``rule_redexes``, or,
    # forward, by composing the subject's list from its children's
    # entries, a list the memo does not keep.
    spine = count_calls(replace_at)
    searched = count_calls(rule_redexes)
    compose, composed = RedexIndex._compose, []

    def recording(index, node, hits, below):
        out = compose(index, node, hits, below)
        composed.append((index, node, out))
        return out

    monkeypatch.setattr(RedexIndex, "_compose", recording)
    ms, tm = translate_algebra(imp)
    cfg = BisimConfig(term_depth=2)
    shared = []
    for check, counterpart_type in ((check_forward, MSAlgebra), (check_backward, OSAlgebra)):
        searched.clear()
        composed.clear()
        report = check(imp, ms, tm, cfg)
        assert report.verdict == "pass"
        keys = [(type(alg), u) for alg, u in searched]
        assert len(keys) == len(set(keys)), check
        lists = [(index, u) for index, u, out in composed if index.memo.get(u) is not out]
        assert len(lists) == len(set(lists)), check
        subjects = [u for kind, u in keys if kind is counterpart_type]
        assert 0 < len(subjects) <= report.steps_checked, check
        shared.append(report.steps_checked - len(subjects))
    assert spine == []
    # Forward, some subjects have several steps and are searched once,
    # and a settled subject is not searched on the other side at all.
    assert shared[0] > 0


def _reversing_counterpart(monkeypatch, counterpart_type):
    """Make the sweep see every ``counterpart_type`` redex list and rule
    memo entry reversed, so its steps no longer line up by index with the
    other side's."""
    def reversed_redexes(alg, u):
        found = rule_redexes(alg, u)
        return found[::-1] if isinstance(alg, counterpart_type) else found

    def reversed_entry(index, u):
        found = _entry(index, u)
        mine = (index.table is not None) == (counterpart_type is MSAlgebra)
        return found[::-1] if mine and found is not CLEAN else found

    monkeypatch.setattr(bisim, "rule_redexes", reversed_redexes)
    monkeypatch.setattr(bisim, "_entry", reversed_entry)


@pytest.mark.parametrize("fixture", ["imp", "imp_real"])
def test_misaligned_counterparts_fall_back_to_the_same_report(request, monkeypatch, fixture):
    # Settling a step by index against a child's memo entry is a
    # shortcut: when the counterpart's steps come in another order, the
    # settlement declines, ``_mirror`` replays the steps, and the report
    # is the same, field for field.
    alg = request.getfixturevalue(fixture)
    ms, tm = translate_algebra(alg)
    mirror, mirrored = bisim._mirror, []

    def counted(*args):
        mirrored.append(args)
        return mirror(*args)

    monkeypatch.setattr(bisim, "_mirror", counted)
    for check, depth, counterpart_type in ((check_forward, 3, MSAlgebra),
                                           (check_backward, 2, OSAlgebra),
                                           (check_backward, 3, OSAlgebra)):
        cfg = BisimConfig(term_depth=depth)
        mirrored.clear()
        aligned = check(alg, ms, tm, cfg)
        replayed = len(mirrored)
        with monkeypatch.context() as patch:
            _reversing_counterpart(patch, counterpart_type)
            mirrored.clear()
            assert check(alg, ms, tm, cfg) == aligned, (check, depth)
        assert aligned.passed
        if check is check_forward:
            assert replayed < len(mirrored) < aligned.steps_checked
        else:
            # Backward, every step is replayed, whatever the order.
            assert replayed == len(mirrored) == aligned.steps_checked > 0


def _unsettled(monkeypatch):
    """Make the forward sweep replay the steps of every subject, as it
    would if its children's memo entries settled none of them."""
    monkeypatch.setattr(bisim, "_settler", lambda os, ms, tm: partial(rule_redexes, os))


def _settle_outcomes(monkeypatch) -> list:
    """Collect ``(subject, outcome)`` for each subject the forward sweep
    hands the settlement: a step count when it settled the subject, else
    the redex list the sweep replays."""
    settler, outcomes = bisim._settler, []

    def recording(os, ms, tm):
        settle = settler(os, ms, tm)

        def recorded(t):
            found = settle(t)
            outcomes.append((t, found))
            return found

        return recorded

    monkeypatch.setattr(bisim, "_settler", recording)
    return outcomes


def _settled_some(outcomes) -> bool:
    return any(type(found) is int and found > 0 for _, found in outcomes)


def _same_report_unsettled(monkeypatch, check, alg, ms, tm, cfg) -> BisimReport:
    """``check``'s report, after requiring it to equal, field for field, the
    report of a sweep that settles no subject from its children."""
    report = check(alg, ms, tm, cfg)
    with monkeypatch.context() as patch:
        _unsettled(patch)
        assert check(alg, ms, tm, cfg) == report, (check, cfg)
    return report


def _mutant(alg, edit):
    """``alg``'s translation with its translated rules edited by ``edit``."""
    ms, tm = translate_algebra(alg)
    return MSAlgebra(ms.signature, ms.equations, tuple(edit(list(ms.rules))),
                     ms.core_equations), tm


def _swap_right_sides_2_and_3(rules):
    two, three = rules[2], rules[3]
    rules[2], rules[3] = Rule(two.lhs, three.rhs), Rule(three.lhs, two.rhs)
    return rules


def _swap_rules_2_and_3(rules):
    rules[2], rules[3] = rules[3], rules[2]
    return rules


@pytest.mark.parametrize("fixture", ["imp", "imp_real"])
@pytest.mark.parametrize("edit, failed, skipped", [
    (_swap_right_sides_2_and_3, 0, 2),
    (lambda rules: rules[:-1], 2, 0),
], ids=["swap-right-sides-2-3", "drop-last-rule"])
def test_translated_rule_mutants_are_not_passed(request, fixture, edit, failed, skipped):
    # Two unmirrored forward steps at depth 1.  A step of the dropped rule
    # fails at once; no class search on either fixture is exhausted, so
    # the swapped right sides are skipped, not failed.
    alg = request.getfixturevalue(fixture)
    mutant, tm = _mutant(alg, edit)
    cfg = BisimConfig(term_depth=1)
    forward = check_forward(alg, mutant, tm, cfg)
    backward = check_backward(alg, mutant, tm, cfg)
    report = forward.merge(backward)
    assert report.steps_checked == 6
    assert (len(forward.forward_failures), forward.skipped_unexhausted) == (failed, skipped)
    assert backward.passed and backward.skipped_unexhausted == 0
    assert report.verdict == ("fail" if failed else "inconclusive")


def test_a_step_of_an_absent_rule_fails_without_a_class_search(imp, count_calls):
    # Only a rule-12 step can mirror a rule-12 step, so with the last
    # translated rule dropped each of them fails at once.
    searched = count_calls(e_class_bounded)
    mutant, tm = _mutant(imp, lambda rules: rules[:-1])
    cfg = BisimConfig(term_depth=2)
    report = check_forward(imp, mutant, tm, cfg).merge(check_backward(imp, mutant, tm, cfg))
    assert report.verdict == "fail" and report.skipped_unexhausted == 0
    assert len(report.forward_failures) == 55 and report.backward_failures == []
    assert {(ce.rule_index, ce.rule, ce.missing) for ce in report.forward_failures} == {
        (12, imp.rules[12], "no rule 12 to replay the step with")}
    assert searched == []


def test_a_sweep_searches_each_class_once(imp, count_calls):
    # The right sides of rules 2 and 3 swapped: 48 forward and 2 backward
    # steps go to the class search, and no (algebra, term) class is
    # searched twice within a sweep.
    searched = count_calls(e_class_bounded)
    mutant, tm = _mutant(imp, _swap_right_sides_2_and_3)
    cfg = BisimConfig(term_depth=2)
    reports = []
    for check in (check_forward, check_backward):
        searched.clear()
        reports.append(check(imp, mutant, tm, cfg))
        keys = [(id(alg), t) for alg, t, *_ in searched]
        assert len(keys) == len(set(keys)) > 0, check
    # The reports as they were when each step searched its classes anew.
    assert reports == [
        BisimReport(terms_checked=247, steps_checked=173, skipped_unexhausted=48),
        BisimReport(terms_checked=37, steps_checked=5, skipped_unexhausted=2, not_in_image=7),
    ]


@pytest.mark.parametrize("fixture", ["imp", "imp_real"])
def test_settled_subjects_give_the_replayed_report(request, monkeypatch, fixture):
    # A subject settled from its children's memo entries gets the steps
    # and verdicts the full replay gives it: the reports are equal field
    # for field, counterexamples, witnesses and ``missing`` texts
    # included, on the fixture and on three mutants of its translation.
    # Dropping the last rule fails its steps at once, so that mutant is
    # also cheap to check forward at depth 3, where rule 12 first applies
    # below the root.  With rules 2 and 3 in each other's place, a step's
    # result can come out at its index under the other rule; shallow
    # class searches keep that mutant quick.
    alg = request.getfixturevalue(fixture)
    ms, tm = translate_algebra(alg)
    runs = [(check_forward, ms, tm, BisimConfig(term_depth=3), "pass"),
            (check_forward, ms, tm, BisimConfig(term_depth=2), "pass"),
            (check_backward, ms, tm, BisimConfig(term_depth=2), "pass")]
    for edit, cfgs, verdict in (
            (_swap_right_sides_2_and_3, [BisimConfig(term_depth=2)] * 2, "inconclusive"),
            (lambda rules: rules[:-1], [BisimConfig(term_depth=3), BisimConfig(term_depth=2)],
             "fail"),
            (_swap_rules_2_and_3, [BisimConfig(term_depth=2, eclass_depth=2)] * 2,
             "inconclusive")):
        mutant, mutant_tm = _mutant(alg, edit)
        runs += [(check, mutant, mutant_tm, cfg, verdict if check is check_forward else None)
                 for check, cfg in zip((check_forward, check_backward), cfgs)]
    outcomes = _settle_outcomes(monkeypatch)
    for check, other, translation, cfg, verdict in runs:
        outcomes.clear()
        report = _same_report_unsettled(monkeypatch, check, alg, other, translation, cfg)
        assert verdict in (None, report.verdict), (check, cfg)
        # Forward, the settlement decided steps; backward, it takes no part.
        assert _settled_some(outcomes) == (check is check_forward), (check, cfg)


def test_settled_subjects_give_the_replayed_report_on_random_algebras(monkeypatch):
    rng = random.Random(20261020)
    outcomes = _settle_outcomes(monkeypatch)
    cfg = BisimConfig(term_depth=3, max_terms=3000)
    decided = 0
    for _ in range(50):
        alg = random_algebra(rng)
        ms, tm = translate_algebra(alg)
        outcomes.clear()
        report = _same_report_unsettled(monkeypatch, check_forward, alg, ms, tm, cfg)
        assert report.passed, alg
        decided += _settled_some(outcomes)
    assert decided >= 10


def test_a_result_whose_sort_moves_needs_the_subject_s_plan(imp):
    # In +(0, -(0)) the step -(0) -> 0 moves child 1 from int down to
    # nat.  Its result is the composed many-sorted result only when
    # +(nat, nat) has the plan of +(nat, int); with another plan the
    # subject is left to the full replay.
    ms, tm = translate_algebra(imp)
    assert check_forward(imp, ms, tm, BisimConfig(term_depth=2)).passed
    t = G("+", (ZERO, G("-", (ZERO,))))
    moved = ("+", ("nat", "nat"))
    assert [least_sort(imp.signature, a) for a in t.args] == ["nat", "int"]
    assert tm._plans[moved] == tm._plans["+", ("nat", "int")]
    settle = bisim._settler(imp, ms, tm)
    assert settle(t) == len(rule_redexes(imp, t)) == 1
    name, arg_sorts = tm._plans[moved]
    tm._plans[moved] = (name + "'", arg_sorts)
    assert settle(t) == rule_redexes(imp, t)


def test_only_subjects_with_a_root_step_are_replayed(imp_text, monkeypatch):
    # Plans are made as the settlement needs them, so a depth-3 forward
    # check of IMP replays exactly the subjects that have a root step;
    # the rest are settled from their children or have no step.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    outcomes = _settle_outcomes(monkeypatch)
    assert check_forward(alg, ms, tm, BisimConfig(term_depth=3)).passed
    counts = [found for _, found in outcomes if type(found) is int]
    replayed = [t for t, found in outcomes if type(found) is not int]
    assert (sum(n > 0 for n in counts), counts.count(0), len(replayed)) == (21_185, 5_358, 545)
    assert all(any(link == () for _, link, _, _ in rule_redexes(alg, t)) for t in replayed)


def test_a_forward_check_translates_few_terms(imp):
    # Settled subjects and their results are never translated: a depth-3
    # forward check of IMP translates some 1,200 terms, where translating
    # every subject and every result took some 28,000.
    ms, tm = translate_algebra(imp)
    assert check_forward(imp, ms, tm, BisimConfig(term_depth=3)).steps_checked == 42_410
    assert len(tm._tr_cache) < 3_000


def test_run_bisim_builds_no_steps_when_nothing_fails(imp, count_calls):
    # Replayed steps stay plain tuples; only a counterexample gets a
    # RewriteStep, as its witness.
    built = count_calls(RewriteStep)
    report = run_bisim(imp, BisimConfig(term_depth=2))
    assert report.verdict == "pass" and report.steps_checked > 0
    assert built == []


@pytest.mark.parametrize("enabled", [True, False])
def test_run_bisim_pauses_the_collector_and_restores_it(imp, monkeypatch, enabled):
    seen = []

    def recording(alg, u):
        seen.append(gc.isenabled())
        return rule_redexes(alg, u)

    monkeypatch.setattr(bisim, "rule_redexes", recording)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_bisim(imp, BisimConfig(term_depth=1)).passed
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


def test_run_bisim_restores_the_collector_when_the_sweep_raises(imp, monkeypatch):
    def failing(alg, u):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(bisim, "rule_redexes", failing)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="sweep failed"):
        run_bisim(imp, BisimConfig(term_depth=1))
    assert gc.isenabled()


def test_check_forward_leaves_no_collection_due(imp_text, collections_in):
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    report, started = collections_in(
        lambda: check_forward(alg, ms, tm, BisimConfig(term_depth=2)))
    assert report.passed and started == []


def test_run_bisim_leaves_no_cyclic_garbage(imp_text):
    # The collector is off while the sweeps run, so whatever cycles they
    # made would pile up until it came back on: there must be none.
    alg = parse_spec(imp_text)
    gc.collect()
    assert run_bisim(alg, BisimConfig(term_depth=2)).passed
    assert gc.collect() == 0


def _height(t: GroundTerm) -> int:
    return 1 + max(map(_height, t.args)) if t.args else 0


def test_rule_memos_keep_no_subject_of_the_last_height(imp_text):
    # A depth-3 sweep searches some 27,000 subjects; the rule indexes keep
    # entries for the proper subterms the subjects share, not for them.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    assert check_forward(alg, ms, tm, BisimConfig(term_depth=3)).passed
    os_memo, ms_memo = alg._rule_index.memo, ms._rule_index.memo
    last = [t for t in enumerate_ground_terms(alg.signature, depth=3) if _height(t) == 3]
    assert len(last) > 25_000
    assert not any(t in os_memo or translate_term(tm, t) in ms_memo for t in last)
    assert len(os_memo) < 300 and len(ms_memo) < 300


def test_forward_sweep_caches_match_a_cold_walk(imp_text):
    # The enumeration sorts each new node by one lookup, and the redex
    # search and the settlement read and fill the least-sort and
    # translation caches: after a depth-3 sweep every entry of both is
    # what a new signature and translation, every cache empty, give.
    alg = parse_spec(imp_text)
    ms, tm = translate_algebra(alg)
    assert check_forward(alg, ms, tm, BisimConfig(term_depth=3)).steps_checked == 42_410
    _, cold = translate_algebra(parse_spec(imp_text))
    sorted_terms = alg.signature._least_cache
    assert len(sorted_terms) > 27_088
    for t, sort in sorted_terms.items():
        assert least_sort(cold.source, t) == sort, t
    for t, out in tm._tr_cache.items():
        assert translate_term(cold, t) is out, t


def test_translation_preserves_equivalence_classes(imp, imp_translated):
    # Source-equal terms must translate into one translated class: every
    # member found by the bounded source closure lands, after translation
    # and canonicalization, inside the translated seed's bounded closure.
    # A member of lower least sort (the identity equations produce those)
    # appears there in casted form, so each image is lifted to the class
    # sort first.
    from ostrans import e_class_bounded, least_sort
    ms, tm = imp_translated
    seeds = [
        G("+", (ZERO, S0)),
        G("<=", (ZERO, G("v", (ZERO,)))),
        G("mapcat", (G("emptymap"), G("mapsto", (G("v", (ZERO,)), ZERO)))),
    ]
    for t in seeds:
        top = least_sort(imp.signature, t)
        source_class = e_class_bounded(imp, t, depth=2, max_size=400)
        image_class = e_class_bounded(
            ms, core_canonicalize(tm, translate_term(tm, t)), depth=3, max_size=4000
        )
        members = set(image_class.members)
        for u in source_class.members:
            lifted = core_canonicalize(tm, translate_term(tm, u, expected=top))
            assert lifted in members, u


def test_translation_injective_modulo_core(imp, imp_translated):
    _, tm = imp_translated
    images = {}
    for t in enumerate_ground_terms(imp.signature, depth=2):
        image = core_canonicalize(tm, translate_term(tm, t))
        assert image not in images
        images[image] = t
        assert strip_casts(tm, image) is t


def test_forward_failure_is_reported_when_mirror_is_wrong():
    # Doctored pair: replace the translated rule with one whose results
    # can never reach the translated target.  The classes involved are
    # equation-free, hence exhausted, so this is a definite failure
    # rather than a budget skip.
    from ostrans import MSAlgebra, Operator, OSSignature, Var as V
    sig = OSSignature(["a"], [], [Operator("c", (), "a"), Operator("f", ("a",), "a")])
    os_alg = OSAlgebra(sig, (), (Rule(PNode("f", (V("X", "a"),)), V("X", "a")),))
    ms_alg, tm = translate_algebra(os_alg)

    clean = check_forward(os_alg, ms_alg, tm, BisimConfig(term_depth=2))
    assert clean.passed and clean.steps_checked > 0

    wrong_rule = Rule(
        PNode("f", (V("X", "a"),)),
        PNode("f", (PNode("f", (V("X", "a"),)),)),
    )
    doctored = MSAlgebra(ms_alg.signature, (), (wrong_rule,), ())
    report = check_forward(os_alg, doctored, tm, BisimConfig(term_depth=2))
    assert report.forward_failures
    ce = report.forward_failures[0]
    assert ce.direction == "forward"
    assert ce.rule_index == 0
    assert ce.source_term is G("f", (G("c"),))
    assert ce.missing == "no many-sorted step reaches the translated result c"
    assert ce.witness == direct_steps(os_alg, ce.source_term)[0]
    assert ce.witness.result is G("c")
    assert report.skipped_unexhausted == 0


def _doctored_pair(equations=()):
    """A one-sort source with ``f(X) => X`` and a many-sorted side whose
    only rule is ``f(X) => f(f(X))``, so no step of either is mirrored.
    ``equations`` are added to both sides."""
    from ostrans import MSAlgebra, Operator, OSSignature, Var as V
    sig = OSSignature(["a"], [], [Operator("c", (), "a"), Operator("f", ("a",), "a"),
                                  Operator("g", ("a",), "a")])
    x = V("X", "a")
    os_alg = OSAlgebra(sig, equations, (Rule(PNode("f", (x,)), x),))
    ms_alg, tm = translate_algebra(os_alg)
    wrong_rule = Rule(PNode("f", (x,)), PNode("f", (PNode("f", (x,)),)))
    doctored = MSAlgebra(ms_alg.signature, ms_alg.equations, (wrong_rule,),
                         ms_alg.core_equations)
    return os_alg, doctored, tm


def test_backward_failure_is_reported_when_mirror_is_wrong():
    os_alg, doctored, tm = _doctored_pair()
    report = check_backward(os_alg, doctored, tm, BisimConfig(term_depth=2))
    assert report.steps_checked == 5
    assert len(report.backward_failures) == 5
    assert report.forward_failures == [] and report.skipped_unexhausted == 0
    assert report.verdict == "fail"
    ce = report.backward_failures[0]
    assert (ce.direction, ce.source_term, ce.rule_index, ce.missing) == (
        "backward", G("f", (G("c"),)), 0,
        "no order-sorted step from f(c) maps onto f(f(c))",
    )
    assert ce.witness == direct_steps(doctored, ce.source_term)[0]
    assert ce.witness.result is G("f", (G("f", (G("c"),)),))


def test_a_result_reached_only_by_another_rule_is_not_a_mirror():
    # The many-sorted side lists the two rules in the other order: each
    # step's result comes out at the same index, but of the other rule.
    from ostrans import Operator, OSSignature, Var as V
    sig = OSSignature(["a"], [], [Operator("c", (), "a"), Operator("f", ("a",), "a"),
                                  Operator("g", ("a",), "a")])
    x = V("X", "a")
    os_alg = OSAlgebra(sig, (), (Rule(PNode("f", (x,)), x), Rule(PNode("g", (x,)), x)))
    ms_alg, tm = translate_algebra(os_alg)
    swapped = MSAlgebra(ms_alg.signature, (), ms_alg.rules[::-1], ())
    cfg = BisimConfig(term_depth=1)
    report = check_forward(os_alg, swapped, tm, cfg).merge(
        check_backward(os_alg, swapped, tm, cfg))
    assert report.steps_checked == 4
    assert len(report.forward_failures) == len(report.backward_failures) == 2
    assert report.verdict == "fail"


def test_failure_witnesses_carry_their_positions():
    # A step below the root fails too; its witness, built from the redex's
    # position link, is the step ``direct_steps`` reports.
    os_alg, doctored, tm = _doctored_pair()
    cfg = BisimConfig(term_depth=2)
    positions = set()
    for check, alg in ((check_forward, os_alg), (check_backward, doctored)):
        report = check(os_alg, doctored, tm, cfg)
        failures = report.forward_failures + report.backward_failures
        assert failures and len(failures) == report.steps_checked
        for ce in failures:
            assert ce.witness in direct_steps(alg, ce.source_term)
            positions.add(ce.witness.position)
    assert {(), (0,)} <= positions


def test_unmirrored_step_is_skipped_when_a_class_is_cut_by_budget():
    # ``X = g(X)`` makes every class infinite, so neither class search
    # reaches a fixpoint and the unmirrored step is skipped, not failed.
    from ostrans import Equation, Var as V
    x = V("X", "a")
    os_alg, doctored, tm = _doctored_pair((Equation(x, PNode("g", (x,))),))
    cfg = BisimConfig(term_depth=1, eclass_depth=2, eclass_max=20)
    for check in (check_forward, check_backward):
        report = check(os_alg, doctored, tm, cfg)
        assert (report.steps_checked, report.skipped_unexhausted) == (1, 1), check
        assert report.passed and report.verdict == "inconclusive"


def test_translations_are_core_canonical(imp, imp_real):
    # The checker compares translations by identity without canonicalizing
    # them, which is sound only because they come out canonical.
    rng = random.Random(20261018)
    subjects = [(imp, 2), (imp_real, 2)] + [(random_algebra(rng), 3) for _ in range(60)]
    checked = 0
    for alg, depth in subjects:
        sig = alg.signature
        terms = list(enumerate_ground_terms(sig, depth=depth))
        for tie_break in ("lex", "revlex"):
            _, tm = translate_algebra(alg, tie_break=tie_break)
            for t in terms:
                for expected in (None, *sig.poset.supersorts(least_sort(sig, t))):
                    out = translate_term(tm, t, expected=expected)
                    assert core_canonicalize(tm, out) is out, (t, expected, tie_break)
                    checked += 1
    assert checked > 100_000


def test_forward_check_never_canonicalizes(imp, imp_translated, monkeypatch):
    ms, tm = imp_translated
    calls = []

    def counted(*args):
        calls.append(args)
        return core_canonicalize(*args)

    monkeypatch.setattr(bisim, "core_canonicalize", counted)
    report = check_forward(imp, ms, tm, BisimConfig(term_depth=2))
    assert report.passed and report.steps_checked > 0
    assert calls == []


def test_run_bisim_random_algebras():
    rng = random.Random(20240518)
    for _ in range(8):
        alg = random_algebra(rng)
        report = run_bisim(alg, BisimConfig(term_depth=3, max_terms=3000))
        assert report.passed, (alg, report)


def test_max_terms_truncates(imp):
    report = run_bisim(imp, BisimConfig(term_depth=3, max_terms=50))
    assert report.truncated
    assert report.terms_checked <= 100  # both directions capped at 50


def test_verdict_is_three_way():
    assert BisimReport(steps_checked=4).verdict == "pass"
    assert BisimReport(truncated=True).verdict == "inconclusive"
    skipped = BisimReport(skipped_unexhausted=1)
    assert skipped.passed and skipped.verdict == "inconclusive"
    failing = BisimReport(skipped_unexhausted=1, truncated=True,
                          backward_failures=[object()])
    assert not failing.passed and failing.verdict == "fail"


@pytest.mark.parametrize("config,budgets", [
    (BisimConfig, {"term_depth": -1}),
    (BisimConfig, {"eclass_depth": 0}),
    (BisimConfig, {"eclass_max": 0}),
    (BisimConfig, {"max_terms": -3}),
    (RewriteConfig, {"eclass_depth": 0}),
    (RewriteConfig, {"eclass_max": 0}),
])
def test_budgets_below_their_floor_are_refused(config, budgets):
    with pytest.raises(ValueError, match="at least"):
        config(**budgets)


def test_depth_zero_checks_the_constants(imp):
    cfg = BisimConfig(term_depth=0, eclass_depth=1, eclass_max=1, max_terms=1_000)
    report = run_bisim(imp, cfg)
    assert report.passed and report.terms_checked > 0
