"""Many-sorted sorts against the exact-sort fold they replaced.

A many-sorted signature is sorted by the order-sorted code, under the
identity order.  The reference below is the fold that did it before: a
term's sort is the target of the operator ``lookup`` finds for its
children's sorts, and the term is ill-formed when there is none.
``ms_sort``, ``least_sort``, ``sorts_of``, ``well_formed_ground`` and
``inhabits`` must agree with it on translated and re-parsed signatures,
over well-formed and ill-formed ground terms and over statement sides,
with the caches cold and warm.
"""

from __future__ import annotations

import random
import re

import pytest

from gen_algebras import random_algebra
from ostrans import (
    GroundTerm,
    IllFormedTerm,
    MSSignature,
    Var,
    enumerate_ground_terms,
    least_sort,
    ms_sort,
    parse_spec,
    print_spec,
    sorts_of,
    translate_algebra,
    well_formed_ground,
)
from ostrans.terms import inhabits


def reference_sort(sig, t):
    """The sort of ``t`` by ``lookup`` on its children's sorts, or ``None``."""
    if isinstance(t, Var):
        return t.sort if t.sort in sig.sorts else None
    child_sorts = tuple(reference_sort(sig, a) for a in t.args)
    if None in child_sorts:
        return None
    op = sig.lookup(t.constructor, child_sorts)
    return None if op is None else op.target_sort


def _subjects(ms, rng):
    """Statement sides, ground terms up to height 2 and terms one argument off."""
    subjects = [side for st in ms.equations + ms.rules for side in (st.lhs, st.rhs)]
    ground = list(enumerate_ground_terms(ms.signature, depth=2))
    subjects += ground
    # Each application again with one argument swapped for a random term,
    # four times per argument: mostly of another sort, so mostly ill-formed.
    for t in ground:
        for k in range(len(t.args)):
            for u in rng.choices(ground, k=4):
                subjects.append(GroundTerm(t.constructor, t.args[:k] + (u,) + t.args[k + 1:]))
    subjects.append(GroundTerm("no-such-constructor", (ground[0],)))
    return subjects


def _assert_matches_reference(ms, rng):
    """Compare on a fresh copy of ``ms``'s signature, cold then warm.

    Returns the numbers of well-formed and ill-formed subjects."""
    sig = MSSignature(ms.signature.sorts, ms.signature.operators)
    subjects = _subjects(ms, rng)
    sorts = sorted(sig.sorts)
    counts = [0, 0]
    for memo in ("cold", "warm"):
        for t in subjects:
            want = reference_sort(sig, t)
            where = (memo, t)
            ground = isinstance(t, GroundTerm)
            if want is None:
                for fn in (ms_sort, least_sort):
                    with pytest.raises(IllFormedTerm):
                        fn(sig, t)
                with pytest.raises(IllFormedTerm):
                    inhabits(sig, t, sorts[0])
                assert sorts_of(sig, t) == frozenset(), where
                assert not ground or not well_formed_ground(sig, t), where
            else:
                assert ms_sort(sig, t) == least_sort(sig, t) == want, where
                assert sorts_of(sig, t) == {want}, where
                assert not ground or well_formed_ground(sig, t), where
                assert [s for s in sorts if inhabits(sig, t, s)] == [want], where
            if memo == "cold":
                counts[want is None] += 1
    return counts


@pytest.mark.parametrize("fixture", ["imp", "imp_real"])
def test_translated_fixture_sorts_match_the_exact_sort_fold(request, fixture):
    ms, _ = translate_algebra(request.getfixturevalue(fixture))
    reparsed = parse_spec(print_spec(ms), kind="msa")
    assert reparsed == ms
    true = GroundTerm("true")
    for alg in (ms, reparsed):
        well, ill = _assert_matches_reference(alg, random.Random(fixture))
        assert well > 100 and ill > 150, (well, ill)
        # Only +AExp : AExp AExp -> AExp is declared; nothing lifts bool to AExp.
        with pytest.raises(IllFormedTerm, match=re.escape(
                "no operator admits +AExp(true, true) (children sorted ('bool', 'bool'))")):
            least_sort(alg.signature, GroundTerm("+AExp", (true, true)))


def test_random_translation_sorts_match_the_exact_sort_fold():
    rng = random.Random(20261020)
    totals = [0, 0]
    for _ in range(40):
        ms, _ = translate_algebra(random_algebra(rng))
        for i, n in enumerate(_assert_matches_reference(ms, rng)):
            totals[i] += n
    assert totals[0] > 5_000 and totals[1] > 400, totals
