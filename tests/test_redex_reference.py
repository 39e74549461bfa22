"""The indexed redex search against the naive loop it replaces.

The reference below tries every rule, or every usable equation direction,
at every position: preorder positions first, then rules in declaration
order.  The engine narrows the candidates with a head index and memoises
root hits per interned subterm; both are pure speed-ups, so every step and
every class member must come out the same and in the same order, on a
fresh algebra (memo cold) and on a second pass (memo warm).
"""

from __future__ import annotations

import random
from importlib import resources
from itertools import islice

import pytest

from gen_algebras import random_algebra
from ostrans import (
    GroundTerm,
    MSAlgebra,
    apply_substitution,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    enumerate_ground_terms,
    match_pattern,
    parse_spec,
    rewrite,
    translate_algebra,
    translate_term,
    variables_of,
    well_formed_ground,
)

ECLASS_DEPTH = 3
ECLASS_MAX = 60


def _fixture(name):
    return parse_spec((resources.files("ostrans") / "fixtures" / name).read_text(encoding="utf-8"))


def _positions(t, pos=()):
    yield pos
    for i, a in enumerate(t.args):
        yield from _positions(a, pos + (i,))


def _subterm(t, pos):
    for i in pos:
        t = t.args[i]
    return t


def _replace(t, pos, new):
    if not pos:
        return new
    i = pos[0]
    return GroundTerm(t.constructor, t.args[:i] + (_replace(t.args[i], pos[1:], new),) + t.args[i + 1:])


def _naive(alg, pairs, u):
    """``(index, position, substitution, result)`` of every pair at every position."""
    sig = alg.signature
    ms = isinstance(alg, MSAlgebra)
    out = []
    for pos in _positions(u):
        sub = _subterm(u, pos)
        for index, (lhs, rhs) in enumerate(pairs):
            m = match_pattern(sig, lhs, sub)
            if m is None:
                continue
            result = _replace(u, pos, apply_substitution(sig, rhs, m))
            if ms:
                result = core_canonicalize(sig, result)
            elif not well_formed_ground(sig, result):
                continue
            out.append((index, pos, tuple(sorted(m.items())), result))
    return out


def naive_direct_steps(alg, u):
    pairs = [(r.lhs, r.rhs) for r in alg.rules]
    return [(i, pos, subst, u, result) for i, pos, subst, result in _naive(alg, pairs, u)]


def naive_e_class(alg, t, depth, max_size):
    if isinstance(alg, MSAlgebra):
        t = core_canonicalize(alg.signature, t)
    if not alg.equations:
        return (t,), 0, True
    pairs = []
    complete = True
    for eq in alg.equations:
        for src, dst in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if set(variables_of(dst)) <= set(variables_of(src)):
                pairs.append((src, dst))
            else:
                complete = False
    members = {t: None}
    frontier = [t]
    depth_used = 0
    exhausted = False
    for _ in range(depth):
        new = []
        over = False
        for u in frontier:
            for *_, v in _naive(alg, pairs, u):
                if v not in members:
                    members[v] = None
                    new.append(v)
                    if len(members) >= max_size:
                        over = True
                        break
            if over:
                break
        if over:
            break
        if not new:
            exhausted = complete
            break
        depth_used += 1
        frontier = new
    return tuple(members), depth_used, exhausted


def _steps(alg, u):
    return [
        (s.rule_index, s.position, s.substitution, s.bridging_term, s.result)
        for s in direct_steps(alg, u)
    ]


def _subjects(os_alg, ms_alg, tm, depth, limit):
    """Source terms up to ``depth``, their translations and many-sorted terms."""
    os_terms = list(islice(enumerate_ground_terms(os_alg.signature, depth=depth), limit))
    ms_terms = [core_canonicalize(tm, translate_term(tm, t)) for t in os_terms]
    ms_terms += [
        core_canonicalize(ms_alg.signature, p)
        for p in islice(enumerate_ground_terms(ms_alg.signature, depth=depth), limit)
    ]
    return os_terms, list(dict.fromkeys(ms_terms))


def _assert_same_as_naive(os_alg, depth=2, limit=200, eclass_limit=30):
    ms_alg, tm = translate_algebra(os_alg)
    os_terms, ms_terms = _subjects(os_alg, ms_alg, tm, depth, limit)
    for alg, terms in ((os_alg, os_terms), (ms_alg, ms_terms)):
        assert alg._rule_index is None and alg._equation_index is None
        for memo in ("cold", "warm"):
            for u in terms:
                assert _steps(alg, u) == naive_direct_steps(alg, u), (memo, u)
            for u in terms[:eclass_limit]:
                got = e_class_bounded(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                want = naive_e_class(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                assert (got.members, got.depth_used, got.exhausted) == want, (memo, u)


@pytest.mark.parametrize("fixture", ["imp.osa", "imp_real.osa"])
def test_indexed_search_matches_naive_loop_on_fixtures(fixture):
    # A freshly parsed algebra starts with an empty index and memo.
    _assert_same_as_naive(_fixture(fixture))


def test_indexed_search_matches_naive_loop_on_random_algebras():
    rng = random.Random(20261018)
    for _ in range(24):
        alg = random_algebra(rng, max_ops=10, max_eqs=6, max_rules=6)
        _assert_same_as_naive(alg, depth=3, limit=150, eclass_limit=20)


def test_every_match_goes_through_the_module_function(monkeypatch):
    alg = _fixture("imp.osa")
    u = next(t for t in enumerate_ground_terms(alg.signature, depth=2) if direct_steps(alg, t))
    want = _steps(alg, u)
    fresh = _fixture("imp.osa")
    calls = []

    def counted(*args):
        calls.append(args)
        return match_pattern(*args)

    monkeypatch.setattr(rewrite, "match_pattern", counted)
    assert _steps(fresh, u) == want
    assert calls
