"""The indexed redex search against the naive loop it replaces.

The reference below tries every rule, or every usable equation direction,
at every position: preorder positions first, then rules in declaration
order.  It matches with its own copy of the plain recursive matchers, so
a fault in the engine's compiled matcher cannot hide in the reference.
The engine narrows the candidates with a set of left-side heads and a
two-level index (head, then argument heads), matches compiled left
sides, memoises root hits per interned subterm, skips subterms with no
redex and composes a term's results from its children's memoised result
lists; all of these are pure speed-ups, so every step and every class
member must come out the same and in the same order, on a fresh algebra
(memo cold) and on a second pass (memo warm).  The engine's closure
also searches only one of the equation directions that are equal up to
renaming their variables, and none of an equation whose two sides have
one core under casts (every core equation), while the reference keeps
every usable direction.
"""

from __future__ import annotations

import random
from importlib import resources
from itertools import islice

import pytest

from gen_algebras import random_algebra
from ostrans import (
    AmbiguousSort,
    BisimConfig,
    Equation,
    GroundTerm,
    MSAlgebra,
    MSSignature,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    RewriteConfig,
    Rule,
    SortViolation,
    Var,
    apply_substitution,
    cast_table,
    check_backward,
    check_forward,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    enumerate_ground_terms,
    least_sort,
    match_pattern,
    ms_sort,
    parse_spec,
    print_term,
    rewrite,
    rewrite_step,
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


def oracle_match(sig, pattern, t):
    """The plain recursive matcher: no compiled patterns, no index."""
    binding = {}
    if isinstance(sig, OSSignature):
        return binding if _match_os(sig, pattern, t, binding) else None
    if ms_sort(sig, pattern) != ms_sort(sig, t):
        return None
    table = cast_table(sig)
    return binding if _match_ms(sig, table, pattern, t, binding) else None


def _match_os(sig, p, t, binding):
    if isinstance(p, Var):
        old = binding.get(p.name)
        if old is not None:
            return old is t
        if not sig.poset.leq(least_sort(sig, t), p.sort):
            return False
        binding[p.name] = t
        return True
    if p.constructor != t.constructor or len(p.args) != len(t.args):
        return False
    return all(_match_os(sig, pa, ta, binding) for pa, ta in zip(p.args, t.args))


def _match_ms(sig, table, p, t, binding):
    pcore = p
    while isinstance(pcore, PNode) and table.is_cast(pcore.constructor):
        pcore = pcore.args[0]
    tcore = t
    while table.is_cast(tcore.constructor):
        tcore = tcore.args[0]
    if isinstance(pcore, Var):
        bottom = ms_sort(sig, tcore)
        want = pcore.sort
        if bottom == want:
            value = tcore
        elif table.leq(bottom, want):
            value = table.wrap_canonical(tcore, bottom, want)
        else:
            return False
        old = binding.get(pcore.name)
        if old is not None:
            return old is value
        binding[pcore.name] = value
        return True
    if pcore.constructor != tcore.constructor or len(pcore.args) != len(tcore.args):
        return False
    p_op = sig.lookup(pcore.constructor, tuple(ms_sort(sig, a) for a in pcore.args))
    t_op = sig.lookup(tcore.constructor, tuple(ms_sort(sig, a) for a in tcore.args))
    if p_op != t_op:
        return False
    return all(
        _match_ms(sig, table, pa, ta, binding)
        for pa, ta in zip(pcore.args, tcore.args)
    )


def _naive(alg, pairs, u):
    """``(index, position, substitution, result)`` of every pair at every position."""
    sig = alg.signature
    ms = isinstance(alg, MSAlgebra)
    out = []
    for pos in _positions(u):
        sub = _subterm(u, pos)
        for index, (lhs, rhs) in enumerate(pairs):
            m = oracle_match(sig, lhs, sub)
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


def naive_rewrite_step(alg, t, depth, max_size):
    """The steps of every member of the naive class, first per (rule, result)."""
    members, _, _ = naive_e_class(alg, t, depth, max_size)
    steps, seen = [], set()
    for u in members:
        for step in naive_direct_steps(alg, u):
            key = (step[0], step[4])
            if key not in seen:
                seen.add(key)
                steps.append(step)
    return steps


def _as_tuples(steps):
    return [(s.rule_index, s.position, s.substitution, s.bridging_term, s.result) for s in steps]


def _steps(alg, u):
    return _as_tuples(direct_steps(alg, u))


def _subjects(os_alg, ms_alg, tm, depth, limit):
    """Source terms up to ``depth``, their translations and many-sorted terms."""
    os_terms = list(islice(enumerate_ground_terms(os_alg.signature, depth=depth), limit))
    ms_terms = [core_canonicalize(tm, translate_term(tm, t)) for t in os_terms]
    ms_terms += [
        core_canonicalize(ms_alg.signature, p)
        for p in islice(enumerate_ground_terms(ms_alg.signature, depth=depth), limit)
    ]
    return os_terms, list(dict.fromkeys(ms_terms))


def _assert_same_as_naive(os_alg, depth=2, limit=200, eclass_limit=30, step_limit=0):
    """Direct steps, classes and, on the first ``step_limit`` subjects,
    class-level steps against the naive loops, memo cold then warm."""
    ms_alg, tm = translate_algebra(os_alg)
    os_terms, ms_terms = _subjects(os_alg, ms_alg, tm, depth, limit)
    config = RewriteConfig(ECLASS_DEPTH, ECLASS_MAX)
    for alg, terms in ((os_alg, os_terms), (ms_alg, ms_terms)):
        assert alg._rule_index is None and alg._equation_index is None
        for memo in ("cold", "warm"):
            for u in terms:
                assert _steps(alg, u) == naive_direct_steps(alg, u), (memo, u)
            for u in terms[:eclass_limit]:
                got = e_class_bounded(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                want = naive_e_class(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                assert (got.members, got.depth_used, got.exhausted) == want, (memo, u)
            for u in terms[:step_limit]:
                got = _as_tuples(rewrite_step(alg, u, config))
                assert got == naive_rewrite_step(alg, u, ECLASS_DEPTH, ECLASS_MAX), (memo, u)
        # A subject whose core head no left side has is answered before
        # its candidate key is built.
        for index in (alg._rule_index, alg._equation_index):
            if index is not None and index.heads is not None:
                assert {head for head, _ in index.candidates} <= index.heads


@pytest.mark.parametrize("fixture", ["imp.osa", "imp_real.osa"])
def test_indexed_search_matches_naive_loop_on_fixtures(fixture):
    # A freshly parsed algebra starts with an empty index and memo.
    _assert_same_as_naive(_fixture(fixture))


@pytest.mark.parametrize("fixture", ["imp.osa", "imp_real.osa"])
def test_head_sets_of_the_fixture_indexes(fixture):
    # Every rule's left side has a head; some equation direction's left
    # side is a variable, so the equation index keeps no head set.
    os_alg = _fixture(fixture)
    ms_alg, _ = translate_algebra(os_alg)
    assert rewrite._rule_index(os_alg).heads == {"+", "-", "<=", "pgm"}
    assert rewrite._rule_index(ms_alg).heads == {"+AExp", "+BExp", "-BExp", "-int", "<=", "pgm"}
    for alg in (os_alg, ms_alg):
        assert rewrite._equation_index(alg).heads is None


def test_indexed_search_matches_naive_loop_on_random_algebras():
    rng = random.Random(20261018)
    for _ in range(24):
        alg = random_algebra(rng, max_ops=10, max_eqs=6, max_rules=6)
        _assert_same_as_naive(alg, depth=3, limit=150, eclass_limit=20)


def _symmetric_toy() -> OSAlgebra:
    """``p`` on ``n`` declared commutative twice, under two variable
    namings, around a non-symmetric ``s``-shift whose second way also has
    ``p`` at its head; ``p`` on ``b`` commutative too, over the same shape
    with other sorts.  Rules ``p(0, X) => X``, ``s(p(X, Y)) => p(X, Y)``
    and ``p(s(s(0)), X) => X``, whose ``s(s(0))`` has no variable."""
    ops = [Operator("0", (), "n"), Operator("s", ("n",), "n"), Operator("p", ("n", "n"), "n"),
           Operator("t", (), "b"), Operator("u", (), "b"), Operator("p", ("b", "b"), "b")]
    sig = OSSignature(["n", "b"], [], ops)
    X, Y, A, B = (Var(v, "n") for v in "XYAB")
    U, V = Var("U", "b"), Var("V", "b")
    equations = (
        Equation(PNode("p", (X, Y)), PNode("p", (Y, X))),
        Equation(PNode("s", (PNode("p", (X, Y)),)), PNode("p", (PNode("s", (X,)), Y))),
        Equation(PNode("p", (A, B)), PNode("p", (B, A))),
        Equation(PNode("p", (U, V)), PNode("p", (V, U))),
    )
    two = PNode("s", (PNode("s", (PNode("0"),)),))
    rules = (Rule(PNode("p", (PNode("0"), X)), X),
             Rule(PNode("s", (PNode("p", (X, Y)),)), PNode("p", (X, Y))),
             Rule(PNode("p", (two, X)), X))
    return OSAlgebra(sig, equations, rules)


def test_one_direction_per_renaming_class():
    # Eight directions, four of them renamings of p(X:n, Y:n) -> p(Y:n, X:n):
    # the index keeps the first of those, both ways of the shift and one
    # way of the commutativity on b, in declaration order, and still
    # counts the closure as complete.
    # The translation names the two overloads of p apart.
    alg = _symmetric_toy()
    ms_alg, _ = translate_algebra(alg)
    for a in (alg, ms_alg):
        index = rewrite._equation_index(a)
        assert index.complete and len(index.pairs) == 4
    assert [print_term(lhs) for lhs, _ in rewrite._equation_index(alg).pairs] == [
        "p(X:n, Y:n)", "s(p(X:n, Y:n))", "p(s(X:n), Y:n)", "p(U:b, V:b)"]


def test_symmetric_equations_match_naive_loop():
    _assert_same_as_naive(_symmetric_toy(), depth=3, limit=200, eclass_limit=40, step_limit=40)


def test_commutative_random_algebras_match_naive_loop():
    rng = random.Random(20261019)
    for _ in range(12):
        alg = random_algebra(rng, max_ops=10, max_eqs=6, max_rules=6, commutative=True)
        _assert_same_as_naive(alg, depth=2, limit=80, eclass_limit=15, step_limit=15)


def test_rewrite_step_matches_naive_loop_on_fixtures():
    for fixture in ("imp.osa", "imp_real.osa"):
        _assert_same_as_naive(_fixture(fixture), depth=2, limit=40, eclass_limit=0, step_limit=12)


def test_imp_equation_index_has_thirty_directions():
    # 17 source equations, 34 directions: one is unusable, and the second
    # way of each commutativity equation (+ on AExp and on BExp, mapcat)
    # is the first way renamed.  The translation of imp_real.osa adds one
    # core equation, whose two sides are cast chains over one variable:
    # the closure leaves both of its ways out.
    for fixture, core in (("imp.osa", 0), ("imp_real.osa", 1)):
        alg = _fixture(fixture)
        ms_alg, tm = translate_algebra(alg)
        assert len(ms_alg.core_equations) == core
        for a in (alg, ms_alg):
            index = rewrite._equation_index(a)
            assert len(a.equations) == 17 + (core if a is ms_alg else 0)
            assert len(index.pairs) == 30 and not index.complete
        table = cast_table(tm)
        assert all(rewrite._core(table, src) is not rewrite._core(table, dst)
                   for src, dst in rewrite._equation_index(ms_alg).pairs)


def test_closure_keeps_equations_flagged_core_by_hand():
    # Whether the closure searches an equation is read off its sides: an
    # equation flagged core in a hand-built algebra is searched when its
    # sides differ under casts.
    sig = MSSignature({"n"}, [Operator("0", (), "n"), Operator("s", ("n",), "n")])
    shift = Equation(PNode("s", (Var("X", "n"),)), Var("X", "n"))
    alg = MSAlgebra(sig, [shift], core_equations=[shift])
    assert [print_term(lhs) for lhs, _ in rewrite._equation_index(alg).pairs] == [
        "s(X:n)", "X:n"]
    zero = GroundTerm("0")
    assert e_class_bounded(alg, GroundTerm("s", (zero,))).members[1] is zero


def _block_tower(height):
    """``block^height(assign(v(0), +(0, v(0))))``: its one rule redex sits deep down."""
    zero = GroundTerm("0")
    ident = GroundTerm("v", (zero,))
    t = GroundTerm("assign", (ident, GroundTerm("+", (zero, ident))))
    for _ in range(height):
        t = GroundTerm("block", (t,))
    return t


def test_redex_under_redex_free_constructors():
    # The search must go through 300 redex-free blocks to find the
    # redexes at the bottom, and skip the rest, with the memo cold and warm.
    tower = _block_tower(300)
    os_alg = _fixture("imp.osa")
    ms_alg, tm = translate_algebra(os_alg)
    for alg, u in ((os_alg, tower), (ms_alg, core_canonicalize(tm, translate_term(tm, tower)))):
        for memo in ("cold", "warm"):
            got = e_class_bounded(alg, u, 2, 40)
            want = naive_e_class(alg, u, 2, 40)
            assert (got.members, got.depth_used, got.exhausted) == want, memo
            steps = _steps(alg, u)
            assert steps == naive_direct_steps(alg, u), memo
            assert [s[0] for s in steps] == [1]


def test_overloads_told_apart_by_operator():
    # f : a -> c and f : b -> c share a constructor and an arity, and a
    # cast lifts a into b, so a variable of sort b accepts the argument of
    # either; only the overload tells f(k) (through f : a -> c) from f(X:b).
    a_to_b = Operator("Cast_a_to_b", ("a",), "b")
    sig = MSSignature(
        ["a", "b", "c"],
        [Operator("k", (), "a"), Operator("d", (), "c"), a_to_b,
         Operator("f", ("a",), "c"), Operator("f", ("b",), "c")],
        non_core=[a_to_b],
    )
    lhs = PNode("f", (Var("X", "b"),))
    alg = MSAlgebra(sig, (), (Rule(lhs, PNode("d")),))
    k = GroundTerm("k")
    direct = GroundTerm("f", (k,))
    lifted = GroundTerm("f", (GroundTerm("Cast_a_to_b", (k,)),))
    assert match_pattern(sig, lhs, direct) is oracle_match(sig, lhs, direct) is None
    assert match_pattern(sig, lhs, lifted) == oracle_match(sig, lhs, lifted) == {"X": lifted.args[0]}
    for memo in ("cold", "warm"):
        for u in (direct, lifted):
            assert _steps(alg, u) == naive_direct_steps(alg, u), (memo, u)
    assert [s[0] for s in _steps(alg, lifted)] == [0] and not _steps(alg, direct)


def test_match_count_stays_small(monkeypatch):
    # A count, not a time: the index and the redex memo keep the matcher
    # off almost every subterm of a depth-2 check of IMP.
    alg = _fixture("imp.osa")
    ms_alg, tm = translate_algebra(alg)
    calls = []

    def counted(*args):
        calls.append(args)
        return match_pattern(*args)

    monkeypatch.setattr(rewrite, "match_pattern", counted)
    cfg = BisimConfig(term_depth=2)
    report = check_forward(alg, ms_alg, tm, cfg).merge(check_backward(alg, ms_alg, tm, cfg))
    assert report.verdict == "pass" and report.steps_checked > 0
    assert len(calls) <= 100, len(calls)


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


def test_child_results_reused_under_two_parents(monkeypatch):
    # One child with redexes under two different parents: each index
    # composes its result list once and reuses it, while a subject's own
    # list is never kept, so the rule search composes it on every call.
    os_alg = _fixture("imp.osa")
    ms_alg, tm = translate_algebra(os_alg)
    child = GroundTerm("-", (GroundTerm("true"),))
    parents = [GroundTerm("+", (child, GroundTerm("-", (GroundTerm("false"),)))),
               GroundTerm("-", (child,))]
    composed = []
    compose = rewrite.RedexIndex._compose

    def counted(index, node, *rest):
        composed.append((index, node))
        return compose(index, node, *rest)

    monkeypatch.setattr(rewrite.RedexIndex, "_compose", counted)
    for alg, shared in ((os_alg, child), (ms_alg, translate_term(tm, child))):
        subjects = parents if alg is os_alg else [translate_term(tm, p) for p in parents]
        assert all(shared in u.args for u in subjects)
        for memo in ("cold", "warm"):
            for u in subjects:
                assert _steps(alg, u) == naive_direct_steps(alg, u), (memo, u)
                got = e_class_bounded(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                want = naive_e_class(alg, u, ECLASS_DEPTH, ECLASS_MAX)
                assert (got.members, got.depth_used, got.exhausted) == want, (memo, u)
        for index in (alg._rule_index, alg._equation_index):
            assert [n for i, n in composed if i is index].count(shared) == 1
        by_rules = [n for i, n in composed if i is alg._rule_index]
        assert [by_rules.count(u) for u in subjects] == [2, 2]


def test_subjects_not_in_core_normal_form():
    # A subject need not be canonical: beside an argument with a redex it
    # may hold Cast_real_to_AExp(Cast_nat_to_real(t)), whose canonical
    # chain goes through int.  Every result puts that sibling back under a
    # head that is not a cast, and must still come out canonical.
    ms_alg, _ = translate_algebra(_fixture("imp_real.osa"))
    table = cast_table(ms_alg)
    zero = GroundTerm("0")
    neg = GroundTerm("Cast_int_to_AExp", (GroundTerm("-int", (GroundTerm("Cast_nat_to_int", (zero,)),)),))
    ident = GroundTerm("Cast_Id_to_AExp", (GroundTerm("v", (zero,)),))
    subjects = []
    for core in (zero, GroundTerm("s", (zero,))):
        chain = GroundTerm("Cast_real_to_AExp", (GroundTerm("Cast_nat_to_real", (core,)),))
        assert table.canonical(chain) is not chain
        subjects += [
            GroundTerm("+AExp", (chain, neg)),
            GroundTerm("+AExp", (neg, chain)),
            GroundTerm("<=", (chain, GroundTerm("+AExp", (neg, ident)))),
            GroundTerm("seq", (GroundTerm("assign", (GroundTerm("v", (zero,)), chain)),
                               GroundTerm("assign", (GroundTerm("v", (zero,)), neg)))),
        ]
    for memo in ("cold", "warm"):
        for u in subjects:
            steps = _steps(ms_alg, u)
            assert steps and steps == naive_direct_steps(ms_alg, u), (memo, u)
            assert all(table.canonical(s[4]) is s[4] for s in steps), (memo, u)


def test_variable_free_parts_match_modulo_core_equality():
    # The left side's +AExp(0, 0) has no variable, so it is matched by
    # comparing core normal forms: a subject spelling its first 0 through
    # real instead of int must still match, and one holding s(0) must not.
    ms_alg, _ = translate_algebra(_fixture("imp_real.osa"))
    G = GroundTerm
    zero = G("0")
    by_int = G("Cast_int_to_AExp", (G("Cast_nat_to_int", (zero,)),))
    by_real = G("Cast_real_to_AExp", (G("Cast_nat_to_real", (zero,)),))
    P = PNode
    ground = P("+AExp", (P("Cast_int_to_AExp", (P("Cast_nat_to_int", (P("0"),)),)),) * 2)
    y = Var("Y", "AExp")
    alg = MSAlgebra(ms_alg.signature, (), (Rule(P("<=", (ground, y)), P("<=", (y, y))),))
    subjects = [G("<=", (G("+AExp", (a, by_int)), by_int)) for a in (by_int, by_real)]
    subjects.append(G("<=", (G("+AExp", (G("Cast_real_to_AExp", (G("Cast_nat_to_real", (
        G("s", (zero,)),)),)), by_int)), by_int)))
    for memo in ("cold", "warm"):
        got = [_steps(alg, u) for u in subjects]
        assert got == [naive_direct_steps(alg, u) for u in subjects], memo
        assert [len(steps) for steps in got] == [1, 1, 0]


def _ambiguous_algebra():
    """A signature that is not preregular: f(k) has sorts B1 and B2, no least one.

    ``m => k`` composes ambiguous results under g and h; ``k => n`` composes
    ill-formed ones (no f takes a J); ``p => f(k)`` has an ambiguous right
    side at the root.  No rule has a variable, since the reference matcher
    asks for the least sort of what a variable captures.
    """
    ops = [Operator("k", (), "K"), Operator("m", (), "K"), Operator("n", (), "J"),
           Operator("p", (), "T"), Operator("f", ("K",), "B1"), Operator("f", ("K",), "B2"),
           Operator("g", ("T",), "T"), Operator("h", ("B1",), "T")]
    sig = OSSignature(["K", "J", "B1", "B2", "T"], [("B1", "T"), ("B2", "T")], ops)
    k = PNode("k")
    rules = (Rule(PNode("m"), k), Rule(k, PNode("n")), Rule(PNode("p"), PNode("f", (k,))))
    return OSAlgebra(sig, (), rules)


def test_ambiguous_results_are_checked_by_sort_sets():
    # The search checks a composed result through its least sort.  An
    # ambiguous one says nothing, so the sort sets must decide, as the
    # naive loop's ``well_formed_ground`` does.
    alg = _ambiguous_algebra()
    sig = alg.signature
    G = GroundTerm
    fk, fm, p = G("f", (G("k"),)), G("f", (G("m"),)), G("p")
    subjects = [fm, G("g", (fm,)), G("h", (fm,)), G("g", (fk,)), G("g", (G("g", (fm,)),)),
                p, G("g", (p,)), G("g", (G("g", (p,)),))]
    with pytest.raises(AmbiguousSort):
        least_sort(sig, fk)
    for memo in ("cold", "warm"):
        for u in subjects:
            assert _steps(alg, u) == naive_direct_steps(alg, u), (memo, u)
    kept = {s[4] for u in subjects for s in _steps(alg, u)}
    assert {fk, G("g", (fk,)), G("h", (fk,)), G("g", (G("g", (fk,)),))} <= kept
    assert not any("n" in print_term(r) for r in kept)


def test_variables_capture_terms_with_no_least_sort():
    # f(k) has no least sort, but its sort set holds B1, B2 and T: a
    # variable of any of those sorts captures it, in matching and in
    # substitution alike; one of sort K does not.
    G = GroundTerm
    sig = _ambiguous_algebra().signature
    x = Var("X", "T")
    alg = OSAlgebra(sig, (), (Rule(PNode("g", (x,)), x),))
    fk = G("f", (G("k"),))
    steps = direct_steps(alg, G("g", (fk,)))
    assert [(s.rule_index, s.position, s.substitution, s.result) for s in steps] == [
        (0, (), (("X", fk),), fk)
    ]
    assert match_pattern(sig, PNode("h", (Var("Y", "B1"),)), G("h", (fk,))) == {"Y": fk}
    assert apply_substitution(sig, x, {"X": fk}) is fk
    with pytest.raises(SortViolation):
        apply_substitution(sig, Var("X", "K"), {"X": fk})
