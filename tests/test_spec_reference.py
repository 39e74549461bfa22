"""The spec layers' lookups against the scans they replace.

Operator resolution depends only on the constructor and the sorts of the
children, so the admission and sort-set memos, the constructor-arity map,
the overload buckets and the split-based cast-name resolver are pure
speed-ups.  The oracles below are the scans they replaced: every sort pair
for a cast name, every operator for a constructor's arities, every
overload for a term's sorts, and every same-constructor pair for the
overload checks.  Validity reports (violations in order), term sorts and
translations must come out the same on the fixtures, a renamed four-copy
spec, random translatable algebras and random signatures that fail
validation.

The spec scanner is checked against the character loop it replaced, on
the fixtures, the benchmark's wide specs, their printed translations,
edge cases and seeded mutations; ``parse_spec`` on those mutations must
give the outcomes recorded in ``tests/data/spec_mutation_outcomes.txt``.
"""

from __future__ import annotations

import random
import re
from importlib import resources
from itertools import combinations, islice, product

import pytest

from gen_algebras import random_algebra, random_dag_pairs
from spec_inputs import OUTCOMES, mutated_specs, outcome, wide_spec
from ostrans import (
    AmbiguousSort,
    CastNameReserved,
    Equation,
    GroundTerm,
    IllFormedTerm,
    InconsistentAnnotation,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    Rule,
    SpecSyntaxError,
    UnknownSort,
    Var,
    ValidityReport,
    argument_compatible,
    check_equations_sort_equal,
    check_rules_sort_decreasing,
    enumerate_ground_terms,
    least_sort,
    parse_spec,
    print_spec,
    print_term,
    sorts_of,
    translate,
    translate_algebra,
    translate_term,
    validate_algebra,
)
from ostrans.specfmt import (
    _KIND,
    Token,
    _Elaborator,
    _known_constructor,
    _positions,
    _resolve_cast_profile,
    _scan,
    parse_document,
)

COPIES = 4


def _fixture_text(name):
    return (resources.files("ostrans") / "fixtures" / name).read_text(encoding="utf-8")


def _renamed_copies(text, copies):
    """``copies`` copies of a spec, sorts and constants suffixed per copy.

    Other constructors keep their names, so each copy overloads them once
    more over sorts no other copy relates to.
    """
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    renamed = set()
    for line in lines:
        words = line.split()
        if words[:1] == ["sorts"]:
            renamed.update(words[1:])
        elif words[:1] == ["op"] and words[2:4] == [":", "->"]:
            renamed.add(words[1])
    body = [line for line in lines if line and not line.startswith("algebra")]
    out = [f"algebra COPIES{copies}"]
    for i in range(copies):
        out += [
            re.sub(r"[A-Za-z0-9_]+",
                   lambda m: m.group(0) + f"_{i}" if m.group(0) in renamed else m.group(0),
                   line)
            for line in body
        ]
    return "\n".join(out) + "\n"


# --- oracles: the scans the lookups replaced ----------------------------------

_KEYWORDS = frozenset({"algebra", "sorts", "subsorts", "op", "eq", "rule"})
_SYM = frozenset("+-*/!?@$%^&~|.")
_ALNUM = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_PUNCT = {"=": "EQ", "<": "LT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA",
          ":": "COLON", ";": "SEMI"}


def oracle_tokenize(text):
    """``(kind, value, line, col)`` of every token, one character at a time."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two == "->":
            tokens.append(("ARROW", two, line, col))
            i += 2
            col += 2
            continue
        if two == "=>":
            tokens.append(("DARROW", two, line, col))
            i += 2
            col += 2
            continue
        if two == "<=":
            j = i + 2
            while j < n and text[j] in _ALNUM:
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _ALNUM or ch in _SYM:
            j = i
            while j < n and text[j] in _SYM and text[j:j + 2] != "->":
                j += 1
            while j < n and text[j] in _ALNUM:
                j += 1
            word = text[i:j]
            tokens.append(("KW" if word in _KEYWORDS else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def scanned(text):
    """The scanner's tokens in the oracle's shape."""
    values = _scan(text)
    return [(_KIND.get(v, "IDENT"), v, line, col)
            for v, (line, col) in zip(values, _positions(text), strict=True)]

def oracle_resolve_cast_profile(name, sorts, op, tok):
    matches = [
        (sub, sup)
        for sub in sorts
        for sup in sorts
        if name == f"Cast_{sub}_to_{sup}"
    ]
    if len(matches) != 1:
        raise CastNameReserved(
            f"cast-named operator {name!r} does not name a unique sort pair",
            tok.line, tok.col,
        )
    sub, sup = matches[0]
    if op.arg_sorts != (sub,) or op.target_sort != sup:
        raise CastNameReserved(
            f"cast-named operator {name!r} must have profile {sub} -> {sup}",
            tok.line, tok.col,
        )


def oracle_arities(operators, name):
    return {op.arity for op in operators if op.constructor == name}


def oracle_known_constructor(operators, name, arity, tok):
    arities = oracle_arities(operators, name)
    if not arities:
        raise SpecSyntaxError(f"unknown constructor {name!r}", tok.line, tok.col)
    if arity not in arities:
        raise SpecSyntaxError(
            f"constructor {name!r} used with {arity} arguments", tok.line, tok.col
        )


def oracle_least_sort(sig, t):
    if isinstance(t, Var):
        if t.sort not in sig.sorts:
            raise UnknownSort(f"unknown sort {t.sort!r}")
        return t.sort
    child_sorts = tuple(oracle_least_sort(sig, a) for a in t.args)
    leq = sig.poset.leq
    targets = []
    for op in sig.ops_named(t.constructor):
        if op.arity != len(t.args):
            continue
        if all(leq(cs, s) for cs, s in zip(child_sorts, op.arg_sorts)):
            targets.append(op.target_sort)
    if not targets:
        raise IllFormedTerm(
            f"no operator admits {print_term(t)} (children sorted {child_sorts})"
        )
    for cand in targets:
        if all(leq(cand, other) for other in targets):
            return cand
    raise AmbiguousSort(
        f"term {print_term(t)} has incomparable candidate sorts {sorted(set(targets))}"
    )


def oracle_sorts_of(sig, t):
    if isinstance(t, Var):
        return sig.poset.supersorts(t.sort) if t.sort in sig.sorts else frozenset()
    child_sets = [oracle_sorts_of(sig, a) for a in t.args]
    acc = set()
    for op in sig.ops_named(t.constructor):
        if op.arity != len(t.args):
            continue
        if all(s in cs for s, cs in zip(op.arg_sorts, child_sets)):
            acc |= sig.poset.supersorts(op.target_sort)
    return frozenset(acc)


def oracle_translate_node(tm, t, children):
    # The children's translations are made again, not read off ``children``.
    src = tm.source
    leq = src.poset.leq
    child_sorts = tuple(oracle_least_sort(src, a) for a in t.args)
    chosen = None
    for op in src.ops_named(t.constructor):
        if op.arity == len(t.args) and all(
            leq(cs, s) for cs, s in zip(child_sorts, op.arg_sorts)
        ):
            chosen = op
            break
    if chosen is None:
        raise IllFormedTerm(f"no operator admits {print_term(t)}")
    rep = tm.representative_of[chosen]
    cls = GroundTerm if isinstance(t, GroundTerm) else PNode
    new_args = [translate_term(tm, a, expected=want) for a, want in zip(t.args, rep.arg_sorts)]
    return cls(tm.rename_of[rep], tuple(new_args))


def _oracle_pairs(alg):
    by_ctor = {}
    for op in alg.signature.operators:
        by_ctor.setdefault(op.constructor, []).append(op)
    for ops in by_ctor.values():
        yield from combinations(ops, 2)


def oracle_validate(alg):
    poset = alg.signature.poset
    leq = poset.leq
    v1 = [
        ("sensible", (f, g))
        for f, g in _oracle_pairs(alg)
        if argument_compatible(poset, f, g)
        and not poset.common_supersort_exists(f.target_sort, g.target_sort)
    ]
    v2 = []
    for f, g in _oracle_pairs(alg):
        if f.arity == 0 and g.arity == 0:
            v2.append(("overloaded_constant", (f, g)))
        elif argument_compatible(poset, f, g) and f.target_sort != g.target_sort:
            v2.append(("strong_sensible", (f, g)))
    reps, v3 = {}, []
    for f in alg.signature.operators:
        compatible = [
            g for g in alg.signature.ops_named(f.constructor)
            if argument_compatible(poset, f, g)
        ]
        chosen = None
        for cand in compatible:
            if all(
                argument_compatible(poset, cand, g)
                and all(leq(a, b) for a, b in zip(g.arg_sorts, cand.arg_sorts))
                for g in compatible
            ):
                chosen = cand
                break
        if chosen is None:
            v3.append(("maximal_argument_bounding", (f,)))
        else:
            reps[f] = chosen
    eqs_ok, v4 = check_equations_sort_equal(alg)
    rules_ok, v5 = check_rules_sort_decreasing(alg)
    tops = poset.check_unique_tops()
    return ValidityReport(
        sensible=not v1,
        strong_sensible=not v2,
        maximal_argument_bounding=not v3,
        equations_sort_equal=eqs_ok,
        rules_sort_decreasing=rules_ok,
        unique_tops=not tops,
        violations=[("unique_top", v) for v in tops] + v1 + v2 + v3 + v4 + v5,
        representative_of=reps,
    )


# --- inputs -------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the diagnostic is part of the behaviour compared
        return (type(exc).__name__, str(exc))


def _fresh(alg):
    """An equal algebra with every signature memo empty."""
    sig = alg.signature
    return OSAlgebra(OSSignature(sig.sorts, sig.subsort_pairs, sig.operators),
                     alg.equations, alg.rules)


def _applications(sig, pool, width=5):
    """Each constructor applied to tuples from the first ``width`` terms.

    Most of these mix sorts no operator admits, so they exercise the
    ill-formed paths too.
    """
    shapes = sorted({(op.constructor, op.arity) for op in sig.operators})
    return [
        GroundTerm(ctor, args)
        for ctor, arity in shapes
        for args in product(pool[:width], repeat=arity)
    ]


def _terms(alg, translatable):
    sig = alg.signature
    if translatable:
        pool = list(enumerate_ground_terms(sig, depth=2))
    else:
        # Enumeration needs least sorts, which these signatures may lack.
        pool = list(dict.fromkeys(GroundTerm(op.constructor) for op in sig.operators
                                  if op.arity == 0))
        for _ in range(2):
            pool = list(dict.fromkeys(pool + _applications(sig, pool, width=4)))
    return list(dict.fromkeys(pool + _applications(sig, pool[::7])))


def _failing_algebra(rng):
    names, pairs = random_dag_pairs(rng, max_sorts=6)
    ops = [Operator(f"c{rng.randrange(3)}", (), rng.choice(names)) for _ in range(3)]
    for ctor in ("f", "g"):
        for _ in range(rng.randint(1, 4)):
            arity = rng.choice((1, 1, 2))
            ops.append(Operator(ctor, tuple(rng.choice(names) for _ in range(arity)),
                                rng.choice(names)))
    sig = OSSignature(names, pairs, ops)
    statements = []
    for op in sig.operators:
        if op.arity and rng.random() < 0.5:
            lhs = PNode(op.constructor, tuple(Var(f"X{i}", s) for i, s in enumerate(op.arg_sorts)))
            rhs = lhs.args[0]
            statements.append(Equation(lhs, rhs) if rng.random() < 0.5 else Rule(lhs, rhs))
    equations = [s for s in statements if isinstance(s, Equation)]
    rules = [s for s in statements if isinstance(s, Rule)]
    try:
        return OSAlgebra(sig, equations, rules)
    except (IllFormedTerm, InconsistentAnnotation):
        return OSAlgebra(sig)


def _algebras():
    imp_real = _fixture_text("imp_real.osa")
    yield "imp", parse_spec(_fixture_text("imp.osa"))
    yield "imp_real", parse_spec(imp_real)
    yield f"imp_real_x{COPIES}", parse_spec(_renamed_copies(imp_real, COPIES))
    rng = random.Random(20261018)
    for i in range(24):
        yield f"random{i}", random_algebra(rng, max_ops=10, max_eqs=6, max_rules=6)
    rng = random.Random(3)
    failing = 0
    while failing < 24:
        alg = _failing_algebra(rng)
        if not validate_algebra(alg).translatable:
            failing += 1
            yield f"failing{failing}", alg


ALGEBRAS = list(_algebras())


# --- checks -------------------------------------------------------------------

def test_inputs_cover_every_kind_of_violation():
    assert len(ALGEBRAS) == 3 + 24 + 24
    wide = dict(ALGEBRAS)[f"imp_real_x{COPIES}"]
    assert len(wide.signature.sorts) == 11 * COPIES
    assert len(wide.signature.ops_named("+")) == 5 * COPIES
    kinds = {
        kind for name, alg in ALGEBRAS if name.startswith("failing")
        for kind, _ in validate_algebra(alg).violations
    }
    assert {"unique_top", "sensible", "overloaded_constant", "strong_sensible",
            "maximal_argument_bounding"} <= kinds
    # Some constructor is declared with two arities.
    assert any(
        len({op.arity for op in alg.signature.ops_named(ctor)}) > 1
        for _, alg in ALGEBRAS for ctor in alg.signature.constructors
    )


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_validity_report_matches_pair_scans(name, alg):
    got = validate_algebra(_fresh(alg))
    want = oracle_validate(alg)
    assert got == want
    assert list(got.representative_of.items()) == list(want.representative_of.items())


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_term_sorts_match_overload_scans(name, alg):
    fresh = _fresh(alg)
    sig = fresh.signature
    sides = [side for st in alg.equations + alg.rules for side in (st.lhs, st.rhs)]
    subjects = sides + _terms(alg, not name.startswith("failing"))
    for memo in ("cold", "warm"):
        for t in subjects:
            assert _outcome(least_sort, sig, t) == _outcome(oracle_least_sort, sig, t), (memo, t)
            assert sorts_of(sig, t) == oracle_sorts_of(sig, t), (memo, t)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_translation_matches_overload_scans(name, alg):
    translatable = not name.startswith("failing")
    terms = _terms(alg, translatable)
    got = _outcome(translate_algebra, _fresh(alg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translate, "_translate_node", oracle_translate_node)
        mp.setattr(translate, "least_sort", oracle_least_sort)
        mp.setattr(translate, "validate_algebra", oracle_validate)
        want = _outcome(translate_algebra, _fresh(alg))
        if translatable:
            want_terms = [_outcome(translate_term, want[1][1], t) for t in terms]
    assert got[0] == want[0]
    if not translatable:
        assert got == want
        return
    (ms, tm), (ms_ref, tm_ref) = got[1], want[1]
    assert ms == ms_ref
    assert (ms.equations, ms.rules) == (ms_ref.equations, ms_ref.rules)
    assert ms.signature.operators == ms_ref.signature.operators
    assert list(tm.representative_of.items()) == list(tm_ref.representative_of.items())
    assert (tm.rename_of, tm.casts, tm.table.canonical_path_of) == (
        tm_ref.rename_of, tm_ref.casts, tm_ref.table.canonical_path_of)
    assert [_outcome(translate_term, tm, t) for t in terms] == want_terms


def _token():
    return Token("", 0)  # The end of an empty text: line 1, column 1.


@pytest.mark.parametrize("name,alg", ALGEBRAS[:27], ids=[name for name, _ in ALGEBRAS[:27]])
def test_cast_names_resolve_like_the_pair_scan(name, alg):
    ms, _ = translate_algebra(alg)
    sorts = ms.signature.sorts
    cases = []
    for cast in sorted(ms.signature.non_core):
        (sub,), sup = cast.arg_sorts, cast.target_sort
        cases += [cast, Operator(cast.constructor, (sup,), sub),
                  Operator(cast.constructor, (sub,), sub)]
    cases += [Operator(f"Cast_{a}_to_{b}", (a,), b)
              for a, b in islice(product(sorted(sorts), repeat=2), 60)]
    some = min(sorts)
    cases += [Operator(f"Cast_nosuch_to_{some}", (some,), some)]
    for op in cases:
        got = _outcome(_resolve_cast_profile, op.constructor, sorts, op, _token())
        want = _outcome(oracle_resolve_cast_profile, op.constructor, sorts, op, _token())
        assert got == want, op


def test_cast_names_with_to_in_sort_names_resolve_like_the_pair_scan():
    words = ["a", "b", "c", "to", "_", "a_to_b", "b_to_c", "to_", "_to", "a_to", "to_b"]
    for size in (2, 3, 4, 6, len(words)):
        sorts = frozenset(words[:size])
        names = {f"Cast_{x}_to_{y}" for x in words for y in words}
        names |= {f"Cast_{x}_to_{y}_to_{z}" for x in words[:6] for y in words[:6] for z in words[:6]}
        for name in sorted(names):
            for profile in product(sorted(sorts), repeat=2):
                op = Operator(name, (profile[0],), profile[1])
                got = _outcome(_resolve_cast_profile, name, sorts, op, _token())
                want = _outcome(oracle_resolve_cast_profile, name, sorts, op, _token())
                assert got == want, (sorted(sorts), name, profile)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_constructor_arities_match_the_operator_scan(name, alg):
    texts = [("osa", print_spec(alg))]
    if not name.startswith("failing"):
        texts.append(("msa", print_spec(translate_algebra(alg)[0])))
    for kind, text in texts:
        elab = _Elaborator(parse_document(text), kind)
        elab.run()
        names = {op.constructor for op in elab.operators} | {"nosuch"}
        for ctor in sorted(names):
            assert elab.arities.get(ctor, set()) == oracle_arities(elab.operators, ctor)
            for arity in range(4):
                got = _outcome(_known_constructor, elab.arities, ctor, arity, _token())
                want = _outcome(oracle_known_constructor, elab.operators, ctor, arity, _token())
                assert got == want


# --- the scanner --------------------------------------------------------------

SCAN_EDGE_CASES = [
    "", "   ", "\n\n", "#only a comment", "a # comment at the end", "a\n# comment\n",
    "<=x", "<=", "x<=<=y", "<= x", "+->", "+-->x", "--", "-", "->->", "a-->b", "=>=",
    "==>", "<-", "+.-x", "-int(+AExp)", "a:b", "f(x:a, -(0))",
    "algebra a\r\nsorts b\r\n", "algebra\ta\n\tsorts\tb c\n", "a\rb",
    "sorts a ' b", "a > b", "a\x0cb", "é", "#é\né", "op f : a -> b\n[", "a\n\n  \t}",
]


def test_scanner_matches_the_character_loop_on_edge_cases():
    for text in SCAN_EDGE_CASES:
        assert _outcome(scanned, text) == _outcome(oracle_tokenize, text), text


def test_scanner_matches_the_character_loop_on_specs():
    texts = [_fixture_text("imp.osa"), _fixture_text("imp_real.osa")]
    for seed in range(5):
        wide = wide_spec(seed)
        texts += [wide, print_spec(translate_algebra(parse_spec(wide))[0], name="translated")]
    texts += [text for text, _ in mutated_specs()]
    for text in texts:
        assert _outcome(scanned, text) == _outcome(oracle_tokenize, text)


def test_mutated_specs_give_the_recorded_outcomes():
    want = OUTCOMES.read_text(encoding="utf-8").splitlines()
    got = [outcome(text, kind) for text, kind in mutated_specs()]
    assert len(got) == len(want) >= 2_000
    kinds = {line.split()[0] for line in want}
    assert {"ok", "SpecSyntaxError", "SpecUnknownSort", "DuplicateDeclaration"} <= kinds
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []
