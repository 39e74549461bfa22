from __future__ import annotations

import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_algebras import random_dag_pairs
from ostrans import (
    CycleDetected, Operator, OSAlgebra, OSSignature, UnknownSort, build_poset, choose_canonical,
    find_diamonds, validate_algebra,
)
from ostrans.poset import SortPoset, compute_canonical_paths
from ostrans.translate import CastTable

IMP_SORTS = ["nat", "int", "AExp", "Id", "bool", "BExp", "Block", "Stmt", "Map", "Pgm"]
IMP_PAIRS = [
    ("nat", "int"), ("int", "AExp"), ("Id", "AExp"),
    ("bool", "BExp"), ("Block", "Stmt"),
]


def _nx_closure(sorts, pairs) -> set[tuple[str, str]]:
    graph = nx.DiGraph()
    graph.add_nodes_from(sorts)
    graph.add_edges_from(pairs)
    closure = nx.transitive_closure(graph, reflexive=True)
    return set(closure.edges())


def test_imp_closure_matches_oracle():
    poset = build_poset(IMP_SORTS, IMP_PAIRS)
    oracle = _nx_closure(IMP_SORTS, IMP_PAIRS)
    ours = {(a, b) for a in IMP_SORTS for b in IMP_SORTS if poset.leq(a, b)}
    assert ours == oracle
    assert poset.leq("nat", "AExp")
    assert sum(1 for a in IMP_SORTS if poset.leq(a, a)) == 10


def test_leq_examples():
    poset = build_poset(IMP_SORTS, IMP_PAIRS)
    assert not poset.leq("bool", "AExp")
    assert all(poset.leq(s, s) for s in IMP_SORTS)


def test_leq_unknown_sort():
    poset = build_poset(IMP_SORTS, IMP_PAIRS)
    with pytest.raises(UnknownSort):
        poset.leq("nat", "ghost")


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        build_poset(["a"], [("a", "a")])


def test_unknown_pair_member():
    with pytest.raises(UnknownSort):
        build_poset(["a"], [("a", "b")])


def test_empty_pairs_reflexive_only():
    poset = build_poset(["a", "b"], [])
    assert poset.leq("a", "a") and poset.leq("b", "b")
    assert not poset.leq("a", "b") and not poset.leq("b", "a")


def test_common_supersort():
    poset = build_poset(IMP_SORTS, IMP_PAIRS)
    assert poset.common_supersort_exists("nat", "Id")  # both below AExp
    assert not poset.common_supersort_exists("bool", "nat")
    assert poset.common_supersort_exists("Map", "Map")


def test_unique_tops_imp_clean():
    assert build_poset(IMP_SORTS, IMP_PAIRS).check_unique_tops() == []


def test_unique_tops_violation():
    poset = build_poset(["a", "c", "d"], [("a", "c"), ("a", "d")])
    bad_pairs = {(a, b) for a, b, _ in poset.check_unique_tops()}
    assert ("c", "d") in bad_pairs


def test_unique_tops_single_sort():
    assert build_poset(["a"], []).check_unique_tops() == []


def _brute_force_tops(poset):
    """The definition: every pair of a component whose upper bounds have
    no single maximal element, with those maximal elements."""
    out = []
    for comp in poset.components():
        members = sorted(comp)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                bounds = poset.upper_bounds(a, b)
                maximal = tuple(sorted(
                    u for u in bounds if not any(v != u and poset.leq(u, v) for v in bounds)))
                if len(maximal) != 1:
                    out.append((a, b, maximal))
    return out


def test_unique_tops_matches_the_definition_on_random_posets():
    rng = random.Random(20261020)
    found = 0
    for _ in range(300):
        names, pairs = random_dag_pairs(rng, 12)
        poset = build_poset(names, pairs)
        got = poset.check_unique_tops()
        assert got == _brute_force_tops(poset), (names, pairs)
        found += len(got)
    assert found > 0


def test_a_long_chain_validates_quickly():
    # Every pair of a chain has its top as the one maximal bound; deciding
    # that costs no scan of the pair's bounds.  Scanning each pair's bounds
    # against each other took over 15 s on this chain.
    names = [f"c{i}" for i in range(300)]
    sig = OSSignature(names, list(zip(names, names[1:])), [Operator("k", (), "c0")])
    started = time.perf_counter()
    report = validate_algebra(OSAlgebra(sig, (), ()))
    assert report.unique_tops and report.translatable
    assert time.perf_counter() - started < 2.0


def test_enumerate_paths_imp():
    poset = build_poset(IMP_SORTS, IMP_PAIRS)
    assert poset.enumerate_paths("nat", "AExp") == (("nat", "int", "AExp"),)
    assert poset.enumerate_paths("nat", "nat") == ()
    assert poset.enumerate_paths("bool", "AExp") == ()


def test_enumerate_paths_real_extension():
    poset = build_poset(
        IMP_SORTS + ["real"],
        IMP_PAIRS + [("nat", "real"), ("real", "AExp")],
    )
    paths = poset.enumerate_paths("nat", "AExp")
    assert set(paths) == {("nat", "int", "AExp"), ("nat", "real", "AExp")}


def test_paths_against_networkx_oracle():
    rng = random.Random(20240817)
    for _ in range(50):
        names, pairs = random_dag_pairs(rng, max_sorts=8)
        poset = build_poset(names, pairs)
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(pairs)
        for a in names:
            for b in names:
                if a == b:
                    continue
                expected = {tuple(p) for p in nx.all_simple_paths(graph, a, b)}
                assert set(poset.enumerate_paths(a, b)) == expected


def test_paths_nonempty_iff_strictly_below():
    rng = random.Random(7)
    for _ in range(30):
        names, pairs = random_dag_pairs(rng, max_sorts=7)
        poset = build_poset(names, pairs)
        for a in names:
            for b in names:
                nonempty = bool(poset.enumerate_paths(a, b))
                assert nonempty == (poset.leq(a, b) and a != b)


def test_find_diamonds_imp_and_chain():
    assert find_diamonds(build_poset(IMP_SORTS, IMP_PAIRS)) == ()
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert find_diamonds(chain) == ()


def test_find_diamonds_real_extension():
    poset = build_poset(
        IMP_SORTS + ["real"],
        IMP_PAIRS + [("nat", "real"), ("real", "AExp")],
    )
    diamonds = find_diamonds(poset)
    assert len(diamonds) == 1
    d = diamonds[0]
    assert (d.bottom, d.top) == ("nat", "AExp")
    assert d.path_a == ("nat", "int", "AExp")
    assert d.path_b == ("nat", "real", "AExp")


def test_find_diamonds_against_oracle():
    rng = random.Random(99)
    for _ in range(40):
        names, pairs = random_dag_pairs(rng, max_sorts=8)
        poset = build_poset(names, pairs)
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(pairs)
        expected = {}
        for a in names:
            for b in names:
                if a != b:
                    paths = [tuple(p) for p in nx.all_simple_paths(graph, a, b)]
                    if len(paths) >= 2:
                        expected[(a, b)] = len(paths) - 1
        got: dict[tuple[str, str], int] = {}
        for d in find_diamonds(poset):
            got[(d.bottom, d.top)] = got.get((d.bottom, d.top), 0) + 1
        assert got == expected


def test_find_diamonds_walks_each_pair_once(monkeypatch):
    # A method, so patched on the class: one path walk per related pair,
    # with diamonds in the order of the canonical-path table.
    poset = build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d"), ("c", "e"), ("d", "e")],
    )
    walked = []
    enumerate_paths = SortPoset.enumerate_paths

    def counted(self, start, end):
        walked.append((start, end))
        return enumerate_paths(self, start, end)

    for tie_break in ("lex", "revlex"):
        want = tuple(
            (bottom, top, canon, path)
            for (bottom, top), canon in compute_canonical_paths(poset, tie_break).items()
            for path in poset.enumerate_paths(bottom, top)
            if path != canon
        )
        monkeypatch.setattr(SortPoset, "enumerate_paths", counted)
        walked.clear()
        got = find_diamonds(poset, tie_break)
        monkeypatch.undo()
        related = [
            (a, b) for a in sorted(poset.sorts) for b in sorted(poset.supersorts(a)) if a != b
        ]
        assert walked == related
        assert len(want) >= 4
        assert tuple((d.bottom, d.top, d.path_a, d.path_b) for d in got) == want


def test_find_diamonds_walks_no_path_of_a_chain(monkeypatch):
    # A chain has one path per related pair, so no pair can hold a
    # diamond: none of its 1,770 pairs is walked.
    names = [f"c{i:02}" for i in range(60)]
    chain = build_poset(names, list(zip(names, names[1:])))
    walked = []
    enumerate_paths = SortPoset.enumerate_paths

    def counted(self, start, end):
        walked.append((start, end))
        return enumerate_paths(self, start, end)

    monkeypatch.setattr(SortPoset, "enumerate_paths", counted)
    assert chain.single_chain()
    assert find_diamonds(chain) == find_diamonds(chain, "revlex") == ()
    assert walked == []
    fork = build_poset(names[:3], [("c00", "c01"), ("c00", "c02"), ("c01", "c02")])
    assert not fork.single_chain() and len(find_diamonds(fork)) == 1


def test_choose_canonical_tie_breaks():
    paths = [("n", "i", "A"), ("n", "r", "A"), ("n", "x", "y", "A")]
    assert choose_canonical(paths, "lex") == ("n", "i", "A")
    assert choose_canonical(paths, "revlex") == ("n", "r", "A")
    with pytest.raises(ValueError):
        choose_canonical(paths, "sideways")


@pytest.mark.parametrize("fixture", [None, "imp", "imp_real"])
def test_a_bad_tie_break_is_refused_whatever_the_poset_s_shape(request, fixture):
    # A one-sort poset has no related pair and ``imp.osa``'s is a single
    # chain, so neither asks ``choose_canonical`` for a path; the tie-break
    # is still refused, as on ``imp_real.osa``'s diamond.
    poset = (build_poset(["a"], []) if fixture is None
             else request.getfixturevalue(fixture).signature.poset)
    for call in (lambda: find_diamonds(poset, "bogus"),
                 lambda: compute_canonical_paths(poset, "bogus"),
                 lambda: CastTable({}, poset, "bogus")):
        with pytest.raises(ValueError, match="unknown tie_break 'bogus'"):
            call()


@st.composite
def dag_pair_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"s{i}" for i in range(n)]
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: ij[0] < ij[1]
        ),
        max_size=10,
    ))
    return names, {(names[i], names[j]) for i, j in pairs}


@settings(max_examples=120, deadline=None)
@given(dag_pair_sets())
def test_partial_order_laws(data):
    names, pairs = data
    poset = build_poset(names, pairs)
    for a in names:
        assert poset.leq(a, a)
        for b in names:
            if poset.leq(a, b) and poset.leq(b, a):
                assert a == b
            for c in names:
                if poset.leq(a, b) and poset.leq(b, c):
                    assert poset.leq(a, c)
    assert all(poset.leq(lo, hi) for lo, hi in pairs)
