"""The ground-term enumerator against the plain version it replaces.

The reference below keeps a height for every term, skips a candidate
tuple unless its highest member has height ``h - 1``, skips a term it
has built before, and asks the poset for a term's supersorts each time.
The enumerator in ``bisim`` only tests a tuple against the terms of
height ``h - 1``, skips a tuple that an earlier overload of its
constructor admits, keeps nothing of the last height, and reads sort
data computed once per sort; these are pure speed-ups, so every sequence
must come out the same, order included: by height, then operator
declaration, then product order.
"""

from __future__ import annotations

import random
from importlib import resources
from itertools import product

import pytest

from gen_algebras import random_algebra
from ostrans import (
    GroundTerm,
    OSSignature,
    enumerate_ground_terms,
    least_sort,
    ms_sort,
    parse_spec,
    translate_algebra,
)


def reference_enumeration(sig, sort=None, depth=0):
    os_mode = isinstance(sig, OSSignature)
    pool = {s: [] for s in sig.sorts}
    height = {}

    def admit(t, h):
        height[t] = h
        ts = least_sort(sig, t) if os_mode else ms_sort(sig, t)
        if os_mode:
            for s in sig.poset.supersorts(ts):
                pool[s].append(t)
        else:
            pool[ts].append(t)
        return ts

    def wanted(ts):
        if sort is None:
            return True
        return sig.poset.leq(ts, sort) if os_mode else ts == sort

    for op in sig.operators:
        if op.arity == 0:
            t = GroundTerm(op.constructor)
            if t not in height:
                if wanted(admit(t, 0)):
                    yield t

    for h in range(1, depth + 1):
        snapshot = {s: tuple(ts) for s, ts in pool.items()}
        grew = False
        for op in sig.operators:
            if op.arity == 0:
                continue
            candidates = [snapshot[s] for s in op.arg_sorts]
            if not all(candidates):
                continue
            for combo in product(*candidates):
                if max(height[c] for c in combo) != h - 1:
                    continue
                t = GroundTerm(op.constructor, combo)
                if t in height:
                    continue
                grew = True
                if wanted(admit(t, h)):
                    yield t
        if not grew:
            break


def _fixture(name):
    return parse_spec((resources.files("ostrans") / "fixtures" / name).read_text(encoding="utf-8"))


def _assert_same_sequences(alg) -> int:
    """Compare both enumerators on ``alg`` and its translation; terms compared."""
    ms, _ = translate_algebra(alg)
    compared = 0
    for sig in (alg.signature, ms.signature):
        # The enumerator goes first, on signature caches still cold.
        for depth in range(-1, 4):
            got = list(enumerate_ground_terms(sig, depth=depth))
            assert got == list(reference_enumeration(sig, depth=depth)), (sig, depth)
            compared += len(got)
        for sort in sorted(sig.sorts):
            got = list(enumerate_ground_terms(sig, sort=sort, depth=2))
            assert got == list(reference_enumeration(sig, sort=sort, depth=2)), (sig, sort)
            compared += len(got)
    return compared


@pytest.mark.parametrize("fixture", ["imp.osa", "imp_real.osa"])
def test_enumeration_matches_reference_on_fixtures(fixture):
    assert _assert_same_sequences(_fixture(fixture)) > 25_000


# Each tuple of the first ``+`` also lies in the product of the second,
# and each of the second ``-`` in that of the first.
OVERLAPPING = """\
algebra Overlap
sorts nat int
subsorts nat < int
op 0 : -> nat
op m : -> int
op + : nat nat -> nat
op + : int int -> int
op - : int -> int
op - : nat -> nat
"""


def test_overlapping_overloads_yield_each_term_once():
    # The last height keeps no terms to deduplicate against: there, as
    # below it, the first overload whose product holds a tuple builds it.
    sig = parse_spec(OVERLAPPING).signature
    for depth in range(1, 4):
        for sort in (None, "nat", "int"):
            got = list(enumerate_ground_terms(sig, sort=sort, depth=depth))
            assert got == list(reference_enumeration(sig, sort=sort, depth=depth)), (depth, sort)
            assert len(set(got)) == len(got)


def test_enumeration_matches_reference_on_random_algebras():
    rng = random.Random(20261019)
    compared = sum(_assert_same_sequences(random_algebra(rng)) for _ in range(40))
    assert compared > 5_000
