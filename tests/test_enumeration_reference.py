"""The ground-term enumerator against the plain version it replaces.

The reference below keeps a height for every term, skips a candidate
tuple unless its highest member has height ``h - 1``, skips a term it
has built before, and asks the poset for a term's supersorts each time.
The enumerator in ``bisim`` only tests a tuple against the terms of
height ``h - 1``, skips a tuple that an earlier overload of its
constructor admits, keeps nothing of the last height, and reads sort
data computed once per sort; these are pure speed-ups, so every sequence
must come out the same, order included: by height, then operator
declaration, then product order.  The forward sweep reads the stream
the enumerator is built on, which leaves a term of the last height
unbuilt when its least sort is known; interned, it is the same sequence.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from gen_algebras import random_algebra
from ostrans import (
    GroundTerm,
    MSSignature,
    OSSignature,
    enumerate_ground_terms,
    least_sort,
    ms_sort,
    parse_spec,
    translate_algebra,
)
from ostrans.bisim import _ground_applications


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


def _cold_copy(sig):
    """A signature equal to ``sig``, every cache empty."""
    if isinstance(sig, OSSignature):
        return OSSignature(sig.sorts, sig.subsort_pairs, sig.operators)
    return MSSignature(sig.sorts, sig.operators)


def _assert_stream_matches(alg) -> tuple[int, int]:
    """Compare the stream, interned, with the enumerator on ``alg`` and its
    translation, at depths 0 to 3 and each sort; terms compared, and how
    many the stream left unbuilt."""
    ms, _ = translate_algebra(alg)
    compared = unbuilt = 0
    for sig in (_cold_copy(alg.signature), _cold_copy(ms.signature)):
        cold = _cold_copy(sig)
        for depth in range(4):
            for sort in (None, *sorted(sig.sorts)):
                # The stream goes first, so it meets the caches cold at
                # each new depth; the enumerator then finds them warm.
                stream = list(_ground_applications(sig, sort, depth))
                terms = list(enumerate_ground_terms(sig, sort=sort, depth=depth))
                assert [t or GroundTerm(c, args) for t, c, args, _ in stream] == terms, (sig, depth)
                assert [s for *_, s in stream] == [least_sort(cold, t) for t in terms]
                assert all(t is None or (t.constructor, t.args) == (c, args)
                           for t, c, args, _ in stream)
                compared += len(stream)
                unbuilt += sum(t is None for t, *_ in stream)
    return compared, unbuilt


@pytest.mark.parametrize("fixture", ["imp.osa", "imp_real.osa"])
def test_interned_stream_matches_the_enumerator_on_fixtures(fixture):
    compared, unbuilt = _assert_stream_matches(_fixture(fixture))
    assert compared > 50_000 and unbuilt > 50_000


def test_interned_stream_matches_the_enumerator_on_random_algebras():
    rng = random.Random(20261022)
    counts = [_assert_stream_matches(random_algebra(rng)) for _ in range(50)]
    assert sum(c for c, _ in counts) > 100_000 and sum(u for _, u in counts) > 100_000


# Run in a new process, as the intern pool is the process's: a term
# interned by an earlier test would not count.
POOL_GROWTH = """\
from importlib import resources
from ostrans import BisimConfig, GroundTerm, check_backward, check_forward, parse_spec
from ostrans import translate_algebra
alg = parse_spec((resources.files("ostrans") / "fixtures" / "imp.osa").read_text())
ms, tm = translate_algebra(alg)
cfg = BisimConfig(term_depth=3)
sizes = [len(GroundTerm._pool)]
assert check_forward(alg, ms, tm, cfg).passed
sizes.append(len(GroundTerm._pool))
assert check_backward(alg, ms, tm, cfg).passed
sizes.append(len(GroundTerm._pool))
print(*sizes)
"""


def test_a_depth_3_check_interns_few_nodes():
    # The forward check meets 27,088 subjects, 26,841 of them of the last
    # height; it builds those it replays or matches at the root, and the
    # few it sorts by a new (constructor, child least sorts).
    src = str(Path(enumerate_ground_terms.__code__.co_filename).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", POOL_GROWTH], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    before, forward, both = map(int, done.stdout.split())
    assert forward - before < 3_000
    assert both <= 3_000
