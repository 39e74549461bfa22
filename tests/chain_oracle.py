"""Shared apparatus for deciding core equality by brute force.

The oracle works on cast chains viewed as sort paths: each generated core
equation becomes a pair of path segments, and a bidirectional search
closes a path under contiguous segment replacement.  This is independent
of the canonicalization code under test.
"""

from __future__ import annotations

import random

from gen_algebras import random_dag_pairs
from ostrans import (
    Equation,
    GroundTerm,
    OSSignature,
    PNode,
    TranslationMap,
    cast_name,
)

G = GroundTerm


def chain_world(rng: random.Random, max_sorts: int):
    """A random poset with its casts and canonical paths, no operators."""
    names, pairs = random_dag_pairs(rng, max_sorts)
    sig = OSSignature(names, pairs, ())
    tm = TranslationMap(
        source=sig,
        tie_break="lex",
        representative_of={},
        rename_of={},
    )
    return sig, tm


def chain_term(path: tuple[str, ...]) -> GroundTerm:
    t = G(f"base_{path[0]}")
    for lo, hi in zip(path, path[1:]):
        t = G(cast_name(lo, hi), (t,))
    return t


def all_paths_from(poset, start: str, max_edges: int):
    out = [(start,)]
    frontier = [(start,)]
    for _ in range(max_edges):
        nxt = []
        for path in frontier:
            for succ in poset.successors(path[-1]):
                nxt.append(path + (succ,))
        out.extend(nxt)
        frontier = nxt
    return out


def segment_of(tm: TranslationMap, eq: Equation):
    """Read one core equation back as a pair of sort paths."""

    def side_path(p) -> tuple[str, ...]:
        names = []
        while isinstance(p, PNode):
            names.append(tm.table.pair_of[p.constructor])
            p = p.args[0]
        names.reverse()
        path = [names[0][0]]
        for lo, hi in names:
            assert path[-1] == lo
            path.append(hi)
        return tuple(path)

    return side_path(eq.lhs), side_path(eq.rhs)


def oracle_closure(start: tuple[str, ...], segments) -> set[tuple[str, ...]]:
    """All paths reachable by applying segments as rewrites, both ways."""
    seen = {start}
    frontier = [start]
    while frontier:
        path = frontier.pop()
        for a, b in segments:
            for src, dst in ((a, b), (b, a)):
                k = len(src)
                for i in range(len(path) - k + 1):
                    if path[i:i + k] == src:
                        new = path[:i] + dst + path[i + k:]
                        if new not in seen:
                            seen.add(new)
                            frontier.append(new)
    return seen
