"""Reasoning over the subsort pair set: closure, tops, paths, diamonds.

The declared pairs form a directed acyclic graph over the sort names; the
subsort relation is its reflexive-transitive closure.  Path enumeration
always works on the declared pairs, not on the closure: a closure edge has
no realizable coercion chain of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import CycleDetected, UnknownSort

Sort = str

# The ways ``choose_canonical`` can break a tie between shortest paths.
TIE_BREAKS = ("lex", "revlex")


@dataclass(frozen=True)
class Diamond:
    """Two distinct directed paths between the same bottom and top sort.

    ``path_a`` is the canonical path for the pair, ``path_b`` the
    alternative it is reported against.  Paths include both endpoints.
    """

    bottom: Sort
    top: Sort
    path_a: tuple[Sort, ...]
    path_b: tuple[Sort, ...]


@dataclass
class SortPoset:
    """Declared subsort pairs plus their reflexive-transitive closure."""

    sorts: frozenset[Sort]
    base_pairs: frozenset[tuple[Sort, Sort]]
    _up: dict[Sort, frozenset[Sort]] = field(repr=False, compare=False, default_factory=dict)
    _succ: dict[Sort, tuple[Sort, ...]] = field(repr=False, compare=False, default_factory=dict)

    def _require(self, *names: Sort) -> None:
        for name in names:
            if name not in self.sorts:
                raise UnknownSort(f"unknown sort {name!r}")

    def leq(self, a: Sort, b: Sort) -> bool:
        """Whether ``a`` is a subsort of ``b`` (reflexively)."""
        self._require(a, b)
        return b in self._up[a]

    def supersorts(self, a: Sort) -> frozenset[Sort]:
        """All sorts above ``a``, including ``a`` itself."""
        self._require(a)
        return self._up[a]

    def successors(self, a: Sort) -> tuple[Sort, ...]:
        """Immediate supersorts of ``a`` (declared pairs only), sorted."""
        self._require(a)
        return self._succ[a]

    def upper_bounds(self, a: Sort, b: Sort) -> frozenset[Sort]:
        self._require(a, b)
        return self._up[a] & self._up[b]

    def common_supersort_exists(self, a: Sort, b: Sort) -> bool:
        """Whether the two sorts share any supersort."""
        return bool(self.upper_bounds(a, b))

    def components(self) -> list[frozenset[Sort]]:
        """Connected components of the undirected pair graph."""
        neighbors: dict[Sort, set[Sort]] = {s: set() for s in self.sorts}
        for lo, hi in self.base_pairs:
            neighbors[lo].add(hi)
            neighbors[hi].add(lo)
        seen: set[Sort] = set()
        out: list[frozenset[Sort]] = []
        for start in sorted(self.sorts):
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                node = stack.pop()
                if node in comp:
                    continue
                comp.add(node)
                stack.extend(neighbors[node] - comp)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def single_chain(self) -> bool:
        """Whether no two declared-pair paths join the same pair of sorts.

        Two paths join some pair exactly when they part at some sort:
        two of its successors share a supersort.
        """
        up = self._up
        return not any(up[x] & up[y] for succ in self._succ.values()
                       for x, y in combinations(succ, 2))

    def check_unique_tops(self) -> list[tuple[Sort, Sort, tuple[Sort, ...]]]:
        """Pairs of connected sorts lacking a unique maximal common supersort.

        Returns one ``(a, b, maximal_bounds)`` entry per offending pair;
        an empty list means the poset satisfies the requirement.  The
        upper bounds of a pair are closed upward, so their maximal
        elements are the component's maximal sorts that lie above both.
        """
        up = self._up
        violations: list[tuple[Sort, Sort, tuple[Sort, ...]]] = []
        for comp in self.components():
            members = sorted(comp)
            tops = [s for s in members if len(up[s]) == 1]
            for i, a in enumerate(members):
                above_a = [t for t in tops if t in up[a]]
                for b in members[i + 1:]:
                    maximal = tuple(t for t in above_a if t in up[b])
                    if len(maximal) != 1:
                        violations.append((a, b, maximal))
        return violations

    def enumerate_paths(self, start: Sort, end: Sort) -> tuple[tuple[Sort, ...], ...]:
        """All directed paths over declared pairs from ``start`` to ``end``.

        Paths include both endpoints; the result is empty when the sorts
        are equal or unrelated.  Acyclicity makes every walk simple.
        """
        self._require(start, end)
        if start == end or not self.leq(start, end):
            return ()
        paths: list[tuple[Sort, ...]] = []
        stack: list[tuple[Sort, tuple[Sort, ...]]] = [(start, (start,))]
        while stack:
            node, prefix = stack.pop()
            for nxt in self._succ[node]:
                if nxt == end:
                    paths.append(prefix + (nxt,))
                elif self.leq(nxt, end):
                    stack.append((nxt, prefix + (nxt,)))
        return tuple(sorted(paths, key=lambda p: (len(p), p)))


def build_poset(sorts, pairs) -> SortPoset:
    """Validate declared pairs and compute their closure.

    Rejects pairs over unknown sorts and any directed cycle, including
    self-pairs.
    """
    sort_set = frozenset(sorts)
    pair_set = frozenset((lo, hi) for lo, hi in pairs)
    for lo, hi in pair_set:
        if lo not in sort_set or hi not in sort_set:
            raise UnknownSort(f"subsort pair ({lo!r}, {hi!r}) mentions an undeclared sort")
        if lo == hi:
            raise CycleDetected(f"subsort pair relates {lo!r} to itself")
    succ: dict[Sort, list[Sort]] = {s: [] for s in sort_set}
    for lo, hi in sorted(pair_set):
        succ[lo].append(hi)

    # Kahn's algorithm both detects cycles and orders the closure sweep.
    indegree = {s: 0 for s in sort_set}
    for _, hi in pair_set:
        indegree[hi] += 1
    ready = sorted(s for s in sort_set if indegree[s] == 0)
    topo: list[Sort] = []
    while ready:
        node = ready.pop()
        topo.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(topo) != len(sort_set):
        rest = sorted(s for s in sort_set if indegree[s] > 0)
        raise CycleDetected(f"subsort pairs contain a cycle through {rest}")

    up: dict[Sort, frozenset[Sort]] = {}
    for node in reversed(topo):
        acc: set[Sort] = {node}
        for nxt in succ[node]:
            acc |= up[nxt]
        up[node] = frozenset(acc)
    return SortPoset(
        sorts=sort_set,
        base_pairs=pair_set,
        _up=up,
        _succ={s: tuple(sorted(vs)) for s, vs in succ.items()},
    )


def choose_canonical(paths, tie_break: str = "lex") -> tuple[Sort, ...]:
    """Pick the canonical path: shortest, ties broken lexicographically.

    ``tie_break`` is either ``"lex"`` (smallest name sequence wins) or
    ``"revlex"`` (largest wins); both resolve only among shortest paths.
    """
    _require_tie_break(tie_break)
    paths = list(paths)
    if not paths:
        raise ValueError("no paths to choose from")
    shortest = min(len(p) for p in paths)
    candidates = [p for p in paths if len(p) == shortest]
    return min(candidates) if tie_break == "lex" else max(candidates)


def _require_tie_break(tie_break: str) -> None:
    """Refuse a ``tie_break`` outside ``TIE_BREAKS`` with ``ValueError``."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")


def _paths_by_pair(poset: SortPoset):
    """``((lo, hi), paths)`` for every related pair of distinct sorts, in order."""
    for lo in sorted(poset.sorts):
        for hi in sorted(poset.supersorts(lo)):
            if hi != lo:
                yield (lo, hi), poset.enumerate_paths(lo, hi)


def compute_canonical_paths(
    poset: SortPoset, tie_break: str
) -> dict[tuple[Sort, Sort], tuple[Sort, ...]]:
    """The canonical path of every related pair of distinct sorts, in order;
    an unknown ``tie_break`` is refused first, whatever the poset."""
    _require_tie_break(tie_break)
    return {pair: choose_canonical(paths, tie_break) for pair, paths in _paths_by_pair(poset)}


def find_diamonds(poset: SortPoset, tie_break: str = "lex") -> tuple[Diamond, ...]:
    """Every pair of sorts joined by two or more declared-pair paths.

    Each non-canonical path is reported once, against the canonical path
    of its endpoints.  The paths of each pair are enumerated once, and
    none when the poset is a ``single_chain`` one; an unknown
    ``tie_break`` is refused first.
    """
    _require_tie_break(tie_break)
    if poset.single_chain():
        return ()
    diamonds = []
    for (bottom, top), paths in _paths_by_pair(poset):
        canon = choose_canonical(paths, tie_break)
        diamonds += (Diamond(bottom, top, canon, path) for path in paths if path != canon)
    return tuple(diamonds)
