"""Matching, positional rewriting and bounded equational closure.

Rules and equations apply at any position of a term.  Because equality
modulo the equation set is undecidable in general, the engine closes a
term under bidirectional equation application only up to a depth and size
budget and reports whether a fixpoint was reached.  Core equality (the
congruence identifying different cast chains between the same two sorts)
is instead decided exactly: ``CastTable.canonical`` rewrites every maximal
cast chain to the canonical chain for its endpoints, and the many-sorted
engine matches, deduplicates and compares terms through that normal form.
Where no two cast chains join the same pair of sorts
(``CastTable.single_chain``), every well-formed term is its own normal
form, and nothing is rewritten or recorded.

Every search for redexes composes a term's entry from its root matches
and its children's entries (``RedexIndex._compose``), the one routine
that decides when an entry is empty (``CLEAN``).  A ``RedexIndex``
memoises the entries of the proper subterms of the terms searched, not
of those terms themselves: one bottom-up pass, ``_entry``, fills the
memo, and ``_redexes`` composes a searched term from its children's.
Each new node the search meets or builds costs one lookup keyed by facts
about its children: its candidate left sides by (core head, core
argument heads), after a test of its core head against the left sides'
heads, its core normal form by the fixpoint rule of
``CastTable.canonical`` (none under a single-chain table), its
order-sorted well-formedness by its children's least sorts, and its
translation (``translate``) by (constructor, child least sorts).  Each
of the last three is one ``fold_term`` over its cache, which combines a
node over cached children in one step.  A node is built by the one
interning body, ``terms._intern``, called directly rather than through
the class.  A result's position is a parent link, made a tuple
(``resolve_position``) only where a ``RewriteStep`` is built.
The closure searches one equation direction per class of directions
equal up to renaming their variables, so a commutativity equation is
searched one way, and none of an equation whose sides have one core
under casts: the normal form already decides those.  ``rewrite_step``
and the bisimulation sweep run with CPython's cyclic collector paused
(``_collector_paused``), and what they keep leaves the block in the
collector's oldest generation, so no young collection walks it; at exit
the collector skips the term store (``_freeze_at_exit``).  Compiling,
matching and instantiating a side use explicit stacks, so rule and
equation sides of any depth can rewrite, and a part of a side without
variables is matched by one identity test.
"""

from __future__ import annotations

import atexit
import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import AmbiguousSort, BudgetExceeded, IllFormedTerm
from .terms import (
    GroundTerm,
    MSAlgebra,
    MSSignature,
    Operator,
    OSSignature,
    Pattern,
    Rule,
    Sort,
    Substitution,
    Term,
    Var,
    _intern,
    apply_substitution,
    fold_term,
    inhabits,
    least_sort,
    print_term,
    side_facts,
    well_formed_ground,
)
from .translate import CastTable, cast_table

Position = tuple[int, ...]


@dataclass(frozen=True)
class RewriteConfig:
    """Budgets for the bounded equational closure; both are at least 1."""

    eclass_depth: int = 5
    eclass_max: int = 10_000

    def __post_init__(self):
        if min(self.eclass_depth, self.eclass_max) < 1:
            raise ValueError(f"budgets must be at least 1: {self}")


@dataclass(frozen=True)
class RewriteStep:
    """One rule application; replaying it reproduces ``result``.

    The match fired on ``bridging_term``, a member of the subject's
    bounded equivalence class (the subject itself for direct steps).
    """

    rule_index: int
    rule: Rule
    position: Position
    substitution: tuple[tuple[str, GroundTerm], ...]
    bridging_term: GroundTerm
    result: GroundTerm


@dataclass
class EClassApprox:
    """Bounded approximation of a term's equivalence class modulo equations."""

    members: tuple[GroundTerm, ...]
    depth_used: int
    exhausted: bool


# --- positions --------------------------------------------------------------

def _preorder(t: GroundTerm):
    """Yield ``(position, subterm)`` for every node of ``t`` in preorder."""
    stack: list[tuple[Position, GroundTerm]] = [((), t)]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        args = node.args
        for i in range(len(args) - 1, -1, -1):
            stack.append((pos + (i,), args[i]))


def positions(t: GroundTerm) -> list[Position]:
    """All node positions of ``t`` in preorder; the root is ``()``."""
    return [pos for pos, _ in _preorder(t)]


def subterm_at(t: GroundTerm, pos: Position) -> GroundTerm:
    for i in pos:
        t = t.args[i]
    return t


def replace_at(t: GroundTerm, pos: Position, new: GroundTerm) -> GroundTerm:
    spine = []
    for i in pos:
        spine.append(t)
        t = t.args[i]
    for node, i in zip(reversed(spine), reversed(pos)):
        args = node.args
        new = GroundTerm(node.constructor, args[:i] + (new,) + args[i + 1:])
    return new


def core_canonicalize(source, t: Term) -> Term:
    """The core-equality normal form of ``t``: see ``CastTable.canonical``.

    ``source`` is anything ``cast_table`` accepts.
    """
    return cast_table(source).canonical(t)


# --- matching ---------------------------------------------------------------

class _Node(NamedTuple):
    """A pattern core that is an application.

    ``operator`` is the many-sorted overload the pattern uses (``None``
    order-sorted); ``args`` holds the cores of its arguments.  ``ground``
    is, when no variable occurs below the node, the one term the node
    matches: its instance, in core normal form when many-sorted;
    otherwise ``None``.
    """

    constructor: str
    operator: Operator | None
    args: tuple
    ground: GroundTerm | None


class _Compiled(NamedTuple):
    """A pattern resolved once: its many-sorted sort and its core.

    A core is the pattern under any casts: a ``Var`` or a ``_Node``.
    The sort is ``None`` for an order-sorted pattern.
    """

    sort: Sort | None
    core: Var | _Node


def _compile(sig, table: CastTable | None, p: Pattern) -> _Compiled:
    """``p`` compiled, in one pass over it; ``table`` is ``None`` order-sorted."""
    sort = None if table is None else least_sort(sig, p)
    return _Compiled(sort, fold_term(p, {}, _var_core, _node_core, (sig, table))[0])


def _var_core(context, v: Var) -> tuple:
    return v, None


def _node_core(context, p: Pattern, children: tuple) -> tuple:
    """``(core, instance)`` of ``p``, given those of its arguments.

    The instance is the ground term ``p`` spells when it has no variable,
    else ``None``; a cast's core is its argument's.
    """
    sig, table = context
    instances = tuple([i for _, i in children])
    instance = None if None in instances else GroundTerm(p.constructor, instances)
    cores = tuple([c for c, _ in children])
    if table is None:
        return _Node(p.constructor, None, cores, instance), instance
    if table.is_cast(p.constructor):
        return cores[0], instance
    op = sig.lookup(p.constructor, tuple([least_sort(sig, a) for a in p.args]))
    ground = None if instance is None else table.canonical(instance)
    return _Node(p.constructor, op, cores, ground), instance


def match_pattern(sig, pattern: Pattern | _Compiled, t: GroundTerm) -> Substitution | None:
    """Most direct match of ``pattern`` against ``t``, or ``None``.

    Order-sorted matching lets a variable of sort ``s`` capture any term
    whose least sort lies at or below ``s``.  Many-sorted matching
    requires exact sorts but works modulo core equality, so the subject
    should be in canonical form (bindings come out canonical).  A
    pattern may come compiled, as a ``RedexIndex`` holds its left sides;
    a raw one is compiled first.  A part of the pattern without
    variables matches one term alone, so it costs one identity test.
    """
    binding: Substitution = {}
    if isinstance(sig, OSSignature):
        if not isinstance(pattern, _Compiled):
            pattern = _compile(sig, None, pattern)
        return binding if _match_os(sig, pattern.core, t, binding) else None
    table = cast_table(sig)
    if not isinstance(pattern, _Compiled):
        pattern = _compile(sig, table, pattern)
    if pattern.sort != least_sort(sig, t):
        return None
    return binding if _match_ms(sig, table, pattern.core, t, binding) else None


def _match_os(sig: OSSignature, core: Var | _Node, t: GroundTerm, binding: Substitution) -> bool:
    # (pattern core, subject) pairs still to match, the leftmost on top.
    stack = [(core, t)]
    while stack:
        core, t = stack.pop()
        if type(core) is Var:
            old = binding.get(core.name)
            if old is not None:
                if old is not t:
                    return False
            elif inhabits(sig, t, core.sort):
                binding[core.name] = t
            else:
                return False
        elif core.ground is not None:
            if core.ground is not t:
                return False
        elif core.constructor != t.constructor or len(core.args) != len(t.args):
            return False
        else:
            stack += zip(reversed(core.args), reversed(t.args))
    return True


def _match_ms(sig: MSSignature, table: CastTable, core: Var | _Node, t: GroundTerm,
              binding: Substitution) -> bool:
    # Invariant: each pattern core and its subject have the same sort, so
    # a variable-free core matches exactly the subjects core-equal to it.
    stack = [(core, t)]
    while stack:
        core, t = stack.pop()
        t = _core(table, t)
        if type(core) is Var:
            bottom = least_sort(sig, t)
            want = core.sort
            if bottom == want:
                value = t
            elif table.leq(bottom, want):
                value = table.wrap_canonical(t, bottom, want)
            else:
                return False
            old = binding.get(core.name)
            if old is not None:
                if old is not value:
                    return False
            else:
                binding[core.name] = value
            continue
        if core.ground is not None:
            if table.canonical(t) is not core.ground:
                return False
            continue
        if core.constructor != t.constructor or len(core.args) != len(t.args):
            return False
        # Distinct overloads differ in some argument sort; require the same one.
        child_sorts = tuple([least_sort(sig, a) for a in t.args])
        if sig.lookup(t.constructor, child_sorts) is not core.operator:
            return False
        stack += zip(reversed(core.args), reversed(t.args))
    return True


# --- redex search -----------------------------------------------------------

def _core(table: CastTable | None, t: Term) -> Term:
    """``t`` under any casts; ``t`` itself when ``table`` is ``None``."""
    while table is not None and not isinstance(t, Var) and table.is_cast(t.constructor):
        t = t.args[0]
    return t


# Memo entry of a subterm with no result: no position has a hit, or
# every result was dropped.
CLEAN = object()


class RedexIndex:
    """Index over (left side, right side) pairs, with redex memos.

    ``shapes`` holds, in pair order, each left side's head constructor
    and arity, ``None`` when its core is a variable, and the heads its
    arguments require, all read off the compiled core in ``lhs``: for a
    many-sorted algebra, under any casts, since matching works modulo
    core equality.  A pair is a
    candidate at a subterm when its shape is ``None`` or the subterm's
    (core head, arity), and no required argument head differs from the
    subterm's: both matchers would fail on it.  What passes depends only
    on the subterm's (core head, core argument heads), so ``candidates``
    memoises it under that key: a new subterm costs one lookup, and the
    shapes are scanned only on a miss.  When no left side's core is a
    variable, as in any rule set, ``heads`` holds the left sides' core
    heads, read once off ``shapes``: a subterm whose core head is not
    among them has no candidate, and ``_root_candidates`` answers it
    before building its key.  An index with a variable-core side, such as an
    equation index over ``+(true, A) = A``, has ``heads`` ``None``.
    The index only filters:
    candidates are still tried in pair order through ``match_pattern``,
    on left sides compiled once (``lhs``).

    ``memo`` gives each proper subterm of a searched term one entry:
    ``CLEAN``, the one empty value, when it has no result, else its
    list (``_compose``).  The searched term itself gets none, so the memo
    grows with the subterms that terms share, not with the terms
    searched.  Results depend on the subterm alone, never on its context.
    Each result node passes ``finish`` once: many-sorted, the core normal
    form, which a node over recorded fixpoints reaches in one lookup;
    order-sorted, a well-formedness check through the least sort, one
    lookup per (constructor, child least sorts).  A many-sorted index
    over a ``single_chain`` cast table has no ``finish``: each result is
    its own normal form, and takes no pass.  A result's position is
    a parent link, ``()`` at the root or ``(argument index, link)``
    below it: composing a result costs one pair, and only a reader that
    needs the position makes it a tuple (``resolve_position``).
    """

    __slots__ = (
        "sig", "pairs", "lhs", "shapes", "memo",
        # ``None`` marks an order-sorted algebra.
        "table",
        # Whether every equation direction is usable (closure only).
        "complete",
        # (core head, core argument heads) -> pair indices that pass ``_filter``.
        "candidates",
        # The left sides' core heads; ``None`` when some left side's core is
        # a variable.
        "heads",
        # Applied to each result; its ``None`` drops an ill-formed
        # order-sorted one.  ``None`` keeps every result as it is.
        "finish",
    )

    def __init__(self, alg, pairs, complete: bool = True):
        self.sig = alg.signature
        self.table = cast_table(self.sig) if isinstance(alg, MSAlgebra) else None
        self.pairs = tuple(pairs)
        self.complete = complete
        self.lhs = tuple(_compile(self.sig, self.table, lhs) for lhs, _ in self.pairs)
        shapes = []
        for i, (_, core) in enumerate(self.lhs):
            if isinstance(core, Var):
                shapes.append((i, None, ()))
                continue
            arg_heads = tuple(
                (j, c.constructor) for j, c in enumerate(core.args) if not isinstance(c, Var)
            )
            shapes.append((i, (core.constructor, len(core.args)), arg_heads))
        self.shapes = tuple(shapes)
        self.heads = (None if any(own is None for _, own, _ in shapes)
                      else frozenset(own[0] for _, own, _ in shapes))
        self.candidates: dict[tuple, tuple[int, ...]] = {}
        self.memo: dict[GroundTerm, object] = {}
        if self.table is None:
            self.finish = partial(_checked_os, self.sig)
        else:
            self.finish = None if self.table.single_chain else self.table.canonical

    def _filter(self, key: tuple) -> tuple[int, ...]:
        head, arg_heads = key
        shape = (head, len(arg_heads))
        return tuple(
            i for i, own, wanted in self.shapes
            if (own is None or own == shape) and all(arg_heads[j] == h for j, h in wanted)
        )

    def _root_candidates(self, constructor: str, args: tuple) -> tuple[int, ...]:
        """The pair indices that pass the filter at the root of
        ``constructor(*args)``, which need not be built.  Heads are read
        under their casts inline, as this runs once per new node."""
        table, heads = self.table, self.heads
        if table is not None:
            casts = table.pair_of
            while constructor in casts:
                constructor, args = args[0].constructor, args[0].args
        if heads is not None and constructor not in heads:
            return ()
        if table is None:
            key = (constructor, tuple([a.constructor for a in args]))
        else:
            arg_heads = []
            for a in args:
                while a.constructor in casts:
                    a = a.args[0]
                arg_heads.append(a.constructor)
            key = (constructor, tuple(arg_heads))
        candidates = self.candidates.get(key)
        if candidates is None:
            candidates = self.candidates[key] = self._filter(key)
        return candidates

    def _root_hits(self, t: GroundTerm) -> tuple:
        """``(pair index, sorted substitution, right-side instance)`` of each
        match at the root of ``t``, in pair order."""
        candidates = self._root_candidates(t.constructor, t.args)
        if not candidates:
            return ()
        sig = self.sig
        found = []
        for i in candidates:
            m = match_pattern(sig, self.lhs[i], t)
            if m is not None:
                rhs = self.pairs[i][1]
                found.append((i, tuple(sorted(m.items())), apply_substitution(sig, rhs, m)))
        return tuple(found)

    def _compose(self, node: GroundTerm, hits: tuple, below: list):
        """The memo entry of ``node``, from its root ``hits`` and its children's
        memo entries ``below``: ``CLEAN`` when it has no result, else its
        result list.

        With no hit and every child ``CLEAN``, ``node`` is not read.  Each
        composed result is one new node over arguments whose normal forms
        and sorts are cached, so canonicalizing it or checking it (an
        ill-formed one is dropped, and all above it) reads that node alone.
        """
        if not hits and below.count(CLEAN) == len(below):
            return CLEAN
        finish = self.finish
        ctor, args = node.constructor, node.args
        out = []
        for i, subst, result in hits:
            if finish is None or (result := finish(result)) is not None:
                out.append((i, (), subst, result))
        for k, entry in enumerate(below):
            if entry is CLEAN:
                continue
            head, tail = args[:k], args[k + 1:]
            for i, link, subst, r in entry:
                result = _intern(GroundTerm, ctor, head + (r,) + tail)
                if finish is None or (result := finish(result)) is not None:
                    out.append((i, (k, link), subst, result))
        return out or CLEAN


def resolve_position(link) -> Position:
    """The position a result's parent link (see ``RedexIndex``) stands for."""
    pos = []
    while link:
        k, link = link
        pos.append(k)
    return tuple(pos)


def _checked_os(sig: OSSignature, t: GroundTerm) -> GroundTerm | None:
    """``t`` when it is well-formed, else ``None``; checked through least sorts.

    No operator admitting the children's least sorts means no operator
    admits any of their sorts, so ``IllFormedTerm`` is exact; an ambiguous
    least sort says nothing, so the sort sets decide.  ``least_sort``
    caches the sort, and a node over children with cached least sorts,
    as every composed result is, takes one ``_least_at`` lookup.
    """
    try:
        least_sort(sig, t)
    except IllFormedTerm:
        return None
    except AmbiguousSort:
        return t if well_formed_ground(sig, t) else None
    return t


def _rule_index(alg) -> RedexIndex:
    index = alg._rule_index
    if index is None:
        index = alg._rule_index = RedexIndex(alg, ((r.lhs, r.rhs) for r in alg.rules))
    return index


def _equation_index(alg) -> RedexIndex:
    """The index over the usable equation directions, one per renaming class.

    An equation whose two sides have one core under casts (``_core``),
    as every core equation has, is left out: both sides are cast chains
    over that core up to one sort, so each instance has the normal form
    of the subterm it matches, and a match only rebuilds the subject.
    This is read off the sides, not off ``core_equations``.
    A direction is usable only when it binds every target-side variable.
    When some direction is unusable, the closure is one-sided there and
    no fixpoint can certify completeness.  Of the usable directions that
    are equal up to renaming their variables (``_direction_key``), such
    as the two of a commutativity equation, only the first is kept: at
    every position it yields the same result before the others would, so
    they only ever found members already found, in the same order.
    """
    index = alg._equation_index
    if index is None:
        dirs = {}
        complete = True
        sig = alg.signature
        table = cast_table(sig) if isinstance(alg, MSAlgebra) else None
        for eq in alg.equations:
            if _core(table, eq.lhs) is _core(table, eq.rhs):
                continue
            for src, dst in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                if side_facts(sig, dst)[0].keys() <= side_facts(sig, src)[0].keys():
                    dirs.setdefault(_direction_key(src, dst), (src, dst))
                else:
                    complete = False
        index = alg._equation_index = RedexIndex(alg, dirs.values(), complete)
    return index


def _direction_key(src: Pattern, dst: Pattern) -> tuple:
    """``(src, dst)`` as a preorder token list with variables renamed.

    An application is ``(constructor, arity)``; a variable is ``(None,
    number, sort)``, numbered in order of first occurrence across both
    sides.  Two directions get the same key exactly when renaming the
    variables of one, sorts kept, gives the other.
    """
    numbers: dict[str, int] = {}
    key = []
    stack = [dst, src]
    while stack:
        p = stack.pop()
        if type(p) is Var:
            key.append((None, numbers.setdefault(p.name, len(numbers)), p.sort))
        else:
            key.append((p.constructor, len(p.args)))
            stack += reversed(p.args)
    return tuple(key)


def _entry(index: RedexIndex, u: GroundTerm):
    """The memo entry of ``u``, a proper subterm of a searched term.

    ``RedexIndex._compose``'s entry, made in one bottom-up pass over the
    subterms of ``u`` that have no entry yet and stored with theirs.
    Callers only read it.
    """
    memo = index.memo
    entry = memo.get(u)
    if entry is not None:
        return entry
    stack = [u]
    while stack:
        node = stack[-1]
        pending = [a for a in node.args if a not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        if node not in memo:
            memo[node] = index._compose(
                node, index._root_hits(node), [memo[a] for a in node.args])
    return memo[u]


def _redexes(index: RedexIndex, u: GroundTerm) -> list:
    """``(pair index, position link, substitution, result)`` for every redex of ``u``.

    Positions come in preorder, then pairs in index order; each is a
    parent link (see ``RedexIndex``).  The list is
    composed bottom-up: a subterm's root hits come first, then, child by
    child, each result of the child put back under the subterm's head.
    Many-sorted results are core-canonicalized; order-sorted results that
    are not well-formed are dropped.  The entries of ``u``'s proper
    subterms are memoised (``_entry``), ``u``'s own is not: a ``u`` met
    before as a proper subterm is answered from the memo, any other is
    composed from its children's entries on every call.  An entry of
    ``CLEAN`` reads ``[]``.  Callers only read the list.
    """
    entry = index.memo.get(u) or index._compose(
        u, index._root_hits(u), [_entry(index, a) for a in u.args])
    return [] if entry is CLEAN else entry


def rule_redexes(alg, u: GroundTerm) -> list:
    """``(rule index, position link, substitution, result)`` of every rule redex of ``u``.

    The steps of ``direct_steps``, in the same order, without building a
    ``RewriteStep`` for each; ``resolve_position`` turns a link into the
    step's position.  Callers only read the list.
    """
    return _redexes(_rule_index(alg), u)


# --- equational closure -----------------------------------------------------

def e_class_bounded(alg, t: GroundTerm, depth: int = 5,
                    max_size: int = 10_000) -> EClassApprox:
    """Close ``t`` under equations applied both ways at all positions.

    Breadth-first up to ``depth`` application layers or ``max_size``
    members.  ``exhausted`` reports that the members provably form the
    whole class: a fixpoint was reached inside the budget and no equation
    direction was unusable (a direction that fails to bind some variable
    cannot be searched, so no fixpoint certifies completeness then).
    Many-sorted members are kept in core canonical form.
    """
    if isinstance(alg, MSAlgebra):
        t = core_canonicalize(alg.signature, t)
    if not alg.equations:
        return EClassApprox((t,), 0, True)
    index = _equation_index(alg)
    members: dict[GroundTerm, None] = {t: None}
    frontier = [t]
    for depth_used in range(depth):
        new: list[GroundTerm] = []
        for u in frontier:
            for _, _, _, v in _redexes(index, u):
                if v not in members:
                    members[v] = None
                    new.append(v)
                    if len(members) >= max_size:
                        return EClassApprox(tuple(members), depth_used, False)
        if not new:
            return EClassApprox(tuple(members), depth_used, index.complete)
        frontier = new
    return EClassApprox(tuple(members), depth, False)


# --- rewriting --------------------------------------------------------------

def direct_steps(alg, u: GroundTerm) -> list[RewriteStep]:
    """Rule applications on the redexes of ``u`` itself."""
    rules = alg.rules
    return [RewriteStep(i, rules[i], resolve_position(link), subst, u, result)
            for i, link, subst, result in rule_redexes(alg, u)]


@contextmanager
def _collector_paused():
    """Keep CPython's cyclic garbage collector off inside the block.

    A bisimulation sweep or a class search allocates an interned term,
    cache entries and result lists for every node it meets and keeps
    most of them, so its allocations keep triggering collections, and
    each older-generation one walks the whole intern pool and the
    per-term caches again.  Yet neither makes reference cycles for a
    collection to free.  The collector's previous state comes back on
    the way out, also on error; a block nested in another leaves it off.

    On the way out, ``gc.freeze()`` then ``gc.unfreeze()`` moves every
    live object into the oldest generation at once and resets the young
    count, so the first young collection after the block does not walk
    what it built; a full collection still sees it, and frees any cycle
    in it.  Objects a caller froze stay frozen: with any frozen on entry,
    the collector is only switched back on.
    """
    was_enabled = gc.isenabled()
    promote = was_enabled and gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def _freeze_at_exit():
    """Hide every live object from the collections run at interpreter exit.

    The intern pools and the per-algebra caches live until the process
    ends, and the final collections would walk all of them to free
    nothing.  Frozen, they are not walked; a cycle still alive then is
    not collected either, and its finalisers do not run, which CPython
    does not promise at exit anyway.
    """
    gc.freeze()


atexit.register(_freeze_at_exit)


def rewrite_step(alg, t: GroundTerm, config: RewriteConfig = RewriteConfig(),
                 require_exhausted: bool = False) -> tuple[RewriteStep, ...]:
    """All steps obtainable from any member of the bounded class of ``t``.

    Steps are deduplicated by rule and result.  With ``require_exhausted``
    an incomplete class search raises ``BudgetExceeded`` instead of
    silently enumerating fewer steps.  Runs with the cyclic collector
    paused (``_collector_paused``).
    """
    with _collector_paused():
        cls = e_class_bounded(alg, t, config.eclass_depth, config.eclass_max)
        if require_exhausted and not cls.exhausted:
            raise BudgetExceeded(
                f"class of {print_term(t)} still growing after depth "
                f"{cls.depth_used} with {len(cls.members)} members"
            )
        steps: list[RewriteStep] = []
        seen: set[tuple[int, GroundTerm]] = set()
        for u in cls.members:
            for step in direct_steps(alg, u):
                key = (step.rule_index, step.result)
                if key not in seen:
                    seen.add(key)
                    steps.append(step)
        return tuple(steps)


def rewrite_trace(alg, t: GroundTerm, strategy: str = "leftmost-innermost",
                  max_steps: int = 100,
                  config: RewriteConfig = RewriteConfig()) -> list[RewriteStep]:
    """Iterate rewriting under a strategy, recording each step.

    ``leftmost-innermost`` and ``leftmost-outermost`` follow one branch
    deterministically through the subject term's own redexes (position
    order is only meaningful there), never revisiting a term.
    ``exhaustive-breadth`` explores class-level steps for every reachable
    term once, breadth-first, deduplicated.  Stops at ``max_steps`` or
    when no step leads anywhere new.  The strategies that follow one
    branch pick the least step by position, then rule index, then
    result: innermost orders positions in postorder, outermost in
    preorder, both by a key on the position alone.
    """
    if isinstance(alg, MSAlgebra):
        t = core_canonicalize(alg.signature, t)
    trace: list[RewriteStep] = []
    if strategy == "exhaustive-breadth":
        seen = {t}
        queue = [t]
        for u in queue:
            if len(trace) >= max_steps:
                break
            for step in rewrite_step(alg, u, config):
                if len(trace) >= max_steps:
                    break
                trace.append(step)
                if step.result not in seen:
                    seen.add(step.result)
                    queue.append(step.result)
        return trace
    if strategy not in ("leftmost-innermost", "leftmost-outermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    # Positions compare in preorder; each one followed by ``sys.maxsize``,
    # after all of its descendants, they compare in postorder.
    last = (sys.maxsize,) if strategy == "leftmost-innermost" else ()
    current = t
    visited = {t}
    for _ in range(max_steps):
        steps = [
            s for s in direct_steps(alg, current)
            if s.result not in visited
        ]
        if not steps:
            break
        step = min(steps, key=lambda s: (s.position + last, s.rule_index, print_term(s.result)))
        trace.append(step)
        current = step.result
        visited.add(current)
    return trace


def format_position(pos: Position) -> str:
    return ".".join(str(i) for i in pos) if pos else "e"


def format_trace(steps) -> str:
    """One line per step: position, rule index, before and after terms."""
    return "\n".join(
        f"{format_position(s.position)}  {s.rule_index}  "
        f"{print_term(s.bridging_term)} --> {print_term(s.result)}"
        for s in steps
    )
