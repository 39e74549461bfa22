"""Matching, positional rewriting and bounded equational closure.

Rules and equations apply at any position of a term.  Because equality
modulo the equation set is undecidable in general, the engine closes a
term under bidirectional equation application only up to a depth and size
budget and reports whether a fixpoint was reached.  Core equality (the
congruence identifying different cast chains between the same two sorts)
is instead decided exactly: every maximal cast chain is rewritten to the
canonical chain for its endpoints, and the many-sorted engine matches,
deduplicates and compares terms through that normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, NoPath
from .poset import build_poset
from .terms import (
    GroundTerm,
    MSAlgebra,
    MSSignature,
    OSSignature,
    Pattern,
    PNode,
    Rule,
    Sort,
    Substitution,
    Term,
    Var,
    apply_substitution,
    least_sort,
    ms_sort,
    print_term,
    variables_of,
    well_formed_ground,
)
from .translate import TranslationMap, compute_canonical_paths

Position = tuple[int, ...]


@dataclass(frozen=True)
class RewriteConfig:
    """Budgets for the bounded equational closure."""

    eclass_depth: int = 5
    eclass_max: int = 10_000


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

    seed: GroundTerm
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


# --- cast bookkeeping -------------------------------------------------------

class CastTable:
    """Cast operators of a translated signature, plus canonical chains."""

    def __init__(self, pairs: dict[tuple[Sort, Sort], str], sorts,
                 tie_break: str = "lex", canonical_paths=None):
        self.name_of = dict(pairs)
        self.sub_of = {name: lo for (lo, hi), name in pairs.items()}
        self.sup_of = {name: hi for (lo, hi), name in pairs.items()}
        self.poset = build_poset(sorts, pairs.keys())
        self.canonical_path_of = (
            dict(canonical_paths)
            if canonical_paths is not None
            else compute_canonical_paths(self.poset, tie_break)
        )
        self._canon_cache: dict[GroundTerm, GroundTerm] = {}

    def is_cast(self, name: str) -> bool:
        return name in self.sub_of

    def leq(self, a: Sort, b: Sort) -> bool:
        return self.poset.leq(a, b)

    def canonical_path(self, lo: Sort, hi: Sort) -> tuple[Sort, ...]:
        try:
            return self.canonical_path_of[(lo, hi)]
        except KeyError:
            raise NoPath(f"no cast chain from {lo!r} to {hi!r}") from None

    def wrap_canonical(self, t: Term, lo: Sort, hi: Sort) -> Term:
        if lo == hi:
            return t
        cls = GroundTerm if isinstance(t, GroundTerm) else PNode
        path = self.canonical_path(lo, hi)
        for a, b in zip(path, path[1:]):
            t = cls(self.name_of[(a, b)], (t,))
        return t


def cast_table(source) -> CastTable:
    """The cast table of a translation map, signature or algebra."""
    if isinstance(source, CastTable):
        return source
    if isinstance(source, MSAlgebra):
        source = source.signature
    if not isinstance(source, (TranslationMap, MSSignature)):
        raise TypeError(f"cannot derive a cast table from {type(source).__name__}")
    table = source._cast_index
    if table is not None:
        return table
    if isinstance(source, TranslationMap):
        table = CastTable(
            pairs={pair: op.constructor for pair, op in source.casts.items()},
            sorts=source.source.sorts,
            tie_break=source.tie_break,
            canonical_paths=source.canonical_path_of,
        )
    else:
        table = CastTable(
            pairs={(op.arg_sorts[0], op.target_sort): op.constructor
                   for op in source.non_core},
            sorts=source.sorts,
        )
    source._cast_index = table
    return table


def core_canonicalize(source, t: Term) -> Term:
    """Rewrite every maximal cast chain to its canonical chain.

    The output is the core-equality normal form: two terms are core-equal
    exactly when their canonical forms are identical.  Idempotent; works
    on patterns as well as ground terms.
    """
    return _canon(cast_table(source), t)


def _canon(table: CastTable, t: Term) -> Term:
    if isinstance(t, Var):
        return t
    ground = isinstance(t, GroundTerm)
    if ground:
        hit = table._canon_cache.get(t)
        if hit is not None:
            return hit
    if not table.is_cast(t.constructor):
        cls = GroundTerm if ground else PNode
        out = cls(t.constructor, tuple(_canon(table, a) for a in t.args))
    else:
        top = table.sup_of[t.constructor]
        bottom = table.sub_of[t.constructor]
        u = t.args[0]
        while not isinstance(u, Var) and table.is_cast(u.constructor):
            bottom = table.sub_of[u.constructor]
            u = u.args[0]
        out = table.wrap_canonical(_canon(table, u), bottom, top)
    if ground:
        table._canon_cache[t] = out
    return out


# --- matching ---------------------------------------------------------------

def match_pattern(sig, pattern: Pattern, t: GroundTerm) -> Substitution | None:
    """Most direct match of ``pattern`` against ``t``, or ``None``.

    Order-sorted matching lets a variable of sort ``s`` capture any term
    whose least sort lies at or below ``s``.  Many-sorted matching
    requires exact sorts but works modulo core equality, so the subject
    should be in canonical form (bindings come out canonical).
    """
    binding: Substitution = {}
    if isinstance(sig, OSSignature):
        return binding if _match_os(sig, pattern, t, binding) else None
    if ms_sort(sig, pattern) != ms_sort(sig, t):
        return None
    table = cast_table(sig)
    return binding if _match_ms(sig, table, pattern, t, binding) else None


def _match_os(sig: OSSignature, p: Pattern, t: GroundTerm, binding: Substitution) -> bool:
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


def _match_ms(sig: MSSignature, table: CastTable, p: Pattern, t: GroundTerm,
              binding: Substitution) -> bool:
    # Invariant: pattern and subject have the same sort here.
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
    # Distinct overloads differ in some argument sort; require the same one.
    p_op = sig.lookup(pcore.constructor, tuple(ms_sort(sig, a) for a in pcore.args))
    t_op = sig.lookup(tcore.constructor, tuple(ms_sort(sig, a) for a in tcore.args))
    if p_op != t_op:
        return False
    return all(
        _match_ms(sig, table, pa, ta, binding)
        for pa, ta in zip(pcore.args, tcore.args)
    )


# --- redex search -----------------------------------------------------------

def _core_head(table: CastTable | None, t: Term) -> str | None:
    """Constructor under any casts, or ``None`` when the core is a variable."""
    while not isinstance(t, Var) and table is not None and table.is_cast(t.constructor):
        t = t.args[0]
    return None if isinstance(t, Var) else t.constructor


class RedexIndex:
    """Head index over (left side, right side) pairs, with a root-redex memo.

    Pairs are bucketed by the head constructor of their left side; for a
    many-sorted algebra, by the head under any casts, since matching
    works modulo core equality.  This is the first level of a
    discrimination tree.  Left sides whose core is a variable join every
    bucket.  The index only filters: candidates are still tried in pair
    order through ``match_pattern``.

    ``memo`` maps an interned subterm to its root hits, ``(pair index,
    sorted substitution, right-side instance)``.  Hits depend on the
    subterm alone, never on its context.  A subterm whose head has no
    candidate gets no entry.
    """

    def __init__(self, alg, pairs, complete: bool = True):
        self.sig = alg.signature
        # ``None`` marks an order-sorted algebra.
        self.table = cast_table(self.sig) if isinstance(alg, MSAlgebra) else None
        self.pairs = tuple(pairs)
        # Whether every equation direction is usable (closure only).
        self.complete = complete
        buckets: dict[str, list[int]] = {}
        anywhere: list[int] = []
        for i, (lhs, _) in enumerate(self.pairs):
            head = _core_head(self.table, lhs)
            if head is None:
                anywhere.append(i)
            else:
                buckets.setdefault(head, []).append(i)
        self.anywhere = tuple(anywhere)
        self.by_head = {h: tuple(sorted(ix + anywhere)) for h, ix in buckets.items()}
        self.memo: dict[GroundTerm, tuple] = {}

    def root_hits(self, t: GroundTerm) -> tuple:
        """Match ``t`` at its root and memoise the hits; call on a memo miss."""
        candidates = self.by_head.get(_core_head(self.table, t), self.anywhere)
        if not candidates:
            return ()
        sig = self.sig
        found = []
        for i in candidates:
            lhs, rhs = self.pairs[i]
            m = match_pattern(sig, lhs, t)
            if m is not None:
                found.append((i, tuple(sorted(m.items())), apply_substitution(sig, rhs, m)))
        hits = self.memo[t] = tuple(found)
        return hits


def _rule_index(alg) -> RedexIndex:
    index = alg._rule_index
    if index is None:
        index = alg._rule_index = RedexIndex(alg, ((r.lhs, r.rhs) for r in alg.rules))
    return index


def _equation_index(alg) -> RedexIndex:
    # A direction is usable only when it binds every target-side variable.
    # When some direction is unusable, the closure is one-sided there and
    # no fixpoint can certify completeness.
    index = alg._equation_index
    if index is None:
        dirs = []
        complete = True
        for eq in alg.equations:
            for src, dst in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                if set(variables_of(dst)) <= set(variables_of(src)):
                    dirs.append((src, dst))
                else:
                    complete = False
        index = alg._equation_index = RedexIndex(alg, dirs, complete)
    return index


def _redexes(index: RedexIndex, u: GroundTerm, only: int | None = None):
    """Yield ``(pair index, position, substitution, result)`` for ``u``.

    Positions come in preorder, then pairs in index order.  Many-sorted
    results are core-canonicalized; order-sorted results that are not
    well-formed are dropped.  ``only`` restricts the search to one pair.
    """
    sig = index.sig
    ms = index.table is not None
    memo = index.memo
    for pos, sub in _preorder(u):
        hits = memo.get(sub)
        if hits is None:
            hits = index.root_hits(sub)
        for i, subst, instance in hits:
            if only is not None and i != only:
                continue
            result = replace_at(u, pos, instance)
            if ms:
                result = core_canonicalize(sig, result)
            elif not well_formed_ground(sig, result):
                continue
            yield i, pos, subst, result


def rule_results(alg, u: GroundTerm, rule_index: int):
    """Results of applying one rule anywhere on ``u``, in position order."""
    for _, _, _, result in _redexes(_rule_index(alg), u, only=rule_index):
        yield result


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
        return EClassApprox(seed=t, members=(t,), depth_used=0, exhausted=True)
    index = _equation_index(alg)
    members: dict[GroundTerm, None] = {t: None}
    frontier = [t]
    depth_used = 0
    exhausted = False
    for _ in range(depth):
        new: list[GroundTerm] = []
        over = False
        for u in frontier:
            for _, _, _, v in _redexes(index, u):
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
            exhausted = index.complete
            break
        depth_used += 1
        frontier = new
    return EClassApprox(
        seed=t,
        members=tuple(members),
        depth_used=depth_used,
        exhausted=exhausted,
    )


# --- rewriting --------------------------------------------------------------

def direct_steps(alg, u: GroundTerm) -> list[RewriteStep]:
    """Rule applications on the redexes of ``u`` itself."""
    rules = alg.rules
    return [
        RewriteStep(
            rule_index=i,
            rule=rules[i],
            position=pos,
            substitution=subst,
            bridging_term=u,
            result=result,
        )
        for i, pos, subst, result in _redexes(_rule_index(alg), u)
    ]


def rewrite_step(alg, t: GroundTerm, config: RewriteConfig = RewriteConfig(),
                 require_exhausted: bool = False) -> tuple[RewriteStep, ...]:
    """All steps obtainable from any member of the bounded class of ``t``.

    Steps are deduplicated by rule and result.  With ``require_exhausted``
    an incomplete class search raises ``BudgetExceeded`` instead of
    silently enumerating fewer steps.
    """
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


def _postorder_index(t: GroundTerm) -> dict[Position, int]:
    order: dict[Position, int] = {}
    stack: list[tuple[Position, GroundTerm, bool]] = [((), t, False)]
    while stack:
        pos, node, children_done = stack.pop()
        if children_done:
            order[pos] = len(order)
            continue
        stack.append((pos, node, True))
        for i in range(len(node.args) - 1, -1, -1):
            stack.append((pos + (i,), node.args[i], False))
    return order


def rewrite_trace(alg, t: GroundTerm, strategy: str = "leftmost-innermost",
                  max_steps: int = 100,
                  config: RewriteConfig = RewriteConfig()) -> list[RewriteStep]:
    """Iterate rewriting under a strategy, recording each step.

    ``leftmost-innermost`` and ``leftmost-outermost`` follow one branch
    deterministically through the subject term's own redexes (position
    order is only meaningful there), never revisiting a term.
    ``exhaustive-breadth`` explores class-level steps for every reachable
    term once, breadth-first, deduplicated.  Stops at ``max_steps`` or
    when no step leads anywhere new.
    """
    if isinstance(alg, MSAlgebra):
        t = core_canonicalize(alg.signature, t)
    trace: list[RewriteStep] = []
    if strategy == "exhaustive-breadth":
        seen = {t}
        queue = [t]
        while queue and len(trace) < max_steps:
            u = queue.pop(0)
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
    current = t
    visited = {t}
    for _ in range(max_steps):
        steps = [
            s for s in direct_steps(alg, current)
            if s.result not in visited
        ]
        if not steps:
            break
        if strategy == "leftmost-innermost":
            order = _postorder_index(current)
        else:
            order = {pos: i for i, pos in enumerate(positions(current))}
        step = min(
            steps,
            key=lambda s: (
                order[s.position],
                s.rule_index,
                print_term(s.result),
            ),
        )
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
