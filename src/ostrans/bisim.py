"""Ground-term enumeration and empirical two-way simulation checking.

For every enumerated order-sorted term and every rewrite step it admits,
the forward check looks for a many-sorted step from the translated term
whose result is equivalent (modulo the translated equations, compared in
core canonical form) to the translated result.  The backward check walks
the other way: many-sorted terms in the image of the translation are
inverted by stripping casts, and each of their steps must be mirrored by
a source step.  Forward, a subject whose steps all lie below its root is
settled from its children's rule memo entries, once per (child, sort its
translation is lifted to) and not once per parent: the step is mirrored
when the lifted child's many-sorted entry lists the same rule with the
translation of the child's result (``_settler``).  Each step of any
other subject, such as one with a root step, is replayed by one
routine, ``_mirror``, which scans the counterpart's redex list first.
Verdicts are only recorded as failures when the bounded class searches
involved reached a fixpoint; otherwise the step counts as skipped.

Enumeration builds each term of height ``h`` once, from argument tuples
that hold a term of height ``h - 1``, and sorts it with one lookup per
(constructor, child least sorts).  A tuple that an earlier overload of
the same constructor admits is skipped, so no term needs a dedup table,
and the terms of the last height are yielded but not kept.  The forward
sweep reads them unbuilt, as a constructor and its arguments, sorted by
the cached lookup (``_ground_applications``); it interns one only when
a rule may match at its root or the settlement cannot decide it.  At
depth 3 on ``imp.osa`` the two-way check interns 2,753 nodes, where
interning every subject took 28,498.  A sweep pauses CPython's cyclic
garbage collector (``rewrite._collector_paused``): what it allocates
lives to the end of the run and forms no cycles, so a collection would
free nothing.  What the sweep keeps leaves it in the collector's oldest
generation, where only a full collection walks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .errors import AlgebraError
from .rewrite import (
    CLEAN,
    EClassApprox,
    RewriteConfig,
    RewriteStep,
    _collector_paused,
    _entry,
    _rule_index,
    core_canonicalize,
    e_class_bounded,
    resolve_position,
    rule_redexes,
)
from .terms import (
    GroundTerm,
    MSAlgebra,
    OSAlgebra,
    Rule,
    Signature,
    Sort,
    _intern,
    _least_at,
    least_sort,
)
from .translate import TranslationMap, _plan, strip_casts, translate_algebra, translate_term


@dataclass(frozen=True)
class BisimConfig(RewriteConfig):
    """Budgets for one bisimulation run: ``RewriteConfig``'s class budgets,
    a term depth of at least 0 and a term budget of at least 1.  Other
    values raise ``ValueError``.
    """

    term_depth: int = 3
    max_terms: int = 100_000

    def __post_init__(self):
        super().__post_init__()
        if self.term_depth < 0 or self.max_terms < 1:
            raise ValueError(f"term_depth must be at least 0 and max_terms at least 1: {self}")


@dataclass
class Counterexample:
    """A step in one algebra that the other could not mirror."""

    direction: str
    source_term: GroundTerm
    rule_index: int
    rule: Rule
    witness: RewriteStep
    missing: str


@dataclass
class BisimReport:
    """Merged outcome of the forward and backward checks."""

    terms_checked: int = 0
    steps_checked: int = 0
    forward_failures: list[Counterexample] = field(default_factory=list)
    backward_failures: list[Counterexample] = field(default_factory=list)
    skipped_unexhausted: int = 0
    not_in_image: int = 0
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.forward_failures and not self.backward_failures

    @property
    def verdict(self) -> str:
        """``fail`` on any failure, else ``inconclusive`` when the check left
        something undecided (a step skipped because a class search was not
        exhausted, or a truncated enumeration), else ``pass``."""
        if not self.passed:
            return "fail"
        if self.skipped_unexhausted or self.truncated:
            return "inconclusive"
        return "pass"

    def merge(self, other: "BisimReport") -> "BisimReport":
        return BisimReport(
            terms_checked=self.terms_checked + other.terms_checked,
            steps_checked=self.steps_checked + other.steps_checked,
            forward_failures=self.forward_failures + other.forward_failures,
            backward_failures=self.backward_failures + other.backward_failures,
            skipped_unexhausted=self.skipped_unexhausted + other.skipped_unexhausted,
            not_in_image=self.not_in_image + other.not_in_image,
            truncated=self.truncated or other.truncated,
        )


def enumerate_ground_terms(sig: Signature, sort: Sort | None = None, depth: int = 0):
    """Yield all well-formed ground terms of height up to ``depth``.

    Constants have height zero.  A term is admitted wherever its least
    sort fits, that is at its one sort under a many-sorted signature;
    with ``sort`` given, only terms whose least sort lies at or below
    ``sort`` are yielded.
    The order is deterministic: by height, then by operator declaration,
    then by the product order of the argument pools.  Each term comes
    interned, its least sort cached (``_ground_applications``).
    """
    for t, constructor, args, ts in _ground_applications(sig, sort, depth):
        yield t or _node(sig, constructor, args, ts)


def _node(sig: Signature, constructor: str, args: tuple, sort: Sort) -> GroundTerm:
    """The interned ``constructor(*args)``, its least sort ``sort`` cached."""
    t = _intern(GroundTerm, constructor, args)
    sig._least_cache[t] = sort
    return t


def _ground_applications(sig: Signature, sort: Sort | None, depth: int):
    """``(node, constructor, args, least sort)`` for each term
    ``enumerate_ground_terms`` yields, in its order.

    Every term below the last height is interned and sorted, as a later
    height is built over it.  A term of the last height is left unbuilt,
    its node ``None``, when the least-sort cache already holds its
    (constructor, child least sorts); otherwise it is interned to be
    sorted, and comes with its node.
    """
    poset = sig.poset
    # The pools a term of each sort joins, and whether it is yielded.
    joins = {s: poset.supersorts(s) for s in sig.sorts}
    wanted = {s: sort is None or poset.leq(s, sort) for s in sig.sorts}
    # For each operator, the argument sorts of the earlier overloads of
    # its constructor and arity whose products can meet its own (at each
    # argument some sort lies below both).  A tuple in one of those
    # products was built by that overload already.  Under a many-sorted
    # signature no two overloads meet: their argument sorts differ.
    earlier: list[list] = []
    seen: dict[tuple, list] = {}
    for op in sig.operators:
        before = seen.setdefault((op.constructor, op.arity), [])
        earlier.append([
            sorts for sorts in before
            if all(any({a, b} <= up for up in joins.values())
                   for a, b in zip(op.arg_sorts, sorts))
        ])
        before.append(op.arg_sorts)
    pool: dict[Sort, list[GroundTerm]] = {s: [] for s in sig.sorts}
    # Every term is sorted here, children first, so a term's children
    # have cached least sorts and it takes one ``_least_at`` lookup.
    least, least_at = sig._least_cache, sig._least_at_cache

    last = max(depth, 0)
    # Terms of the height being built, below the last: a tuple holding
    # one has the next height.  A dict holds them in less memory than a
    # set.  Nothing is kept of the last height.
    layer: dict[GroundTerm, None] = {}
    # Constants come out whatever the depth.
    for h in range(last + 1):
        snapshot = {s: tuple(ts) for s, ts in pool.items()}
        members = {s: frozenset(ts) for s, ts in snapshot.items()}
        # Above the constants, a tuple over the snapshot has height ``h``
        # when it holds a term of height ``h - 1``.
        previous, layer = layer.keys(), {}
        keep = h < last
        for op, overloads in zip(sig.operators, earlier):
            if (op.arity == 0) != (h == 0):
                continue
            candidates = [snapshot[s] for s in op.arg_sorts]
            if not all(candidates):
                continue
            constructor = op.constructor
            others = [[members[s] for s in sorts] for sorts in overloads]
            for combo in product(*candidates):
                if h and previous.isdisjoint(combo):
                    continue
                if others and any(all(c in m for c, m in zip(combo, ms)) for ms in others):
                    continue
                sorts = tuple([least[c] for c in combo])
                ts = None if keep else least_at.get((constructor, sorts))
                if ts is None:
                    t = _intern(GroundTerm, constructor, combo)
                    ts = least[t] = _least_at(sig, t, sorts)
                    if keep:
                        layer[t] = None
                        for s in joins[ts]:
                            pool[s].append(t)
                else:
                    t = None
                if wanted[ts]:
                    yield t, constructor, combo, ts
        if not layer:
            break


# Outcomes of replaying one step in the other algebra.
MIRRORED, FAILED, SKIPPED = "mirrored", "failed", "skipped"


def _identity(t: GroundTerm) -> GroundTerm:
    return t


def _mirror(alg, subject: GroundTerm, counterpart: list, class_of, rule_index: int,
            lift, target: GroundTerm, ms: MSAlgebra) -> str:
    """Replay rule ``rule_index`` of ``alg`` on ``subject``, looking for ``target``.

    A step of a rule that ``alg`` lacks fails at once: only a step of
    the same rule can mirror it.  ``counterpart`` is ``rule_redexes(alg,
    subject)`` and ``class_of(a, u)`` the bounded class of ``u`` in
    ``a``, searched once per sweep.  ``lift`` takes ``alg``'s results
    into core canonical many-sorted form.  The subject's own redexes
    come first, then its bounded class against that of ``target``; a
    miss fails only when both classes were exhausted.
    """
    if rule_index >= len(alg.rules):
        return FAILED
    for i, _, _, result in counterpart:
        if i == rule_index and lift(result) is target:
            return MIRRORED
    cls_subject = class_of(alg, subject)
    cls_target = class_of(ms, target)
    target_members = set(cls_target.members)
    for u in cls_subject.members:
        for i, _, _, result in counterpart if u is subject else rule_redexes(alg, u):
            if i == rule_index and lift(result) in target_members:
                return MIRRORED
    if cls_subject.exhausted and cls_target.exhausted:
        return FAILED
    return SKIPPED


def _sweep(direction: str, terms, os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
           cfg: BisimConfig, obligations, missing: str) -> BisimReport:
    """Check one direction on at most ``cfg.max_terms`` of ``terms``.

    Forward, each step of ``os`` is replayed in ``ms``; backward, each
    step of ``ms`` in ``os``.  Each of ``terms`` is a subject ``t`` as
    ``obligations`` reads it: a node backward, a ``_ground_applications``
    tuple forward.  ``obligations(t)`` gives ``None`` when ``t`` has no
    counterpart, the number of its steps when it settled all of them
    itself, or ``(bridging, redexes, subject, top)``: each entry of
    ``redexes`` is a step on ``bridging`` (see ``rule_redexes``), to be
    replayed as the same rule on its counterpart ``subject``.  Results
    are compared in many-sorted form, each source term translated with
    ``top`` as its expected sort: forward, the targets; backward,
    ``os``'s results.  The subject's redexes are computed once, for all
    of its steps, and each step goes to ``_mirror``, which scans them
    first; each bounded class it needs, a subject's or a target's, is
    searched once per sweep.  A failure alone builds its witness
    ``RewriteStep``, resolving its position link; ``missing`` explains
    it, unless the counterpart lacks the rule or a translation in the
    replay raised an ``AlgebraError``, whose text does.
    """
    forward = direction == "forward"
    alg, other = (ms, os) if forward else (os, ms)
    report = BisimReport()
    failures = report.forward_failures if forward else report.backward_failures

    classes: dict[tuple[int, GroundTerm], EClassApprox] = {}

    def class_of(a, u: GroundTerm):
        key = (id(a), u)
        found = classes.get(key)
        if found is None:
            found = classes[key] = e_class_bounded(a, u, cfg.eclass_depth, cfg.eclass_max)
        return found

    with _collector_paused():
        for t in terms:
            if report.terms_checked >= cfg.max_terms:
                report.truncated = True
                break
            report.terms_checked += 1
            found = obligations(t)
            if found is None:
                report.not_in_image += 1
                continue
            if type(found) is int:
                report.steps_checked += found
                continue
            bridging, redexes, subject, top = found
            if not redexes:
                continue
            report.steps_checked += len(redexes)
            to_ms = partial(translate_term, tm, expected=top)
            lift = _identity if forward else to_ms
            counterpart = rule_redexes(alg, subject)
            for i, link, subst, result in redexes:
                try:
                    target = to_ms(result) if forward else result
                    outcome = _mirror(alg, subject, counterpart, class_of, i, lift, target, ms)
                    error = None
                except AlgebraError as exc:
                    outcome, error = FAILED, str(exc)
                if outcome == SKIPPED:
                    report.skipped_unexhausted += 1
                elif outcome == FAILED:
                    rule = other.rules[i]
                    failures.append(Counterexample(
                        direction=direction,
                        source_term=bridging,
                        rule_index=i,
                        rule=rule,
                        witness=RewriteStep(i, rule, resolve_position(link), subst,
                                            bridging, result),
                        missing=error or (
                            f"no rule {i} to replay the step with" if i >= len(alg.rules)
                            else missing.format(subject=subject, target=target)),
                    ))
    return report


def _settler(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap):
    """``settle(t, constructor, args, sort)``, on what
    ``_ground_applications`` yields for a subject ``t``: the number of
    forward steps of ``t`` when its children's rule memo entries show
    that all of them are mirrored, else ``t``, interned, and its redex
    list (``rule_redexes``), composed from the same entries and root
    hits, or ``0`` when ``_compose`` finds it empty (``CLEAN``).
    Whether a left side can match at the root is read off
    ``constructor`` and its arguments' heads, so a subject that none can
    match is settled without being built or sorted.

    A step below the root of ``t = f(a1..an)``, at child ``k``, turns a
    result ``r`` of ``ak``'s entry into ``f(.., r, ..)``.  Let ``want``
    be the argument sort at ``k`` of ``t``'s translation plan (the plan
    of ``f`` over its children's translated sorts, ``translate._plan``):
    the translation of ``ak`` lifted to ``want`` is child ``k`` of
    ``t``'s translation.  When entry ``j`` of that child's many-sorted
    memo entry has ``r``'s rule and, as its result, ``r``'s translation
    lifted to ``want``, the many-sorted result composed from it is the
    translation of ``f(.., r, ..)``, so the step is mirrored: nodes are
    interned, and a node's translation reads only its constructor and
    its children's translations and sorts.  The plan's target sort must
    be ``t``'s least sort, so that the target needs no lift.  That holds
    as it stands when ``r``'s sort is ``ak``'s.  A result whose sort
    moves to ``s`` also needs ``(f, sorts with s at k)`` to have ``t``'s
    plan.  In a translated algebra a term's translated sort is its least
    sort, so the subject's sort is the one enumerated with it, and the
    others are read off ``sig._least_cache``, which the enumeration
    fills for every child and ``_checked_os`` for every result; a key
    with a plan is well-formed, and ``_compose`` keeps the result.  The
    verdict of ``(ak, want)`` is kept for the sweep, with the sorts its
    results move to.

    A subject with a root step, a mismatch or an error in the
    translation is left undecided; the sweep replays its steps.
    """
    sig = os.signature
    os_index, ms_index = _rule_index(os), _rule_index(ms)
    least = sig._least_cache
    sort_of = tm.target_sort_of
    # (child, wanted sort) -> the sorts its results move to, or False.
    verdicts: dict[tuple[GroundTerm, Sort], tuple | bool] = {}

    def mirrored(a: GroundTerm, sort: Sort, want: Sort, entry: list):
        mirror = _entry(ms_index, translate_term(tm, a, expected=want))
        if mirror is CLEAN or len(mirror) < len(entry):
            return False
        moved = set()
        for (i, _, _, r), (j, _, _, image) in zip(entry, mirror):
            if i != j or translate_term(tm, r, expected=want) is not image:
                return False
            s = least_sort(sig, r)
            if s != sort:
                moved.add(s)
        return tuple(moved)

    def below(constructor: str, args: tuple, sort: Sort, entries: list) -> int | None:
        sorts = tuple([least[a] for a in args])
        plan = _plan(tm, constructor, sorts)
        if plan is None or sort_of[plan[0]] != sort:
            return None
        wants = plan[1]
        steps = 0
        for k, entry in enumerate(entries):
            if entry is CLEAN:
                continue
            a, want = args[k], wants[k]
            moved = verdicts.get((a, want))
            if moved is None:
                moved = verdicts[a, want] = mirrored(a, sorts[k], want, entry)
            if moved is False:
                return None
            for s in moved:
                if _plan(tm, constructor, sorts[:k] + (s,) + sorts[k + 1:]) != plan:
                    return None
            steps += len(entry)
        return steps

    def settle(t: GroundTerm | None, constructor: str, args: tuple, sort: Sort):
        entries = [_entry(os_index, a) for a in args]
        hits = ()
        if os_index._root_candidates(constructor, args):
            t = t or _node(sig, constructor, args, sort)
            hits = os_index._root_hits(t)
        if not hits:
            if entries.count(CLEAN) == len(entries):
                return 0
            try:
                steps = below(constructor, args, sort, entries)
            except AlgebraError:
                steps = None
            if steps is not None:
                return steps
        t = t or _node(sig, constructor, args, sort)
        redexes = os_index._compose(t, hits, entries)
        return 0 if redexes is CLEAN else (t, redexes)

    return settle


def check_forward(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                  cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Every source step must be mirrored by a translated step.

    A subject whose steps all lie below its root, or that has none, is
    settled from its children's rule memo entries (``_settler``) as a
    step count, building neither its results nor its translation, nor
    the subject itself at the last height when no left side can match at
    its root.  Any other subject ``t`` is the obligation ``(t, redexes,
    translation of t, least sort of t)`` (see ``_sweep``): it is
    searched on both sides, and each step is replayed against its
    result translated at ``t``'s least sort.
    """
    settle = _settler(os, ms, tm)

    def obligations(application: tuple):
        found = settle(*application)
        if type(found) is int:
            return found
        t, redexes = found
        # A many-sorted step preserves the subject's sort exactly, so a
        # sort-decreasing root step shows up wrapped in the right-side casts.
        return t, redexes, translate_term(tm, t), application[3]

    return _sweep("forward", _ground_applications(os.signature, None, cfg.term_depth),
                  os, ms, tm, cfg, obligations,
                  "no many-sorted step reaches the translated result {target!r}")


def check_backward(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                   cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Every translated-image step must come from a source step.

    Terms outside the translation's image cannot mirror any source term;
    they are skipped and counted.
    """
    stripped: dict[GroundTerm, GroundTerm] = {}

    def obligations(p: GroundTerm):
        canonical = core_canonicalize(ms.signature, p)
        preimage = strip_casts(tm, canonical, stripped)
        if translate_term(tm, preimage) is not canonical:
            return None
        return (canonical, rule_redexes(ms, canonical), preimage,
                least_sort(ms.signature, canonical))

    return _sweep("backward", enumerate_ground_terms(ms.signature, depth=cfg.term_depth),
                  os, ms, tm, cfg, obligations,
                  "no order-sorted step from {subject!r} maps onto {target!r}")


def run_bisim(os: OSAlgebra, cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Translate (which validates), run both directions, merge the reports."""
    ms, tm = translate_algebra(os)
    return check_forward(os, ms, tm, cfg).merge(check_backward(os, ms, tm, cfg))
