"""Ground-term enumeration and empirical two-way simulation checking.

For every enumerated order-sorted term and every rewrite step it admits,
the forward check looks for a many-sorted step from the translated term
whose result is equivalent (modulo the translated equations, compared in
core canonical form) to the translated result.  The backward check walks
the other way: many-sorted terms in the image of the translation are
inverted by stripping casts, and each of their steps must be mirrored by
a source step.  Verdicts are only recorded as failures when the bounded
class searches involved reached a fixpoint; otherwise the step counts as
skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .errors import NotStrictlySensible
from .rewrite import (
    RewriteStep,
    core_canonicalize,
    direct_steps,
    e_class_bounded,
    rule_results,
)
from .terms import (
    GroundTerm,
    MSAlgebra,
    OSAlgebra,
    OSSignature,
    Rule,
    Signature,
    Sort,
    least_sort,
    ms_sort,
    well_formed_ground,
)
from .translate import TranslationMap, strip_casts, translate_algebra, translate_term
from .validity import validate_algebra


@dataclass(frozen=True)
class BisimConfig:
    """Budgets for one bisimulation run.

    Depth and size budgets are positive.  ``sample_beyond`` adds that
    many seeded random terms above ``term_depth`` to the forward sweep;
    ``seed`` only matters then.
    """

    term_depth: int = 3
    eclass_depth: int = 5
    eclass_max: int = 10_000
    max_terms: int = 100_000
    seed: int = 0
    sample_beyond: int = 0


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

    Constants have height zero.  Order-sorted enumeration admits a term
    wherever its least sort fits; with ``sort`` given, only terms whose
    sort fits ``sort`` (exactly, for many-sorted signatures) are yielded.
    The order is deterministic: by height, then by operator declaration.
    """
    os_mode = isinstance(sig, OSSignature)
    pool: dict[Sort, list[GroundTerm]] = {s: [] for s in sig.sorts}
    height: dict[GroundTerm, int] = {}

    def admit(t: GroundTerm, h: int) -> Sort:
        height[t] = h
        ts = least_sort(sig, t) if os_mode else ms_sort(sig, t)
        if os_mode:
            for s in sig.poset.supersorts(ts):
                pool[s].append(t)
        else:
            pool[ts].append(t)
        return ts

    def wanted(ts: Sort) -> bool:
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


def _sample_deeper(sig: Signature, depth: int, count: int, seed: int):
    """Seeded random well-formed terms of height above ``depth``."""
    rng = random.Random(seed)
    reservoir = list(enumerate_ground_terms(sig, depth=depth))
    if not reservoir:
        return
    os_mode = isinstance(sig, OSSignature)
    emitted = 0
    attempts = 0
    seen: set[GroundTerm] = set()
    while emitted < count and attempts < count * 50:
        attempts += 1
        op = rng.choice(sig.operators)
        if op.arity == 0:
            continue
        args = []
        for s in op.arg_sorts:
            fits = [
                t for t in rng.sample(reservoir, min(len(reservoir), 8))
                if (sig.poset.leq(least_sort(sig, t), s) if os_mode
                    else ms_sort(sig, t) == s)
            ]
            if not fits:
                break
            args.append(rng.choice(fits))
        else:
            t = GroundTerm(op.constructor, tuple(args))
            if t not in seen and well_formed_ground(sig, t):
                seen.add(t)
                emitted += 1
                yield t


def _translated(tm: TranslationMap, t: GroundTerm) -> GroundTerm:
    return core_canonicalize(tm, translate_term(tm, t))


def check_forward(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                  cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Every source step must be mirrored by a translated step."""
    report = BisimReport()
    terms = enumerate_ground_terms(os.signature, depth=cfg.term_depth)
    for t in terms:
        if report.terms_checked >= cfg.max_terms:
            report.truncated = True
            break
        report.terms_checked += 1
        for step in direct_steps(os, t):
            report.steps_checked += 1
            _check_forward_step(os, ms, tm, cfg, t, step, report)
    if cfg.sample_beyond:
        for t in _sample_deeper(os.signature, cfg.term_depth,
                                cfg.sample_beyond, cfg.seed):
            report.terms_checked += 1
            for step in direct_steps(os, t):
                report.steps_checked += 1
                _check_forward_step(os, ms, tm, cfg, t, step, report)
    return report


def _check_forward_step(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                        cfg: BisimConfig, t: GroundTerm, step: RewriteStep,
                        report: BisimReport) -> None:
    source = _translated(tm, t)
    # A many-sorted step preserves the subject's sort exactly, so a
    # sort-decreasing root step shows up wrapped in the right-side casts.
    top = least_sort(os.signature, t)
    target = core_canonicalize(tm, translate_term(tm, step.result, expected=top))
    # Fast path: the mirrored redex usually sits on the translated term.
    for result in rule_results(ms, source, step.rule_index):
        if result is target:
            return
    cls_source = e_class_bounded(ms, source, cfg.eclass_depth, cfg.eclass_max)
    cls_target = e_class_bounded(ms, target, cfg.eclass_depth, cfg.eclass_max)
    target_members = set(cls_target.members)
    for u in cls_source.members:
        for result in rule_results(ms, u, step.rule_index):
            if result in target_members:
                return
    if cls_source.exhausted and cls_target.exhausted:
        report.forward_failures.append(Counterexample(
            direction="forward",
            source_term=t,
            rule_index=step.rule_index,
            rule=step.rule,
            witness=step,
            missing="no many-sorted step reaches the translated result "
                    f"{target!r}",
        ))
    else:
        report.skipped_unexhausted += 1


def check_backward(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                   cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Every translated-image step must come from a source step.

    Terms outside the translation's image cannot mirror any source term;
    they are skipped and counted.
    """
    report = BisimReport()
    for p in enumerate_ground_terms(ms.signature, depth=cfg.term_depth):
        if report.terms_checked >= cfg.max_terms:
            report.truncated = True
            break
        report.terms_checked += 1
        canonical = core_canonicalize(ms.signature, p)
        preimage = strip_casts(tm, canonical)
        if _translated(tm, preimage) is not canonical:
            report.not_in_image += 1
            continue
        for step in direct_steps(ms, canonical):
            report.steps_checked += 1
            _check_backward_step(os, ms, tm, cfg, preimage, step, report)
    return report


def _check_backward_step(os: OSAlgebra, ms: MSAlgebra, tm: TranslationMap,
                         cfg: BisimConfig, t: GroundTerm, step: RewriteStep,
                         report: BisimReport) -> None:
    target = step.result  # already canonical
    top = ms_sort(ms.signature, step.bridging_term)

    def lifted(result: GroundTerm) -> GroundTerm:
        return core_canonicalize(tm, translate_term(tm, result, expected=top))

    for result in rule_results(os, t, step.rule_index):
        if lifted(result) is target:
            return
    cls_os = e_class_bounded(os, t, cfg.eclass_depth, cfg.eclass_max)
    cls_target = e_class_bounded(ms, target, cfg.eclass_depth, cfg.eclass_max)
    target_members = set(cls_target.members)
    for u in cls_os.members:
        for result in rule_results(os, u, step.rule_index):
            if lifted(result) in target_members:
                return
    if cls_os.exhausted and cls_target.exhausted:
        report.backward_failures.append(Counterexample(
            direction="backward",
            source_term=step.bridging_term,
            rule_index=step.rule_index,
            rule=step.rule,
            witness=step,
            missing=f"no order-sorted step from {t!r} maps onto {target!r}",
        ))
    else:
        report.skipped_unexhausted += 1


def run_bisim(os: OSAlgebra, cfg: BisimConfig = BisimConfig()) -> BisimReport:
    """Translate, run both directions and merge the reports."""
    report = validate_algebra(os)
    if not report.translatable:
        raise NotStrictlySensible(
            "algebra fails translation preconditions: "
            + "; ".join(kind for kind, _ in report.violations)
        )
    ms, tm = translate_algebra(os)
    return check_forward(os, ms, tm, cfg).merge(check_backward(os, ms, tm, cfg))
