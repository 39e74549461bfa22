"""Order-sorted to many-sorted translation.

The pipeline collapses every argument-compatible overload group to its
position-wise maximal representative, renames surviving constructors that
still clash, and materializes each declared subsort pair as an explicit
unary cast operator.  Terms are translated bottom-up, wrapping arguments
in canonical cast chains wherever their sort sits strictly below the sort
the operator demands.  Where the subsort graph offers several chains
between the same two sorts, generated core equations equate them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    IllFormedTerm,
    NoPath,
    NotStrictlySensible,
    RenameCollision,
    UntranslatableSort,
)
from .poset import SortPoset, choose_canonical
from .terms import (
    Equation,
    GroundTerm,
    MSAlgebra,
    MSSignature,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    Rule,
    Sort,
    Term,
    Var,
    least_sort,
    print_term,
)
from .validity import ValidityReport, validate_algebra

CAST_NAME_RE = re.compile(r"^Cast_.+_to_.+$")


def cast_name(sub: Sort, sup: Sort) -> str:
    return f"Cast_{sub}_to_{sup}"


def is_reserved_name(name: str) -> bool:
    """Whether a constructor name collides with the cast naming scheme."""
    return CAST_NAME_RE.match(name) is not None


def _node_cls(t: Term):
    return GroundTerm if isinstance(t, GroundTerm) else PNode


@dataclass
class TranslationMap:
    """Audit record of one translation run; also drives term translation.

    ``casts`` is a bijection between declared subsort pairs and generated
    unary operators; ``canonical_path_of`` fixes one chain per related
    sort pair, chosen by ``tie_break``.
    """

    source: OSSignature
    tie_break: str
    representative_of: dict[Operator, Operator]
    rename_of: dict[Operator, str]
    casts: dict[tuple[Sort, Sort], Operator]
    canonical_path_of: dict[tuple[Sort, Sort], tuple[Sort, ...]]
    cast_pair_of: dict[str, tuple[Sort, Sort]] = field(init=False, repr=False)
    original_name_of: dict[str, str] = field(init=False, repr=False)
    _tr_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # The map's ``rewrite.CastTable``, built on first use.
    _cast_index: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.cast_pair_of = {
            op.constructor: pair for pair, op in self.casts.items()
        }
        self.original_name_of = {
            name: op.constructor for op, name in self.rename_of.items()
        }
        self._tr_cache = {}

    def canonical_path(self, start: Sort, end: Sort) -> tuple[Sort, ...]:
        """The chosen chain from ``start`` up to ``end``; raises ``NoPath``."""
        try:
            return self.canonical_path_of[(start, end)]
        except KeyError:
            raise NoPath(f"no subsort path from {start!r} to {end!r}") from None

    def wrap(self, t: Term, start: Sort, end: Sort) -> Term:
        """Wrap ``t`` in the canonical cast chain from ``start`` to ``end``."""
        if start == end:
            return t
        return self.wrap_along(t, self.canonical_path(start, end))

    def wrap_along(self, t: Term, path: tuple[Sort, ...]) -> Term:
        cls = _node_cls(t)
        for lo, hi in zip(path, path[1:]):
            t = cls(self.casts[(lo, hi)].constructor, (t,))
        return t


def select_representatives(
    alg: OSAlgebra, report: ValidityReport | None = None
) -> tuple[tuple[Operator, ...], dict[Operator, Operator]]:
    """Collapse each argument-compatible group to its maximal member.

    Returns the reduced operator set and the operator-to-representative
    mapping; refuses algebras that are not strictly sensible.
    """
    if report is None:
        report = validate_algebra(alg)
    if not report.strictly_sensible:
        raise NotStrictlySensible(
            f"algebra is not strictly sensible: {report.violations}"
        )
    reps = dict(report.representative_of)
    reduced = tuple(sorted(set(reps.values())))
    return reduced, reps


def rename_constructors(
    ops: tuple[Operator, ...], taken: frozenset[str] = frozenset()
) -> dict[Operator, str]:
    """Give surviving operators that still share a constructor fresh names.

    The primary scheme appends the target sort (``+`` targeting ``AExp``
    becomes ``+AExp``); if that collides the argument sorts are appended
    too, and any remaining clash is an error.  ``taken`` holds names that
    must stay available (the source signature's constructors).
    """
    by_ctor: dict[str, list[Operator]] = {}
    for op in ops:
        by_ctor.setdefault(op.constructor, []).append(op)
    renames: dict[Operator, str] = {}
    used = set(taken) | set(by_ctor)
    chosen: set[str] = set()
    for ctor in sorted(by_ctor):
        group = by_ctor[ctor]
        if len(group) == 1:
            renames[group[0]] = ctor
            chosen.add(ctor)
            continue
        for op in sorted(group):
            primary = f"{op.constructor}{op.target_sort}"
            fallback = f"{primary}_{'_'.join(op.arg_sorts)}"
            for name in (primary, fallback):
                if name not in used and name not in chosen:
                    renames[op] = name
                    chosen.add(name)
                    break
            else:
                raise RenameCollision(
                    f"cannot find a fresh name for {op!r}; tried "
                    f"{primary!r} and {fallback!r}"
                )
    return renames


def generate_cast_operators(
    poset: SortPoset, reserved: frozenset[str] = frozenset()
) -> dict[tuple[Sort, Sort], Operator]:
    """One unary cast operator per declared subsort pair."""
    casts: dict[tuple[Sort, Sort], Operator] = {}
    for lo, hi in sorted(poset.base_pairs):
        name = cast_name(lo, hi)
        if name in reserved:
            raise RenameCollision(f"cast name {name!r} clashes with a constructor")
        casts[(lo, hi)] = Operator(name, (lo,), hi)
    return casts


def compute_canonical_paths(
    poset: SortPoset, tie_break: str
) -> dict[tuple[Sort, Sort], tuple[Sort, ...]]:
    paths: dict[tuple[Sort, Sort], tuple[Sort, ...]] = {}
    for lo in poset.sorts:
        for hi in poset.supersorts(lo):
            if lo == hi:
                continue
            paths[(lo, hi)] = choose_canonical(
                poset.enumerate_paths(lo, hi), tie_break
            )
    return paths


def translate_term(tm: TranslationMap, t: Term, expected: Sort | None = None) -> Term:
    """Translate one term or pattern bottom-up.

    Every node's constructor is replaced by its representative's final
    name; wherever a child's sort sits strictly below the sort the
    representative demands, the canonical cast chain bridges the gap.
    When ``expected`` is given the root is wrapped up to it as well.
    """
    ground = isinstance(t, GroundTerm)
    if ground:
        hit = tm._tr_cache.get((t, expected))
        if hit is not None:
            return hit
    out, sort = _translate(tm, t)
    if expected is not None and sort != expected:
        if expected not in tm.source.poset.supersorts(sort):
            raise UntranslatableSort(
                f"cannot cast {print_term(t)} from {sort!r} up to {expected!r}"
            )
        out = tm.wrap(out, sort, expected)
    if ground:
        tm._tr_cache[(t, expected)] = out
    return out


def _translate(tm: TranslationMap, t: Term) -> tuple[Term, Sort]:
    if isinstance(t, Var):
        return t, t.sort
    src = tm.source
    leq = src.poset.leq
    child_sorts = tuple(least_sort(src, a) for a in t.args)
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
    cls = _node_cls(t)
    new_args = []
    for a, want in zip(t.args, rep.arg_sorts):
        ta = translate_term(tm, a, expected=want)
        new_args.append(ta)
    return cls(tm.rename_of[rep], tuple(new_args)), rep.target_sort


def generate_core_equations(tm: TranslationMap) -> tuple[Equation, ...]:
    """Equations identifying distinct cast chains between the same sorts.

    For each related pair with several chains, the canonical chain is
    equated with one witness per diverging first edge; chains sharing a
    first edge are already identified by the equations of the shorter
    pair, because canonical paths compose tail-first.  This keeps the
    count below the square of the sort count while the congruence closure
    still equates every pair of chains.
    """
    poset = tm.source.poset
    out: list[Equation] = []
    for bottom in sorted(poset.sorts):
        for top in sorted(poset.supersorts(bottom)):
            if top == bottom:
                continue
            first_edges = [
                x for x in poset.successors(bottom) if poset.leq(x, top)
            ]
            if len(first_edges) < 2:
                continue
            canon = tm.canonical_path(bottom, top)
            var = Var("A", bottom)
            lhs = tm.wrap_along(var, canon)
            for x in first_edges:
                if x == canon[1]:
                    continue
                via = (bottom, top) if x == top else (bottom,) + tm.canonical_path(x, top)
                out.append(Equation(lhs, tm.wrap_along(var, via)))
    return tuple(out)


def translate_equations(tm: TranslationMap, equations) -> tuple[Equation, ...]:
    """Translate user equations; both sides already share one sort."""
    return tuple(
        Equation(translate_term(tm, eq.lhs), translate_term(tm, eq.rhs))
        for eq in equations
    )


def translate_rules(tm: TranslationMap, rules) -> tuple[Rule, ...]:
    """Translate rules, casting each right side up to its left side's sort."""
    out = []
    for rule in rules:
        lhs_sort = least_sort(tm.source, rule.lhs)
        out.append(
            Rule(
                translate_term(tm, rule.lhs),
                translate_term(tm, rule.rhs, expected=lhs_sort),
            )
        )
    return tuple(out)


def translate_algebra(
    alg: OSAlgebra, tie_break: str = "lex"
) -> tuple[MSAlgebra, TranslationMap]:
    """Full pipeline from an order-sorted algebra to a many-sorted one.

    The sort set is unchanged, the subsort pairs become cast operators,
    equation indices are preserved with core equations appended, and the
    rule count is preserved exactly.
    """
    report = validate_algebra(alg)
    if not report.translatable:
        raise NotStrictlySensible(
            "algebra fails translation preconditions: "
            + "; ".join(kind for kind, _ in report.violations)
        )
    reduced, reps = select_representatives(alg, report)
    renames = rename_constructors(reduced, taken=alg.signature.constructors)
    final_names = frozenset(renames.values())
    casts = generate_cast_operators(alg.signature.poset, reserved=final_names)
    tm = TranslationMap(
        source=alg.signature,
        tie_break=tie_break,
        representative_of=reps,
        rename_of=renames,
        casts=casts,
        canonical_path_of=compute_canonical_paths(alg.signature.poset, tie_break),
    )
    core = generate_core_equations(tm)
    equations = translate_equations(tm, alg.equations) + core
    rules = translate_rules(tm, alg.rules)
    core_ops = [
        Operator(renames[op], op.arg_sorts, op.target_sort) for op in reduced
    ]
    signature = MSSignature(
        sorts=alg.signature.sorts,
        operators=tuple(core_ops) + tuple(casts.values()),
        non_core=frozenset(casts.values()),
    )
    return MSAlgebra(signature, equations, rules, core_equations=core), tm


def strip_casts(tm: TranslationMap, t: GroundTerm) -> GroundTerm:
    """Invert a translated ground term: drop casts, restore names.

    Every well-formed translated term strips to a well-formed source
    term; composition with ``translate_term`` recovers the original up
    to core equality.
    """
    while t.constructor in tm.cast_pair_of:
        t = t.args[0]
    original = tm.original_name_of.get(t.constructor)
    if original is None:
        raise IllFormedTerm(f"constructor {t.constructor!r} is not a translated name")
    return GroundTerm(original, tuple(strip_casts(tm, a) for a in t.args))
