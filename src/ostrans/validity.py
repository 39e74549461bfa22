"""Classification of an order-sorted algebra ahead of translation.

The translation pipeline only accepts strictly sensible algebras: every
argument-compatible overload group shares one target sort and contains a
position-wise maximal member, constants are never overloaded, equations
are sort-equal and rules sort-decreasing.  The checks below diagnose each
condition separately and report offenders instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AmbiguousSort
from .poset import SortPoset
from .terms import Operator, OSAlgebra, side_facts

Violation = tuple[str, tuple]


@dataclass
class ValidityReport:
    """Outcome of every translation precondition on one algebra."""

    sensible: bool
    strong_sensible: bool
    maximal_argument_bounding: bool
    equations_sort_equal: bool
    rules_sort_decreasing: bool
    unique_tops: bool
    violations: list[Violation] = field(default_factory=list)
    representative_of: dict[Operator, Operator] = field(default_factory=dict)

    @property
    def strictly_sensible(self) -> bool:
        return self.strong_sensible and self.maximal_argument_bounding

    @property
    def translatable(self) -> bool:
        return (
            self.strictly_sensible
            and self.equations_sort_equal
            and self.rules_sort_decreasing
            and self.unique_tops
        )


def argument_compatible(poset: SortPoset, f: Operator, g: Operator) -> bool:
    """Same constructor, same arity, common supersort at every position."""
    if f.constructor != g.constructor or f.arity != g.arity:
        return False
    return all(
        poset.common_supersort_exists(a, b)
        for a, b in zip(f.arg_sorts, g.arg_sorts)
    )


def _overload_groups(alg: OSAlgebra) -> dict[Operator, tuple[Operator, ...]]:
    """Each operator's bucket of the signature's ``_by_shape``, in declaration order.

    Operators in different buckets differ in constructor, arity or the
    connected component of the first argument sort, so they are never
    argument-compatible; ``argument_compatible`` still decides within a
    bucket.
    """
    return {op: ops for ops in alg.signature._by_shape.values() for op in ops}


def _overload_pairs(alg: OSAlgebra):
    """Pairs of operators sharing a bucket, ordered by declaration index."""
    group_of = _overload_groups(alg)
    for f in alg.signature.operators:
        group = group_of[f]
        for g in group[group.index(f) + 1:]:
            yield f, g


def check_sensible(alg: OSAlgebra) -> tuple[bool, list[Violation]]:
    """Argument-compatible pairs must have targets with a common supersort."""
    poset = alg.signature.poset
    violations = [
        ("sensible", (f, g))
        for f, g in _overload_pairs(alg)
        if argument_compatible(poset, f, g)
        and not poset.common_supersort_exists(f.target_sort, g.target_sort)
    ]
    return not violations, violations


def check_strong_sensible(alg: OSAlgebra) -> tuple[bool, list[Violation]]:
    """Argument-compatible pairs must share one target; no overloaded constants."""
    poset = alg.signature.poset
    violations: list[Violation] = []
    for f, g in _overload_pairs(alg):
        if f.arity == 0 and g.arity == 0:
            violations.append(("overloaded_constant", (f, g)))
        elif argument_compatible(poset, f, g) and f.target_sort != g.target_sort:
            violations.append(("strong_sensible", (f, g)))
    return not violations, violations


def check_maximal_argument_bounding(
    alg: OSAlgebra,
) -> tuple[bool, dict[Operator, Operator], list[Violation]]:
    """Each operator needs a position-wise dominating compatible operator.

    Returns the mapping from every operator to that representative; the
    representative is unique whenever it exists.  Operators without one
    are reported as violations and left out of the mapping.
    """
    poset = alg.signature.poset
    leq = poset.leq
    reps: dict[Operator, Operator] = {}
    violations: list[Violation] = []
    group_of = _overload_groups(alg)
    for f in alg.signature.operators:
        compatible = [g for g in group_of[f] if argument_compatible(poset, f, g)]
        chosen = None
        for cand in compatible:
            if all(
                argument_compatible(poset, cand, g)
                and all(leq(a, b) for a, b in zip(g.arg_sorts, cand.arg_sorts))
                for g in compatible
            ):
                chosen = cand
                break
        if chosen is None:
            violations.append(("maximal_argument_bounding", (f,)))
        else:
            reps[f] = chosen
    return not violations, reps, violations


def _check_side_sorts(alg: OSAlgebra, statements, fits, kind: str):
    """Statements whose side sorts, ``fits(lhs, rhs)``, are not as required."""
    sig = alg.signature
    violations: list[Violation] = []
    for st in statements:
        lhs, rhs = side_facts(sig, st.lhs)[1], side_facts(sig, st.rhs)[1]
        if isinstance(lhs, AmbiguousSort) or isinstance(rhs, AmbiguousSort):
            violations.append(("ambiguous_pattern_sort", (st,)))
        elif not fits(lhs, rhs):
            violations.append((kind, (st,)))
    return not violations, violations


def check_equations_sort_equal(alg: OSAlgebra) -> tuple[bool, list[Violation]]:
    """Both sides of every equation must have the same sort."""
    return _check_side_sorts(alg, alg.equations, lambda lhs, rhs: lhs == rhs,
                             "equation_sorts_differ")


def check_rules_sort_decreasing(alg: OSAlgebra) -> tuple[bool, list[Violation]]:
    """The right side's sort must lie at or below the left side's."""
    leq = alg.signature.poset.leq
    return _check_side_sorts(alg, alg.rules, lambda lhs, rhs: leq(rhs, lhs),
                             "rule_not_sort_decreasing")


def validate_algebra(alg: OSAlgebra) -> ValidityReport:
    """Run every translation precondition and collect the combined report.

    The report is kept on the algebra, so later calls return it as is.
    """
    if alg._validity is not None:
        return alg._validity
    top_violations = alg.signature.poset.check_unique_tops()
    sensible, v1 = check_sensible(alg)
    strong, v2 = check_strong_sensible(alg)
    maxarg, reps, v3 = check_maximal_argument_bounding(alg)
    eqs_ok, v4 = check_equations_sort_equal(alg)
    rules_ok, v5 = check_rules_sort_decreasing(alg)
    violations = (
        [("unique_top", v) for v in top_violations] + v1 + v2 + v3 + v4 + v5
    )
    alg._validity = ValidityReport(
        sensible=sensible,
        strong_sensible=strong,
        maximal_argument_bounding=maxarg,
        equations_sort_equal=eqs_ok,
        rules_sort_decreasing=rules_ok,
        unique_tops=not top_violations,
        violations=violations,
        representative_of=reps,
    )
    return alg._validity
