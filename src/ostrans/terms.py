"""Sorts, operators, signatures, terms and the two algebra containers.

Ground terms are hash-consed: building the same tree twice yields the same
object, so equality is identity and terms can key dictionaries cheaply.
Signatures and algebras carry internal caches (sort sets, least sorts,
cast tables, redex indexes) that make the per-term operations amortized
constant time; all caches are invisible to equality and never change
observable behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import (
    AmbiguousSort,
    IllFormedTerm,
    InconsistentAnnotation,
    InvalidSignature,
    SortViolation,
    UnboundVariable,
    UnknownSort,
)
from .poset import SortPoset, build_poset

Sort = str


class GroundTerm:
    """Variable-free constructor tree.

    Instances are interned: structural equality coincides with ``is``.
    """

    __slots__ = ("constructor", "args", "_hash")
    _pool: dict = {}

    def __new__(cls, constructor: str, args: tuple["GroundTerm", ...] = ()):
        key = (constructor, args)
        hit = cls._pool.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.constructor = constructor
        self.args = args
        self._hash = hash(key)
        # setdefault is atomic under CPython, keeping interning race-free.
        return cls._pool.setdefault(key, self)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var:
    """Sorted variable occurrence in a pattern."""

    name: str
    sort: Sort

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort}"


@dataclass(frozen=True)
class PNode:
    """Constructor application inside a pattern."""

    constructor: str
    args: tuple["Pattern", ...] = ()

    def __repr__(self) -> str:
        return print_term(self)


Pattern = Union[Var, PNode]
Term = Union[GroundTerm, Pattern]

Substitution = dict[str, GroundTerm]


def print_term(t: Term) -> str:
    """Render a term or pattern in the prefix spec grammar."""
    if isinstance(t, Var):
        return f"{t.name}:{t.sort}"
    if not t.args:
        return t.constructor
    return f"{t.constructor}({', '.join(print_term(a) for a in t.args)})"


@dataclass(frozen=True, order=True)
class Operator:
    """Declaration ``constructor : arg_sorts -> target_sort``."""

    constructor: str
    arg_sorts: tuple[Sort, ...]
    target_sort: Sort

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self) -> str:
        args = " ".join(self.arg_sorts)
        return f"{self.constructor} : {args + ' ' if args else ''}-> {self.target_sort}"


def _check_operator_sorts(operators, sorts: frozenset[Sort]) -> None:
    for op in operators:
        for s in op.arg_sorts + (op.target_sort,):
            if s not in sorts:
                raise UnknownSort(f"operator {op!r} mentions undeclared sort {s!r}")


@dataclass
class OSSignature:
    """Order-sorted signature: sorts, declared subsort pairs, operators.

    Two operators may share ``(constructor, arg_sorts)`` with different
    targets at this level; the validity checks diagnose that situation
    rather than making it unrepresentable.
    """

    sorts: frozenset[Sort]
    subsort_pairs: frozenset[tuple[Sort, Sort]]
    operators: tuple[Operator, ...]
    poset: SortPoset = field(init=False, repr=False, compare=False)
    _by_ctor: dict[str, tuple[Operator, ...]] = field(init=False, repr=False, compare=False)
    _sorts_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _least_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __init__(self, sorts, subsort_pairs, operators):
        self.sorts = frozenset(sorts)
        if not all(self.sorts):
            raise UnknownSort("sort names must be non-empty")
        self.subsort_pairs = frozenset(tuple(p) for p in subsort_pairs)
        self.operators = tuple(sorted(set(operators)))
        _check_operator_sorts(self.operators, self.sorts)
        self.poset = build_poset(self.sorts, self.subsort_pairs)
        by_ctor: dict[str, list[Operator]] = {}
        for op in self.operators:
            by_ctor.setdefault(op.constructor, []).append(op)
        self._by_ctor = {c: tuple(v) for c, v in by_ctor.items()}
        self._sorts_cache = {}
        self._least_cache = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OSSignature)
            and self.sorts == other.sorts
            and self.subsort_pairs == other.subsort_pairs
            and self.operators == other.operators
        )

    @property
    def constructors(self) -> frozenset[str]:
        return frozenset(self._by_ctor)

    def ops_named(self, constructor: str) -> tuple[Operator, ...]:
        return self._by_ctor.get(constructor, ())


@dataclass
class MSSignature:
    """Many-sorted signature; ``non_core`` flags the generated casts."""

    sorts: frozenset[Sort]
    operators: tuple[Operator, ...]
    non_core: frozenset[Operator]
    _by_key: dict[tuple[str, tuple[Sort, ...]], Operator] = field(init=False, repr=False, compare=False)
    _by_ctor: dict[str, tuple[Operator, ...]] = field(init=False, repr=False, compare=False)
    _sort_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _pattern_sort_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # The signature's ``rewrite.CastTable``, built on first use.
    _cast_index: object = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, sorts, operators, non_core=()):
        self.sorts = frozenset(sorts)
        self.operators = tuple(sorted(set(operators)))
        self.non_core = frozenset(non_core)
        _check_operator_sorts(self.operators, self.sorts)
        if not self.non_core <= set(self.operators):
            raise InvalidSignature("non_core operators must belong to the signature")
        for op in self.non_core:
            if op.arity != 1:
                raise InvalidSignature(f"non-core operator {op!r} is not unary")
        self._by_key = {}
        by_ctor: dict[str, list[Operator]] = {}
        for op in self.operators:
            key = (op.constructor, op.arg_sorts)
            if key in self._by_key:
                raise InvalidSignature(
                    f"operators {self._by_key[key]!r} and {op!r} cannot be told apart"
                )
            self._by_key[key] = op
            by_ctor.setdefault(op.constructor, []).append(op)
        self._by_ctor = {c: tuple(v) for c, v in by_ctor.items()}
        self._sort_cache = {}
        self._pattern_sort_cache = {}
        self._cast_index = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MSSignature)
            and self.sorts == other.sorts
            and self.operators == other.operators
            and self.non_core == other.non_core
        )

    @property
    def constructors(self) -> frozenset[str]:
        return frozenset(self._by_ctor)

    def ops_named(self, constructor: str) -> tuple[Operator, ...]:
        return self._by_ctor.get(constructor, ())

    def lookup(self, constructor: str, arg_sorts: tuple[Sort, ...]) -> Operator | None:
        return self._by_key.get((constructor, arg_sorts))


Signature = Union[OSSignature, MSSignature]


# --- sort computation ------------------------------------------------------

def sorts_of(sig: Signature, t: Term) -> frozenset[Sort]:
    """Every sort the term inhabits; empty when the term is ill-formed.

    In the order-sorted case a term of least sort ``s`` inhabits every
    supersort of ``s``; in the many-sorted case the set is a singleton.
    Variables contribute their declared sort.  Total: never raises.
    """
    if isinstance(sig, OSSignature):
        return _sorts_of_os(sig, t)
    return _sorts_of_ms(sig, t)


def _sorts_of_os(sig: OSSignature, t: Term) -> frozenset[Sort]:
    if isinstance(t, Var):
        if t.sort not in sig.sorts:
            return frozenset()
        return sig.poset.supersorts(t.sort)
    cache = sig._sorts_cache
    ground = isinstance(t, GroundTerm)
    if ground:
        hit = cache.get(t)
        if hit is not None:
            return hit
    child_sets = [_sorts_of_os(sig, a) for a in t.args]
    acc: set[Sort] = set()
    for op in sig.ops_named(t.constructor):
        if op.arity != len(t.args):
            continue
        if all(s in cs for s, cs in zip(op.arg_sorts, child_sets)):
            acc |= sig.poset.supersorts(op.target_sort)
    result = frozenset(acc)
    if ground:
        cache[t] = result
    return result


def _sorts_of_ms(sig: MSSignature, t: Term) -> frozenset[Sort]:
    s = _ms_sort_opt(sig, t)
    return frozenset() if s is None else frozenset((s,))


def _ms_sort_opt(sig: MSSignature, t: Term) -> Sort | None:
    if isinstance(t, Var):
        return t.sort if t.sort in sig.sorts else None
    ground = isinstance(t, GroundTerm)
    cache = sig._sort_cache if ground else sig._pattern_sort_cache
    hit = cache.get(t)
    if hit is not None:
        return hit
    child_sorts = []
    for a in t.args:
        cs = _ms_sort_opt(sig, a)
        if cs is None:
            return None
        child_sorts.append(cs)
    op = sig.lookup(t.constructor, tuple(child_sorts))
    if op is None:
        return None
    cache[t] = op.target_sort
    return op.target_sort


def ms_sort(sig: MSSignature, t: Term) -> Sort:
    """The unique sort of a many-sorted term; raises when ill-formed."""
    s = _ms_sort_opt(sig, t)
    if s is None:
        raise IllFormedTerm(f"term {print_term(t)} is not well-formed in the signature")
    return s


def well_formed_ground(sig: Signature, t: Term) -> bool:
    """Membership of ``t`` in the ground term algebra of ``sig``."""
    return bool(sorts_of(sig, t))


def least_sort(sig: OSSignature, t: Term) -> Sort:
    """Least sort of an order-sorted term.

    Variables are taken at their declared sort, so this also computes the
    sort of a pattern.  Raises ``IllFormedTerm`` when no operator admits
    the children and ``AmbiguousSort`` when the admitting operators have
    no common least target (input outside the strictly sensible fragment).
    """
    if isinstance(t, Var):
        if t.sort not in sig.sorts:
            raise UnknownSort(f"unknown sort {t.sort!r}")
        return t.sort
    ground = isinstance(t, GroundTerm)
    if ground:
        hit = sig._least_cache.get(t)
        if hit is not None:
            return hit
    child_sorts = tuple(least_sort(sig, a) for a in t.args)
    leq = sig.poset.leq
    targets = []
    for op in sig.ops_named(t.constructor):
        if op.arity != len(t.args):
            continue
        if all(leq(cs, s) for cs, s in zip(child_sorts, op.arg_sorts)):
            targets.append(op.target_sort)
    if not targets:
        raise IllFormedTerm(
            f"no operator admits {print_term(t)} (children sorted {child_sorts})"
        )
    for cand in targets:
        if all(leq(cand, other) for other in targets):
            if ground:
                sig._least_cache[t] = cand
            return cand
    raise AmbiguousSort(
        f"term {print_term(t)} has incomparable candidate sorts {sorted(set(targets))}"
    )


def term_sort(sig: Signature, t: Term) -> Sort:
    """Least sort under an order-sorted signature, exact sort otherwise."""
    if isinstance(sig, OSSignature):
        return least_sort(sig, t)
    return ms_sort(sig, t)


# --- patterns --------------------------------------------------------------

def variables_of(p: Pattern) -> dict[str, Sort]:
    """The annotated variables of a pattern, as a name-to-sort mapping.

    Raises ``InconsistentAnnotation`` when one name carries two sorts.
    """
    out: dict[str, Sort] = {}
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            old = out.get(node.name)
            if old is not None and old != node.sort:
                raise InconsistentAnnotation(
                    f"variable {node.name} annotated both {old!r} and {node.sort!r}"
                )
            out[node.name] = node.sort
        else:
            stack.extend(node.args)
    return out


def apply_substitution(sig: Signature, p: Pattern, h: Substitution) -> GroundTerm:
    """Replace every variable of ``p`` by its image under ``h``.

    Order-sorted signatures admit images of any subsort of the declared
    variable sort; many-sorted signatures require the exact sort.
    """
    if isinstance(p, Var):
        image = h.get(p.name)
        if image is None:
            raise UnboundVariable(f"variable {p.name} has no binding")
        if isinstance(sig, OSSignature):
            ok = sig.poset.leq(least_sort(sig, image), p.sort)
        else:
            ok = ms_sort(sig, image) == p.sort
        if not ok:
            raise SortViolation(
                f"binding {p.name} = {print_term(image)} does not fit sort {p.sort!r}"
            )
        return image
    if isinstance(p, GroundTerm):
        return p
    return GroundTerm(p.constructor, tuple(apply_substitution(sig, a, h) for a in p.args))


# --- equations, rules, algebras --------------------------------------------

@dataclass(frozen=True)
class Equation:
    """Oriented presentation of an unordered identity between two patterns."""

    lhs: Pattern
    rhs: Pattern

    def __repr__(self) -> str:
        return f"{print_term(self.lhs)} = {print_term(self.rhs)}"


@dataclass(frozen=True)
class Rule:
    """Rewrite rule; applied left to right on any subterm."""

    lhs: Pattern
    rhs: Pattern

    def __repr__(self) -> str:
        return f"{print_term(self.lhs)} => {print_term(self.rhs)}"


def _check_statement(sig: Signature, lhs: Pattern, rhs: Pattern, what: str) -> None:
    seen = variables_of(lhs)
    for name, sort in variables_of(rhs).items():
        if seen.setdefault(name, sort) != sort:
            raise InconsistentAnnotation(
                f"variable {name} annotated {seen[name]!r} and {sort!r} across the {what}"
            )
    for side, label in ((lhs, "left"), (rhs, "right")):
        if not sorts_of(sig, side):
            raise IllFormedTerm(f"{label} side of {what} is ill-formed: {print_term(side)}")


def _check_rule_shape(lhs: Pattern, rhs: Pattern) -> None:
    if isinstance(lhs, Var):
        raise IllFormedTerm(f"rule left side must start with a constructor: {print_term(lhs)}")
    extra = set(variables_of(rhs)) - set(variables_of(lhs))
    if extra:
        raise IllFormedTerm(f"rule right side introduces unbound variables {sorted(extra)}")


@dataclass
class OSAlgebra:
    """Order-sorted signature plus its equations and rewrite rules."""

    signature: OSSignature
    equations: tuple[Equation, ...]
    rules: tuple[Rule, ...]
    # ``rewrite.RedexIndex`` over the rules and the usable equation
    # directions, built on first use.
    _rule_index: object = field(init=False, repr=False, compare=False, default=None)
    _equation_index: object = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, signature, equations=(), rules=()):
        self.signature = signature
        self.equations = tuple(dict.fromkeys(equations))
        self.rules = tuple(dict.fromkeys(rules))
        self._rule_index = None
        self._equation_index = None
        for eq in self.equations:
            _check_statement(signature, eq.lhs, eq.rhs, "equation")
        for rule in self.rules:
            _check_statement(signature, rule.lhs, rule.rhs, "rule")
            _check_rule_shape(rule.lhs, rule.rhs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OSAlgebra)
            and self.signature == other.signature
            and frozenset(self.equations) == frozenset(other.equations)
            and frozenset(self.rules) == frozenset(other.rules)
        )


@dataclass
class MSAlgebra:
    """Many-sorted signature plus equations (core ones flagged) and rules."""

    signature: MSSignature
    equations: tuple[Equation, ...]
    rules: tuple[Rule, ...]
    core_equations: frozenset[Equation]
    # ``rewrite.RedexIndex`` over the rules and the usable equation
    # directions, built on first use.
    _rule_index: object = field(init=False, repr=False, compare=False, default=None)
    _equation_index: object = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, signature, equations=(), rules=(), core_equations=()):
        self.signature = signature
        self.equations = tuple(dict.fromkeys(equations))
        self.rules = tuple(dict.fromkeys(rules))
        self.core_equations = frozenset(core_equations)
        self._rule_index = None
        self._equation_index = None
        if not self.core_equations <= set(self.equations):
            raise InvalidSignature("core equations must be a subset of the equations")
        for eq in self.equations:
            _check_statement(signature, eq.lhs, eq.rhs, "equation")
            if ms_sort(signature, eq.lhs) != ms_sort(signature, eq.rhs):
                raise IllFormedTerm(f"equation sides have different sorts: {eq!r}")
        for rule in self.rules:
            _check_statement(signature, rule.lhs, rule.rhs, "rule")
            _check_rule_shape(rule.lhs, rule.rhs)
            if ms_sort(signature, rule.lhs) != ms_sort(signature, rule.rhs):
                raise IllFormedTerm(f"rule sides have different sorts: {rule!r}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MSAlgebra)
            and self.signature == other.signature
            and frozenset(self.equations) == frozenset(other.equations)
            and frozenset(self.rules) == frozenset(other.rules)
            and self.core_equations == other.core_equations
        )


Algebra = Union[OSAlgebra, MSAlgebra]
