"""Sorts, operators, signatures, terms and the two algebra containers.

Ground terms, pattern nodes and variables are hash-consed: building the
same tree twice yields the same object, so equality is identity and any
term or statement side keys a dictionary in constant time.  Nodes are
pooled by constructor, then by argument tuple, so a node's own ``args``
is its only key and no per-node key tuple is kept.
Signatures and algebras carry caches (sort sets, least sorts, cast
tables, redex indexes), each a declared slot of its holder, that make the
per-term operations amortized constant time; all are invisible to
equality and never change observable behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .poset import build_poset

Sort = str


class _Pool(dict):
    """Interned nodes by constructor, then by argument tuple.

    Each node is stored under its own ``args``, so the pool adds no key
    object per node.  ``len`` counts nodes, and ``(constructor, args) in
    pool`` tells whether that application is interned.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self.values()))

    def __contains__(self, key) -> bool:
        constructor, args = key
        return args in self.get(constructor, ())


class _Interned:
    """Constructor application, interned per subclass.

    Structural equality coincides with ``is``, so the default identity
    hash keys every term dictionary.  Each subclass keeps its own
    ``_pool``, a ``_Pool``: a pattern node never equals a ground term.
    """

    __slots__ = ("constructor", "args")
    _pool: _Pool

    def __new__(cls, constructor: str, args: tuple = ()):
        by_args = cls._pool.get(constructor)
        if by_args is None:
            by_args = cls._pool.setdefault(constructor, {})
        hit = by_args.get(args)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.constructor = constructor
        self.args = args
        # setdefault is atomic under CPython, keeping interning race-free.
        return by_args.setdefault(args, self)

    def __repr__(self) -> str:
        return print_term(self)


class GroundTerm(_Interned):
    """Variable-free constructor tree."""

    __slots__ = ()
    _pool = _Pool()


class Var:
    """Sorted variable occurrence in a pattern, interned by (name, sort).

    Like a node, equal variables are one object, so the identity hash
    keys any dictionary.
    """

    __slots__ = ("name", "sort")
    _pool: dict = {}

    def __new__(cls, name: str, sort: Sort):
        key = (name, sort)
        hit = cls._pool.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.name = name
        self.sort = sort
        return cls._pool.setdefault(key, self)

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort}"


class PNode(_Interned):
    """Constructor application inside a pattern."""

    __slots__ = ()
    _pool = _Pool()


Pattern = Union[Var, PNode]
Term = Union[GroundTerm, Pattern]

Substitution = dict[str, GroundTerm]


def print_term(t: Term) -> str:
    """Render a term or pattern in the prefix spec grammar, without recursion."""
    out: list[str] = []
    stack: list = [t]  # Terms still to print, and the punctuation between them.
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif type(node) is Var:
            out.append(f"{node.name}:{node.sort}")
        elif node.args:
            out.append(node.constructor + "(")
            args = node.args
            stack.append(")")
            for i in range(len(args) - 1, 0, -1):
                stack += (args[i], ", ")
            stack.append(args[0])
        else:
            out.append(node.constructor)
    return "".join(out)


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


class _Signature:
    """Sorts and operators, with the parts both signature kinds share."""

    __slots__ = (
        "sorts", "operators", "_by_ctor",
        # ``side_facts`` of statement sides, by side.
        "_sides",
    )

    def __init__(self, sorts, operators):
        self.sorts = frozenset(sorts)
        if not all(self.sorts):
            raise UnknownSort("sort names must be non-empty")
        self.operators = tuple(sorted(set(operators)))
        by_ctor: dict[str, list[Operator]] = {}
        for op in self.operators:
            for s in op.arg_sorts + (op.target_sort,):
                if s not in self.sorts:
                    raise UnknownSort(f"operator {op!r} mentions undeclared sort {s!r}")
            by_ctor.setdefault(op.constructor, []).append(op)
        self._by_ctor = {c: tuple(v) for c, v in by_ctor.items()}
        self._sides = {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self)) and self.sorts == other.sorts
                and self.operators == other.operators)

    @property
    def constructors(self) -> frozenset[str]:
        return frozenset(self._by_ctor)

    def ops_named(self, constructor: str) -> tuple[Operator, ...]:
        return self._by_ctor.get(constructor, ())


class OSSignature(_Signature):
    """Order-sorted signature: sorts, declared subsort pairs, operators.

    Two operators may share ``(constructor, arg_sorts)`` with different
    targets at this level; the validity checks diagnose that situation
    rather than making it unrepresentable.
    """

    __slots__ = (
        "subsort_pairs", "poset",
        # Overloads by constructor, arity and the component of the first
        # argument sort: a child sort can only lie below sorts of its own
        # component, so the other buckets never admit it.
        "_component", "_by_shape",
        # Sort sets and least sorts, by term.
        "_sorts_cache", "_least_cache",
        # Least sorts found by ``_least_at``, by constructor and child
        # sorts; failures are not stored, so they raise again on every call.
        "_least_at_cache",
    )

    def __init__(self, sorts, subsort_pairs, operators):
        super().__init__(sorts, operators)
        self.subsort_pairs = frozenset(tuple(p) for p in subsort_pairs)
        self.poset = build_poset(self.sorts, self.subsort_pairs)
        self._component = {
            s: i for i, comp in enumerate(self.poset.components()) for s in comp
        }
        by_shape: dict[tuple, list[Operator]] = {}
        for op in self.operators:
            first = op.arg_sorts[0] if op.arg_sorts else None
            by_shape.setdefault((op.constructor, op.arity, self._component.get(first)), []).append(op)
        self._by_shape = {k: tuple(v) for k, v in by_shape.items()}
        self._sorts_cache = {}
        self._least_cache = {}
        self._least_at_cache = {}

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.subsort_pairs == other.subsort_pairs

    def admitting(self, constructor: str, child_sorts: tuple[Sort, ...]) -> tuple[Operator, ...]:
        """Operators named ``constructor`` that admit children of ``child_sorts``.

        An operator admits them when each of its argument sorts lies at or
        above the child sort in that position.  Declaration order.
        """
        leq = self.poset.leq
        first = self._component.get(child_sorts[0]) if child_sorts else None
        return tuple(
            op for op in self._by_shape.get((constructor, len(child_sorts), first), ())
            if all(leq(cs, s) for cs, s in zip(child_sorts, op.arg_sorts))
        )


class MSSignature(_Signature):
    """Many-sorted signature; ``non_core`` flags the generated casts."""

    __slots__ = (
        "non_core", "_by_key",
        # Sorts by term, ``""`` for an ill-formed one.
        "_sort_cache",
        # The signature's ``translate.CastTable``: the translation's own table
        # for a translated signature, otherwise built on first use.
        "_cast_index",
    )

    def __init__(self, sorts, operators, non_core=()):
        super().__init__(sorts, operators)
        self.non_core = frozenset(non_core)
        if not self.non_core <= set(self.operators):
            raise InvalidSignature("non_core operators must belong to the signature")
        for op in self.non_core:
            if op.arity != 1:
                raise InvalidSignature(f"non-core operator {op!r} is not unary")
        self._by_key = {}
        for op in self.operators:
            key = (op.constructor, op.arg_sorts)
            if key in self._by_key:
                raise InvalidSignature(
                    f"operators {self._by_key[key]!r} and {op!r} cannot be told apart"
                )
            self._by_key[key] = op
        self._sort_cache = {}
        self._cast_index = None

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.non_core == other.non_core

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


def fold_term(t: Term, cache: dict, leaf, combine, context):
    """The value of ``t``, computed children first with an explicit stack.

    ``leaf(context, v)`` is the value of a variable and ``combine(context,
    node, values)`` that of an application, given its children's values
    in order.  Applications, ground or not, are read from ``cache`` when
    present and stored there, so a subterm shared within ``t``, or met
    again in a later call, is computed once.  Nodes are combined in the
    order a recursive left-to-right pass would visit them, so a raised
    error names the same subterm.  A node over cached children is one
    ``combine`` and no stack.
    """
    if type(t) is Var:
        return leaf(context, t)
    hit = cache.get(t)
    if hit is not None:
        return hit
    children = tuple([cache.get(a) for a in t.args])
    if None not in children:
        hit = cache[t] = combine(context, t, children)
        return hit
    values: list = []
    # A node to visit, or a 1-tuple holding a node whose children's values
    # are the last ones on ``values``.
    stack: list = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node = node[0]
            n = len(node.args)
            value = combine(context, node, tuple(values[len(values) - n:]))
            del values[len(values) - n:]
            cache[node] = value
            values.append(value)
        elif type(node) is Var:
            values.append(leaf(context, node))
        elif node in cache:
            values.append(cache[node])
        else:
            stack.append((node,))
            stack += reversed(node.args)
    return values[0]


def _sorts_of_os(sig: OSSignature, t: Term) -> frozenset[Sort]:
    return fold_term(t, sig._sorts_cache, _var_sort_set, _sort_set, sig)


def _var_sort_set(sig: OSSignature, v: Var) -> frozenset[Sort]:
    return sig.poset.supersorts(v.sort) if v.sort in sig.sorts else frozenset()


def _sort_set(sig: OSSignature, t: Term, child_sets: tuple) -> frozenset[Sort]:
    """Every sort of ``t``, given the sort sets of its children."""
    acc: set[Sort] = set()
    for op in sig.ops_named(t.constructor):
        if op.arity == len(child_sets) and all(
                s in cs for s, cs in zip(op.arg_sorts, child_sets)):
            acc |= sig.poset.supersorts(op.target_sort)
    return frozenset(acc)


def _sorts_of_ms(sig: MSSignature, t: Term) -> frozenset[Sort]:
    s = _ms_sort_opt(sig, t)
    return frozenset() if s is None else frozenset((s,))


def _ms_sort_opt(sig: MSSignature, t: Term) -> Sort | None:
    # An ill-formed term is cached as "", so no shared subterm is walked twice.
    return fold_term(t, sig._sort_cache, _ms_var_sort, _ms_sort_at, sig) or None


def _ms_var_sort(sig: MSSignature, v: Var) -> Sort:
    return v.sort if v.sort in sig.sorts else ""


def _ms_sort_at(sig: MSSignature, t: Term, child_sorts: tuple) -> Sort:
    if "" in child_sorts:
        return ""
    op = sig.lookup(t.constructor, child_sorts)
    return "" if op is None else op.target_sort


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
    A cached sort is returned as it is, and a node over children with
    cached sorts takes one ``_least_at`` lookup, both without a
    ``fold_term`` pass; any other term takes one bottom-up pass.
    """
    cache = sig._least_cache
    hit = cache.get(t)
    if hit is not None:
        return hit
    if type(t) is not Var:
        sorts = tuple([cache.get(a) for a in t.args])
        if None not in sorts:
            hit = cache[t] = _least_at(sig, t, sorts)
            return hit
    return fold_term(t, cache, _var_sort, _least_at, sig)


def _var_sort(sig: OSSignature, v: Var) -> Sort:
    if v.sort not in sig.sorts:
        raise UnknownSort(f"unknown sort {v.sort!r}")
    return v.sort


def _least_at(sig: OSSignature, t: Term, child_sorts: tuple[Sort, ...]) -> Sort:
    """Least sort of ``t`` given the least sorts of its children."""
    key = (t.constructor, child_sorts)
    hit = sig._least_at_cache.get(key)
    if hit is not None:
        return hit
    leq = sig.poset.leq
    targets = [op.target_sort for op in sig.admitting(*key)]
    if not targets:
        raise IllFormedTerm(
            f"no operator admits {print_term(t)} (children sorted {child_sorts})"
        )
    for cand in targets:
        if all(leq(cand, other) for other in targets):
            sig._least_at_cache[key] = cand
            return cand
    raise AmbiguousSort(
        f"term {print_term(t)} has incomparable candidate sorts {sorted(set(targets))}"
    )


def inhabits(sig: OSSignature, t: Term, sort: Sort) -> bool:
    """Whether the order-sorted term ``t`` has sort ``sort``.

    That is, whether its least sort lies at or below ``sort``.  A term
    over a signature that is not preregular may have no least sort; its
    sort set decides then.  An ill-formed term raises ``IllFormedTerm``.
    """
    try:
        return sig.poset.leq(least_sort(sig, t), sort)
    except AmbiguousSort:
        return sort in sorts_of(sig, t)


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
    Variables are checked left to right (``fold_term``).
    """
    return fold_term(p, {}, _image, _instance, (sig, h))


def _image(context, v: Var) -> GroundTerm:
    sig, h = context
    image = h.get(v.name)
    if image is None:
        raise UnboundVariable(f"variable {v.name} has no binding")
    if isinstance(sig, OSSignature):
        ok = inhabits(sig, image, v.sort)
    else:
        ok = ms_sort(sig, image) == v.sort
    if not ok:
        raise SortViolation(
            f"binding {v.name} = {print_term(image)} does not fit sort {v.sort!r}"
        )
    return image


def _instance(context, p: Pattern, args: tuple) -> GroundTerm:
    return GroundTerm(p.constructor, args)


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


def side_facts(sig: Signature, p: Pattern) -> tuple[dict[str, Sort], Sort | AmbiguousSort | None]:
    """A statement side's variables (shared: do not change them) and sort.

    The sort is the least or the one sort, None when the side is
    ill-formed, or the ``AmbiguousSort`` of a well-formed order-sorted
    side with no least sort.  Raises ``InconsistentAnnotation`` like
    ``variables_of``.  Worked out once per signature and kept by side.
    """
    hit = sig._sides.get(p)
    if hit is None:
        variables = variables_of(p)
        if isinstance(sig, MSSignature):
            sort = _ms_sort_opt(sig, p)
        else:
            # A side whose least sort fails below any ambiguity has an
            # empty sort set: no operator admits the failing node.
            try:
                sort = least_sort(sig, p)
            except AmbiguousSort as exc:
                sort = exc if _sorts_of_os(sig, p) else None
            except (IllFormedTerm, UnknownSort):
                sort = None
        hit = sig._sides[p] = (variables, sort)
    return hit


def _check_statement(sig: Signature, statement, what: str, same_sort: bool = False) -> None:
    """Check a statement's variables, sides and, for a rule, shape; with
    ``same_sort``, that its sides have one sort."""
    lhs, rhs = statement.lhs, statement.rhs
    seen, lhs_sort = side_facts(sig, lhs)
    rhs_vars, rhs_sort = side_facts(sig, rhs)
    for name, sort in rhs_vars.items():
        if seen.get(name, sort) != sort:
            raise InconsistentAnnotation(
                f"variable {name} annotated {seen[name]!r} and {sort!r} across the {what}"
            )
    for side, sort, label in ((lhs, lhs_sort, "left"), (rhs, rhs_sort, "right")):
        if sort is None:
            raise IllFormedTerm(f"{label} side of {what} is ill-formed: {print_term(side)}")
    if what == "rule":
        if isinstance(lhs, Var):
            raise IllFormedTerm(f"rule left side must start with a constructor: {print_term(lhs)}")
        extra = set(rhs_vars) - set(seen)
        if extra:
            raise IllFormedTerm(f"rule right side introduces unbound variables {sorted(extra)}")
    if same_sort and lhs_sort != rhs_sort:
        raise IllFormedTerm(f"{what} sides have different sorts: {statement!r}")


class _Algebra:
    """A signature with its equations and rules, each kept once in order."""

    __slots__ = (
        "signature", "equations", "rules",
        # ``rewrite.RedexIndex`` over the rules and the usable equation
        # directions, built on first use.
        "_rule_index", "_equation_index",
    )

    def __init__(self, signature, equations, rules):
        self.signature = signature
        self.equations = tuple(dict.fromkeys(equations))
        self.rules = tuple(dict.fromkeys(rules))
        self._rule_index = None
        self._equation_index = None

    def _check_statements(self, same_sort: bool) -> None:
        for statements, what in ((self.equations, "equation"), (self.rules, "rule")):
            for st in statements:
                _check_statement(self.signature, st, what, same_sort)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.signature == other.signature
            and frozenset(self.equations) == frozenset(other.equations)
            and frozenset(self.rules) == frozenset(other.rules)
        )


class OSAlgebra(_Algebra):
    """Order-sorted signature plus its equations and rewrite rules."""

    __slots__ = (
        # The ``validity.ValidityReport``, filled by ``validate_algebra``; the
        # signature and statements never change, so it cannot go stale.
        "_validity",
    )

    def __init__(self, signature, equations=(), rules=()):
        super().__init__(signature, equations, rules)
        self._validity = None
        self._check_statements(same_sort=False)


class MSAlgebra(_Algebra):
    """Many-sorted signature plus equations (core ones flagged) and rules."""

    __slots__ = ("core_equations",)

    def __init__(self, signature, equations=(), rules=(), core_equations=()):
        super().__init__(signature, equations, rules)
        self.core_equations = frozenset(core_equations)
        if not self.core_equations <= set(self.equations):
            raise InvalidSignature("core equations must be a subset of the equations")
        self._check_statements(same_sort=True)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.core_equations == other.core_equations


Algebra = Union[OSAlgebra, MSAlgebra]
