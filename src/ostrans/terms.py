"""Sorts, operators, signatures, terms and the two algebra containers.

Ground terms, pattern nodes and variables are hash-consed: building the
same tree twice yields the same object, so equality is identity and any
term or statement side keys a dictionary in constant time.  Nodes are
pooled by constructor, then by argument tuple, so a node's own ``args``
is its only key and no per-node key tuple is kept.
A many-sorted signature is an order-sorted one whose subsort order is the
identity, so one least-sort computation serves both kinds.  Caches, each
a declared slot of its holder, make the per-term operations amortized
constant time: both signature kinds hold sort sets, least sorts and
statement-side facts, a many-sorted one its cast table, an algebra its
redex indexes.  None changes equality or observable behaviour.
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
from .poset import SortPoset, build_poset

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


def _intern(cls, constructor: str, args: tuple = ()):
    """The ``cls`` node ``constructor(*args)``, from ``cls._pool`` or new.

    The one interning body: ``_Interned.__new__``, so ``GroundTerm(c,
    args)`` is one Python frame, and what the per-node builders (redex
    composition, translation, enumeration) call directly, skipping the
    class call.
    """
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


class _Interned:
    """Constructor application, interned per subclass (``_intern``).

    Structural equality coincides with ``is``, so the default identity
    hash keys every term dictionary.  Each subclass keeps its own
    ``_pool``, a ``_Pool``: a pattern node never equals a ground term.
    """

    __slots__ = ("constructor", "args")
    _pool: _Pool
    __new__ = _intern

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
    """Sorts, operators and a subsort order, with the parts both kinds share."""

    __slots__ = (
        "sorts", "operators", "poset", "_by_ctor",
        # ``side_facts`` of statement sides, by side.
        "_sides",
        # Sort sets and least sorts, by term.
        "_sorts_cache", "_least_cache",
        # Least sorts by constructor and child sorts (``_least_at``);
        # failures are not stored, so they raise again on every call.
        "_least_at_cache",
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
        self._sorts_cache = {}
        self._least_cache = {}
        self._least_at_cache = {}

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
        "subsort_pairs",
        # Overloads by constructor, arity and the component of the first
        # argument sort: a child sort can only lie below sorts of its own
        # component, so the other buckets never admit it.
        "_component", "_by_shape",
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
    """Many-sorted signature, ordered by identity; ``non_core`` flags the casts."""

    __slots__ = (
        "non_core", "_by_key",
        # The signature's ``translate.CastTable``: the translation's own table
        # for a translated signature, otherwise built on first use.
        "_cast_index",
    )

    def __init__(self, sorts, operators, non_core=()):
        super().__init__(sorts, operators)
        # The identity order, with no closure pass to build.
        self.poset = SortPoset(self.sorts, frozenset(), {s: frozenset((s,)) for s in self.sorts},
                               dict.fromkeys(self.sorts, ()))
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
        # Each least sort is known up front: the target of the one operator.
        self._least_at_cache = {key: op.target_sort for key, op in self._by_key.items()}
        self._cast_index = None

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.non_core == other.non_core

    def lookup(self, constructor: str, arg_sorts: tuple[Sort, ...]) -> Operator | None:
        return self._by_key.get((constructor, arg_sorts))

    def admitting(self, constructor: str, child_sorts: tuple[Sort, ...]) -> tuple[Operator, ...]:
        """The operator ``constructor : child_sorts -> s``, if declared, as a 1-tuple."""
        op = self._by_key.get((constructor, child_sorts))
        return () if op is None else (op,)


Signature = Union[OSSignature, MSSignature]


# --- sort computation ------------------------------------------------------

def sorts_of(sig: Signature, t: Term) -> frozenset[Sort]:
    """Every sort the term inhabits; empty when the term is ill-formed.

    A term of least sort ``s`` inhabits every supersort of ``s``; under a
    many-sorted signature, whose order is the identity, that is ``s``
    alone.  Variables contribute their declared sort.  Total: never raises.
    """
    return fold_term(t, sig._sorts_cache, _var_sort_set, _sort_set, sig)


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


def _var_sort_set(sig: Signature, v: Var) -> frozenset[Sort]:
    return sig.poset.supersorts(v.sort) if v.sort in sig.sorts else frozenset()


def _sort_set(sig: Signature, t: Term, child_sets: tuple) -> frozenset[Sort]:
    """Every sort of ``t``, given the sort sets of its children."""
    acc: set[Sort] = set()
    for op in sig.ops_named(t.constructor):
        if op.arity == len(child_sets) and all(
                s in cs for s, cs in zip(op.arg_sorts, child_sets)):
            acc |= sig.poset.supersorts(op.target_sort)
    return frozenset(acc)


def ms_sort(sig: MSSignature, t: Term) -> Sort:
    """The one sort of a many-sorted term: its least sort (``least_sort``)."""
    return least_sort(sig, t)


def well_formed_ground(sig: Signature, t: Term) -> bool:
    """Membership of ``t`` in the ground term algebra of ``sig``."""
    return bool(sorts_of(sig, t))


def least_sort(sig: Signature, t: Term) -> Sort:
    """Least sort of a term; under a many-sorted signature, its one sort.

    Variables are taken at their declared sort, so this also computes the
    sort of a pattern; an undeclared one raises ``UnknownSort``.  Raises
    ``IllFormedTerm`` when no operator admits the children and
    ``AmbiguousSort`` when the admitting operators have no common least
    target (order-sorted input outside the strictly sensible fragment).
    One ``fold_term`` over ``sig._least_cache``: a cached sort is read
    off it, and a node over children with cached sorts is one
    ``_least_at`` lookup.
    """
    return fold_term(t, sig._least_cache, _var_sort, _least_at, sig)


def _var_sort(sig: Signature, v: Var) -> Sort:
    if v.sort not in sig.sorts:
        raise UnknownSort(f"unknown sort {v.sort!r}")
    return v.sort


def _least_at(sig: Signature, t: Term, child_sorts: tuple[Sort, ...]) -> Sort:
    """Least sort of ``t`` given the least sorts of its children.

    A lone admitting operator needs no ``leq`` test.  A many-sorted
    signature starts with every well-formed key cached.
    """
    key = (t.constructor, child_sorts)
    hit = sig._least_at_cache.get(key)
    if hit is not None:
        return hit
    admitting = sig.admitting(*key)
    if len(admitting) == 1:
        hit = sig._least_at_cache[key] = admitting[0].target_sort
        return hit
    if not admitting:
        raise IllFormedTerm(
            f"no operator admits {print_term(t)} (children sorted {child_sorts})"
        )
    leq = sig.poset.leq
    targets = [op.target_sort for op in admitting]
    for cand in targets:
        if all(leq(cand, other) for other in targets):
            sig._least_at_cache[key] = cand
            return cand
    raise AmbiguousSort(
        f"term {print_term(t)} has incomparable candidate sorts {sorted(set(targets))}"
    )


def inhabits(sig: Signature, t: Term, sort: Sort) -> bool:
    """Whether ``t`` has sort ``sort``: its least sort lies at or below it.

    Under a many-sorted signature that is its one sort being ``sort``.
    A term over a signature that is not preregular may have no least
    sort; its sort set decides then.  An ill-formed term raises
    ``IllFormedTerm``, and a ``sort`` not declared ``UnknownSort``.
    """
    try:
        return sig.poset.leq(least_sort(sig, t), sort)
    except AmbiguousSort:
        return sort in sorts_of(sig, t)


def term_sort(sig: Signature, t: Term) -> Sort:
    """The least sort (``least_sort``), under either signature kind."""
    return least_sort(sig, t)


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

    An image must have the declared variable sort (``inhabits``): under
    a many-sorted signature, exactly that sort.
    Variables are checked left to right (``fold_term``).
    """
    return fold_term(p, {}, _image, _instance, (sig, h))


def _image(context, v: Var) -> GroundTerm:
    sig, h = context
    image = h.get(v.name)
    if image is None:
        raise UnboundVariable(f"variable {v.name} has no binding")
    if not inhabits(sig, image, v.sort):
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
        # A side whose least sort fails below any ambiguity has an
        # empty sort set: no operator admits the failing node.
        try:
            sort = least_sort(sig, p)
        except AmbiguousSort as exc:
            sort = exc if sorts_of(sig, p) else None
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
