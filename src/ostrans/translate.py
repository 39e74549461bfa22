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

from dataclasses import dataclass, field

from .errors import (
    IllFormedTerm,
    NoPath,
    NotStrictlySensible,
    RenameCollision,
    UntranslatableSort,
)
from .poset import TIE_BREAKS, SortPoset, build_poset, compute_canonical_paths
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
    _intern,
    cast_name,
    fold_term,
    is_reserved_name,
    least_sort,
    print_term,
)
from .validity import ValidityReport, validate_algebra


# --- cast bookkeeping -------------------------------------------------------

class CastTable:
    """Cast operators by sort pair, canonical chains, normal forms.

    ``pairs`` names the cast of each declared subsort pair of ``poset``;
    ``tie_break`` (one of ``poset.TIE_BREAKS``) picks the canonical chain
    of each related pair, kept in ``canonical_path_of``.  A translation
    builds one table, which its map and its many-sorted signature share,
    so both canonicalize along the same chains.
    """

    __slots__ = ("name_of", "pair_of", "poset", "canonical_path_of",
                 # Whether no two cast chains join the same pair of sorts.
                 "single_chain",
                 # Normal forms by term; each normal form maps to itself.
                 "_canon_cache")

    def __init__(self, pairs: dict[tuple[Sort, Sort], str], poset: SortPoset, tie_break: str):
        self.name_of = dict(pairs)
        self.pair_of = {name: pair for pair, name in pairs.items()}
        self.poset = poset
        self.canonical_path_of = compute_canonical_paths(poset, tie_break)
        self.single_chain = poset.single_chain()
        self._canon_cache: dict[Term, Term] = {}

    def is_cast(self, name: str) -> bool:
        return name in self.pair_of

    def leq(self, a: Sort, b: Sort) -> bool:
        return self.poset.leq(a, b)

    def canonical_path(self, lo: Sort, hi: Sort) -> tuple[Sort, ...]:
        try:
            return self.canonical_path_of[(lo, hi)]
        except KeyError:
            raise NoPath(f"no cast chain from {lo!r} to {hi!r}") from None

    def wrap_along(self, t: Term, path: tuple[Sort, ...]) -> Term:
        """Wrap ``t`` in the cast chain along ``path``, bottom first."""
        cls = PNode if type(t) is Var else type(t)
        for a, b in zip(path, path[1:]):
            t = cls(self.name_of[(a, b)], (t,))
        return t

    def wrap_canonical(self, t: Term, lo: Sort, hi: Sort) -> Term:
        """Wrap ``t`` in the canonical cast chain from ``lo`` up to ``hi``."""
        if lo == hi:
            return t
        return self.wrap_along(t, self.canonical_path(lo, hi))

    def canonical(self, t: Term) -> Term:
        """Rewrite every maximal cast chain of ``t`` to its canonical chain.

        The output is the core-equality normal form: two terms are
        core-equal exactly when their canonical forms are identical.
        Idempotent; works on patterns as well as ground terms.

        Under a ``single_chain`` table, as for ``imp.osa``, the only
        chain between two sorts is the canonical one, so every
        well-formed term is its own normal form: it is returned as it is
        and nothing is recorded.  Otherwise, one ``fold_term`` over
        ``_canon_cache`` (``_canonical_node``), which records each normal
        form as a fixpoint (it maps to itself), so a node over recorded
        fixpoints is one ``combine`` and no stack.
        """
        if self.single_chain:
            return t
        return fold_term(t, self._canon_cache, _itself, _canonical_node, self)


def _itself(context, v: Var) -> Var:
    return v


def _canonical_node(table: CastTable, t: Term, args: tuple) -> Term:
    """The normal form of ``t``, given those of its arguments.

    A node whose head is not a cast is rebuilt over ``args``, or is
    ``t`` itself when they are its own arguments.  A cast over a normal
    form, itself a canonical chain from ``bottom`` over ``core``, becomes
    the canonical chain from ``bottom`` up to the cast's target.
    """
    pair = table.pair_of.get(t.constructor)
    if pair is None:
        if args == t.args:
            return t
        out = type(t)(t.constructor, args)
    else:
        bottom, hi = pair
        core = args[0]
        while type(core) is not Var and core.constructor in table.pair_of:
            bottom = table.pair_of[core.constructor][0]
            core = core.args[0]
        out = table.wrap_canonical(core, bottom, hi)
    table._canon_cache[out] = out
    return out


@dataclass(slots=True)
class TranslationMap:
    """Audit record of one translation run; also drives term translation.

    ``table`` holds one cast per declared subsort pair of the source
    (``generate_cast_operators``) and one canonical chain per related
    sort pair, chosen by ``tie_break``; the translated signature shares it.
    """

    source: OSSignature
    tie_break: str
    representative_of: dict[Operator, Operator]
    rename_of: dict[Operator, str]
    original_name_of: dict[str, str] = field(init=False, repr=False)
    # The target sort of each representative, by its final name: the sort
    # of every translated application whose head carries that name.
    target_sort_of: dict[str, Sort] = field(init=False, repr=False)
    table: CastTable = field(init=False, repr=False, compare=False)
    # Translations of applications, by term; a translation's sort is read
    # off its head through ``target_sort_of``.
    _tr_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # One plan per (constructor, child least sorts), made by ``_plan``: the
    # representative's final name and argument sorts.
    _plans: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.original_name_of = {
            name: op.constructor for op, name in self.rename_of.items()
        }
        self.target_sort_of = {
            name: op.target_sort for op, name in self.rename_of.items()
        }
        casts = generate_cast_operators(self.source.poset)
        self.table = CastTable({pair: op.constructor for pair, op in casts.items()},
                               self.source.poset, self.tie_break)


def cast_table(source) -> CastTable:
    """The cast table of a translation map, many-sorted signature or algebra.

    A translated signature shares its map's table.  Any other signature,
    such as one read from a ``.msa`` file, carries no tie-break: on first
    use it gets a ``"lex"`` table over its casts (``non_core``).
    """
    if isinstance(source, TranslationMap):
        return source.table
    if isinstance(source, MSAlgebra):
        source = source.signature
    if not isinstance(source, MSSignature):
        raise TypeError(f"cannot derive a cast table from {type(source).__name__}")
    if source._cast_index is None:
        pairs = {(op.arg_sorts[0], op.target_sort): op.constructor for op in source.non_core}
        source._cast_index = CastTable(pairs, build_poset(source.sorts, pairs), "lex")
    return source._cast_index


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


def generate_cast_operators(poset: SortPoset) -> dict[tuple[Sort, Sort], Operator]:
    """One unary cast operator per declared subsort pair."""
    return {(lo, hi): Operator(cast_name(lo, hi), (lo,), hi)
            for lo, hi in sorted(poset.base_pairs)}


def translate_term(tm: TranslationMap, t: Term, expected: Sort | None = None) -> Term:
    """Translate one term or pattern bottom-up.

    Every node's constructor is replaced by its representative's final
    name; wherever a child's sort sits strictly below the sort the
    representative demands, the canonical cast chain bridges the gap.
    When ``expected`` is given the root is wrapped up to it as well.

    Unless the root already has a least sort, first checks the sorts of
    everything below it, so an ill-formed subterm is reported by
    ``least_sort``; a statement side that ``side_facts`` sorted needs no
    check.  Then one ``fold_term`` over ``tm._tr_cache``: a node whose
    children are translated is one ``_translate_node`` call.  The
    translation's sort is not stored: a variable carries its own, and an
    application's head names one representative, whose target sort
    ``target_sort_of`` gives.
    """
    if type(t) is not Var and t not in tm.source._least_cache:
        for a in t.args:
            least_sort(tm.source, a)
    out = fold_term(t, tm._tr_cache, _itself, _translate_node, tm)
    if expected is not None:
        sort = out.sort if type(out) is Var else tm.target_sort_of[out.constructor]
        if sort != expected:
            out = _lift(tm, t, out, sort, expected)
    return out


def _lift(tm: TranslationMap, t: Term, out: Term, sort: Sort, expected: Sort) -> Term:
    """Wrap ``out``, the translation of ``t`` at ``sort``, up to ``expected``."""
    if expected not in tm.source.poset.supersorts(sort):
        raise UntranslatableSort(
            f"cannot cast {print_term(t)} from {sort!r} up to {expected!r}"
        )
    return tm.table.wrap_canonical(out, sort, expected)


def _translate_node(tm: TranslationMap, t: Term, children) -> Term:
    """Translate the node ``t`` given its children's translations.

    In a strictly sensible algebra the operators admitting a node share
    one target sort, its representative's included, so a child's
    translated sort is its least sort: the plan key needs no sort pass,
    and translating a pattern sorts each node once.  The sorts are read
    inline, not through a helper, as this runs once per new node.  When
    they are the representative's argument sorts, no child needs a cast
    and ``children`` are the arguments as they are.
    """
    target_sort_of = tm.target_sort_of
    sorts = tuple([
        c.sort if type(c) is Var else target_sort_of[c.constructor] for c in children
    ])
    plan = _plan(tm, t.constructor, sorts)
    if plan is None:
        raise IllFormedTerm(f"no operator admits {print_term(t)}")
    name, arg_sorts = plan
    if sorts == arg_sorts:
        return _intern(type(t), name, children)
    args = tuple([
        out if sort == want else _lift(tm, a, out, sort, want)
        for a, out, sort, want in zip(t.args, children, sorts, arg_sorts)
    ])
    return _intern(type(t), name, args)


def _plan(tm: TranslationMap, constructor: str, sorts: tuple[Sort, ...]):
    """The plan of ``constructor`` over children translated at ``sorts``:
    its representative's final name and argument sorts, made on first
    use and kept in ``tm._plans``; ``None`` when no operator admits
    ``sorts``."""
    key = (constructor, sorts)
    plan = tm._plans.get(key)
    if plan is None:
        admitting = tm.source.admitting(constructor, sorts)
        if not admitting:
            return None
        rep = tm.representative_of[admitting[0]]
        plan = tm._plans[key] = (tm.rename_of[rep], rep.arg_sorts)
    return plan


def generate_core_equations(tm: TranslationMap) -> tuple[Equation, ...]:
    """Equations identifying distinct cast chains between the same sorts.

    For each related pair with several chains, the canonical chain is
    equated with one witness per diverging first edge; chains sharing a
    first edge are already identified by the equations of the shorter
    pair, because canonical paths compose tail-first.  This keeps the
    count below the square of the sort count while the congruence closure
    still equates every pair of chains.
    """
    table = tm.table
    poset = table.poset
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
            canon = table.canonical_path(bottom, top)
            var = Var("A", bottom)
            lhs = table.wrap_along(var, canon)
            for x in first_edges:
                if x == canon[1]:
                    continue
                via = (bottom, top) if x == top else (bottom,) + table.canonical_path(x, top)
                out.append(Equation(lhs, table.wrap_along(var, via)))
    return tuple(out)


def translate_equations(tm: TranslationMap, equations) -> tuple[Equation, ...]:
    """Translate user equations; both sides already share one sort."""
    return tuple(
        Equation(translate_term(tm, eq.lhs), translate_term(tm, eq.rhs))
        for eq in equations
    )


def translate_rules(tm: TranslationMap, rules) -> tuple[Rule, ...]:
    """Translate rules, casting each right side up to its left side's sort.

    A side's translated sort is its least sort, so the left side's
    translation gives the sort to cast to: the target sort its head names.
    """
    out = []
    for rule in rules:
        lhs = translate_term(tm, rule.lhs)
        lhs_sort = tm.target_sort_of[lhs.constructor]
        out.append(Rule(lhs, translate_term(tm, rule.rhs, expected=lhs_sort)))
    return tuple(out)


def translate_algebra(
    alg: OSAlgebra, tie_break: str = "lex"
) -> tuple[MSAlgebra, TranslationMap]:
    """Full pipeline from an order-sorted algebra to a many-sorted one.

    The sort set is unchanged, the subsort pairs become cast operators,
    equation indices are preserved with core equations appended, and the
    rule count is preserved exactly.  ``tie_break`` is one of
    ``TIE_BREAKS``; anything else raises ``ValueError`` before any work.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    report = validate_algebra(alg)
    if not report.translatable:
        raise NotStrictlySensible(
            "algebra fails translation preconditions: "
            + "; ".join(kind for kind, _ in report.violations)
        )
    reduced, reps = select_representatives(alg, report)
    renames = rename_constructors(reduced, taken=alg.signature.constructors)
    reserved = sorted(name for name in renames.values() if is_reserved_name(name))
    if reserved:
        raise RenameCollision(f"constructor {reserved[0]!r} is in the reserved cast naming scheme")
    tm = TranslationMap(alg.signature, tie_break, reps, renames)
    equations = translate_equations(tm, alg.equations) + generate_core_equations(tm)
    rules = translate_rules(tm, alg.rules)
    core_ops = [Operator(renames[op], op.arg_sorts, op.target_sort) for op in reduced]
    casts = generate_cast_operators(alg.signature.poset).values()
    signature = MSSignature(alg.signature.sorts, core_ops + list(casts))
    signature._cast_index = tm.table
    return MSAlgebra(signature, equations, rules), tm


def strip_casts(tm: TranslationMap, t: GroundTerm, cache: dict | None = None) -> GroundTerm:
    """Invert a translated ground term: drop casts, restore names.

    Every well-formed translated term strips to a well-formed source
    term; composition with ``translate_term`` recovers the original up
    to core equality.  One ``fold_term`` over ``cache``, a fresh dict
    unless a caller that strips many terms passes one, so a constructor
    that is not a translated name is reported children first, in postorder.
    """
    return fold_term(t, {} if cache is None else cache, _itself, _strip_node, tm)


def _strip_node(tm: TranslationMap, t: GroundTerm, args: tuple) -> GroundTerm:
    """A cast's argument's value; any other node renamed back over ``args``."""
    if tm.table.is_cast(t.constructor):
        return args[0]
    original = tm.original_name_of.get(t.constructor)
    if original is None:
        raise IllFormedTerm(f"constructor {t.constructor!r} is not a translated name")
    return GroundTerm(original, args)
