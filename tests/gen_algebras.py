"""Seeded random posets and strictly sensible algebras for the test suite.

Everything here is built constructively so that most draws already pass
the translation preconditions; a retry loop plus a final validity check
guarantees it.  The generators take an explicit ``random.Random`` so runs
are reproducible.
"""

from __future__ import annotations

import random

from ostrans import (
    Equation,
    Operator,
    OSAlgebra,
    OSSignature,
    PNode,
    Rule,
    Var,
    argument_compatible,
    least_sort,
    validate_algebra,
)


def random_dag_pairs(rng: random.Random, max_sorts: int = 8):
    """Random sort names plus acyclic subsort pairs (not always unique-topped)."""
    n = rng.randint(1, max_sorts)
    names = [f"s{i}" for i in range(n)]
    density = rng.uniform(0.1, 0.6)
    pairs = {
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return names, pairs


def _unique_topped_pairs(rng: random.Random, max_sorts: int):
    from ostrans import build_poset

    for _ in range(200):
        names, pairs = random_dag_pairs(rng, max_sorts)
        poset = build_poset(names, pairs)
        if not poset.check_unique_tops():
            return names, pairs
    return [f"s{i}" for i in range(max_sorts)], set()


def random_algebra(rng: random.Random, max_sorts: int = 5, max_ops: int = 8,
                   max_eqs: int = 4, max_rules: int = 4,
                   commutative: bool = False) -> OSAlgebra:
    """One random strictly sensible, translatable order-sorted algebra.

    With ``commutative`` it also has a binary operator ``m`` on its first
    sort, declared commutative twice: ``m(X, Y) = m(Y, X)`` and the same
    equation over the variables ``A`` and ``B``.
    """
    for _ in range(100):
        alg = _try_algebra(rng, max_sorts, max_ops, max_eqs, max_rules, commutative)
        if alg is not None and validate_algebra(alg).translatable:
            return alg
    raise AssertionError("random algebra generation kept failing")


def _commutativity(op: Operator, x: str, y: str) -> Equation:
    s = op.arg_sorts[0]
    return Equation(PNode(op.constructor, (Var(x, s), Var(y, s))),
                    PNode(op.constructor, (Var(y, s), Var(x, s))))


def _try_algebra(rng, max_sorts, max_ops, max_eqs, max_rules, commutative=False):
    names, pairs = _unique_topped_pairs(rng, max_sorts)
    sig_probe = OSSignature(names, pairs, ())
    poset = sig_probe.poset

    operators: list[Operator] = []
    used_keys: set[tuple] = set()

    def add(op: Operator) -> bool:
        key = (op.constructor, op.arg_sorts)
        if key in used_keys:
            return False
        used_keys.add(key)
        operators.append(op)
        return True

    # Constants first so every run has inhabited sorts.
    n_constants = rng.randint(1, max(1, len(names) // 2 + 1))
    for i in range(n_constants):
        add(Operator(f"c{i}", (), rng.choice(names)))

    fresh = 0
    while len(operators) < rng.randint(len(operators), max_ops):
        roll = rng.random()
        nonconst = [op for op in operators if op.arity > 0]
        if nonconst and roll < 0.3:
            # Widen an existing operator group with a narrower overload.
            base = rng.choice(nonconst)
            args = tuple(
                rng.choice(sorted(
                    s for s in names if poset.leq(s, a)
                ))
                for a in base.arg_sorts
            )
            if args == base.arg_sorts:
                continue
            add(Operator(base.constructor, args, base.target_sort))
        elif nonconst and roll < 0.5:
            # Reuse a constructor across incomparable argument sorts, the
            # way one symbol can serve two unrelated overload groups.
            base = rng.choice(nonconst)
            position = rng.randrange(base.arity)
            unrelated = [
                s for s in names
                if not poset.common_supersort_exists(s, base.arg_sorts[position])
            ]
            if not unrelated:
                continue
            args = list(base.arg_sorts)
            args[position] = rng.choice(unrelated)
            add(Operator(base.constructor, tuple(args), rng.choice(names)))
        else:
            arity = rng.choice((1, 1, 2))
            args = tuple(rng.choice(names) for _ in range(arity))
            add(Operator(f"f{fresh}", args, rng.choice(names)))
            fresh += 1
    if commutative:
        add(Operator("m", (names[0], names[0]), names[0]))

    try:
        signature = OSSignature(names, pairs, operators)
    except Exception:
        return None

    def maximal_op(member: Operator) -> Operator:
        group = [
            op for op in signature.ops_named(member.constructor)
            if argument_compatible(poset, member, op)
        ]
        return max(group, key=lambda op: sum(
            1 for other in group
            for a, b in zip(other.arg_sorts, op.arg_sorts)
            if poset.leq(a, b)
        ))

    nonconstant = [op for op in operators if op.arity > 0]
    equations: list[Equation] = []
    if commutative:
        m = signature.ops_named("m")[0]
        equations += [_commutativity(m, "X", "Y"), _commutativity(m, "A", "B")]
    for _ in range(rng.randint(0, max_eqs)):
        if not nonconstant:
            break
        op = rng.choice(nonconstant)
        lhs_vars = tuple(Var(f"X{i}", s) for i, s in enumerate(op.arg_sorts))
        lhs = PNode(op.constructor, lhs_vars)
        kind = rng.random()
        if kind < 0.4 and op.arity == 2 and op.arg_sorts[0] == op.arg_sorts[1]:
            equations.append(_commutativity(op, "X0", "X1"))
        elif kind < 0.7:
            target = maximal_op(op).target_sort
            picks = [v for v in lhs_vars if v.sort == target]
            if picks:
                equations.append(Equation(lhs, picks[0]))
        elif op.arity == 1 and op.arg_sorts[0] == op.target_sort:
            equations.append(Equation(lhs, lhs_vars[0]))

    constants = [op for op in operators if op.arity == 0]
    rules: list[Rule] = []
    for _ in range(rng.randint(0, max_rules)):
        if not nonconstant:
            break
        op = rng.choice(nonconstant)
        lhs_args = []
        for i, s in enumerate(op.arg_sorts):
            inner = [
                g for g in nonconstant
                if poset.leq(maximal_op(g).target_sort, s)
            ]
            if inner and rng.random() < 0.4:
                # Nest one constructor level for deeper match coverage.
                g = rng.choice(inner)
                lhs_args.append(PNode(g.constructor, tuple(
                    Var(f"X{i}_{j}", gs) for j, gs in enumerate(g.arg_sorts)
                )))
            else:
                lhs_args.append(Var(f"X{i}", s))
        lhs = PNode(op.constructor, tuple(lhs_args))
        lhs_vars = [a for a in lhs_args if isinstance(a, Var)]
        target = maximal_op(op).target_sort
        kind = rng.random()
        if kind < 0.4:
            fits = [c for c in constants if poset.leq(c.target_sort, target)]
            if fits:
                rules.append(Rule(lhs, PNode(rng.choice(fits).constructor, ())))
        elif kind < 0.7:
            picks = [v for v in lhs_vars if poset.leq(v.sort, target)]
            if picks:
                rules.append(Rule(lhs, picks[0]))
        elif op.arity == 2 and op.arg_sorts[0] == op.arg_sorts[1] and len(lhs_vars) == 2:
            rules.append(Rule(lhs, PNode(op.constructor, (lhs_args[1], lhs_args[0]))))

    try:
        alg = OSAlgebra(signature, tuple(equations), tuple(rules))
        for eq in alg.equations:
            if least_sort(signature, eq.lhs) != least_sort(signature, eq.rhs):
                return None
        return alg
    except Exception:
        return None
