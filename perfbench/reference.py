"""A fixed pure-Python loop that measures the machine's current speed.

On shared hosts the speed of one CPU changes by up to 2x between regimes
that last from seconds to minutes, so raw seconds from two runs are not
comparable.  The harness times this loop before and after every
repetition and reports the repetition's times at reference speed (see
``run.py``).  The loop shares nothing with ``ostrans``: a change to the
program cannot change it.  Its work mirrors the program's kind of work:
hash-consed nodes in a dict, memoised recursion and sorting.
"""

from __future__ import annotations

import time

# The loop takes about one second on the machine the benchmark was tuned on.
ROUNDS = 480


class _Node:
    __slots__ = ("head", "args", "_hash")

    def __init__(self, head, args):
        self.head = head
        self.args = args
        self._hash = hash((head, args))

    def __hash__(self):
        return self._hash


def _loop(rounds: int) -> int:
    pool: dict = {}

    def node(head, args):
        key = (head, args)
        hit = pool.get(key)
        if hit is None:
            hit = pool[key] = _Node(head, args)
        return hit

    layer = [node(f"c{i}", ()) for i in range(6)]
    for _ in range(3):
        layer = [node(f"f{i % 3}", (a, b))
                 for i, a in enumerate(layer) for b in layer[:12]][:300]

    def size(n, memo):
        r = memo.get(n)
        if r is None:
            r = 1 + sum(size(a, memo) for a in n.args)
            memo[n] = r
        return r

    total = 0
    for _ in range(rounds):
        memo: dict = {}
        total += sum(size(n, memo) for n in layer)
        total += len(sorted(pool, key=lambda k: (len(k[1]), k[0])))
    return total


def reference_s(rounds: int = ROUNDS) -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    _loop(rounds)
    return time.perf_counter() - start
