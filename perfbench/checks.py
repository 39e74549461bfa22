"""Output checks that do not trust the code under test.

Each check compares a repetition's outputs with numbers fixed outside
the program: constants recorded at the seed commit, the recorded term
pool, or counts taken from the generated spec text.  A check returns the
number of items a repetition attempted and one message per failed item.
"""

from __future__ import annotations

import re

_ID = r"[A-Za-z0-9_]+"
# A core equation equates two cast chains over one variable.
_CHAIN = re.compile(rf"^((?:Cast_{_ID}\()+)({_ID}:{_ID})\)+$")


def check_bisim(outputs: dict, expect: dict) -> tuple[int, list[str]]:
    """The exit code and the counts equal the recorded ones (one item)."""
    wrong = [
        f"{key}: got {outputs.get(key)!r}, want {want!r}"
        for key, want in expect.items()
        if outputs.get(key) != want
    ]
    return 1, ["bisim_imp: " + "; ".join(wrong)] if wrong else []


def check_rewrite(outputs: dict, expect: dict) -> tuple[int, list[str]]:
    """Per-term step counts and class sizes equal the recorded pool.

    Each term counts as two items, its order-sorted and its many-sorted
    side.
    """
    items, wanted = outputs["items"], expect["terms"]
    attempted = 2 * len(wanted)
    if [i["term"] for i in items] != [w["term"] for w in wanted]:
        return attempted, ["rewrite_eclass: ran other terms than the sample"] * attempted
    failures = []
    for got, want in zip(items, wanted):
        for side in ("os", "ms"):
            for key in (f"{side}_steps", f"{side}_class"):
                if got[key] != want[key]:
                    failures.append(
                        f"rewrite {want['term']} {key}: got {got[key]}, want {want[key]}"
                    )
                    break
    return attempted, failures


def read_msa(text: str) -> dict:
    """Sorts, cast profiles, equations and rule count of ``.msa`` text."""
    sorts: list[str] = []
    casts: dict[str, tuple[str, ...]] = {}
    equations: list[tuple[str, str]] = []
    rules = 0
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "sorts":
            sorts.extend(words[1:])
        elif words[0] == "op" and words[1].startswith("Cast_"):
            casts[words[1]] = tuple(w for w in words[3:] if w != "->")
        elif words[0] == "eq":
            lhs, _, rhs = line[3:].partition(" = ")
            equations.append((lhs.strip(), rhs.strip()))
        elif words[0] == "rule":
            rules += 1
    return {"sorts": sorts, "casts": casts, "equations": equations, "rules": rules}


def is_core_equation(lhs: str, rhs: str) -> bool:
    a, b = _CHAIN.match(lhs), _CHAIN.match(rhs)
    return bool(a and b and a.group(2) == b.group(2))


def check_spec(outputs: dict, expect: dict) -> tuple[int, list[str]]:
    """The paper's invariants hold for the printed translation (one item).

    The sort set is unchanged, the rule count is unchanged, there is one
    cast per declared subsort pair, the equations grow by exactly one
    core equation per copy (one diamond each), and the core equations
    number fewer than the square of the sort count.
    """
    msa = read_msa(outputs["msa"])
    copies = expect["copies"]
    want_casts = {f"Cast_{lo}_to_{hi}": (lo, hi) for lo, hi in expect["subsort_pairs"]}
    core = sum(is_core_equation(lhs, rhs) for lhs, rhs in msa["equations"])
    problems = {
        "not translatable": not outputs["translatable"],
        "reparsed .msa differs from the translation": not outputs["reparsed_equal"],
        "sort set changed": sorted(msa["sorts"]) != expect["sorts"],
        "rule count changed": msa["rules"] != expect["rules"],
        "casts are not one per subsort pair": msa["casts"] != want_casts,
        f"equations did not grow by exactly {copies}":
            len(msa["equations"]) != expect["equations"] + copies,
        f"core equations are not {copies}": core != copies,
        "core equations not below sorts squared": core >= len(expect["sorts"]) ** 2,
        f"diamonds are not {copies}": outputs["diamonds"] != copies,
    }
    failed = [name for name, bad in problems.items() if bad]
    return 1, ["spec_wide: " + "; ".join(failed)] if failed else []


def items_per_repetition(workload: str, expect: dict) -> int:
    """Items one repetition attempts: all of them fail when it crashes."""
    return 2 * len(expect["terms"]) if workload == "rewrite_eclass" else 1


CHECKS = {
    "bisim_imp": check_bisim,
    "rewrite_eclass": check_rewrite,
    "spec_wide": check_spec,
}
