"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same text.  The generators work on the spec text with their own small
line-level reader, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "ostrans" / "fixtures"
POOL = Path(__file__).resolve().parent / "data" / "rewrite_pool.json"

WORKLOADS = ("bisim_imp", "rewrite_eclass", "spec_wide")

# rewrite_eclass: terms per repetition and the fixed class budget.
REWRITE_TERMS = 12
REWRITE_EQ_DEPTH = 5
REWRITE_EQ_MAX = 200
# spec_wide: renamed copies of imp_real.osa.
WIDE_COPIES = 24

_WORD = re.compile(r"[A-Za-z0-9_]+")


def declarations(text: str) -> tuple[str, list[str]]:
    """The algebra name and one string per declaration.

    Comments and blank lines are dropped; a ``subsorts`` line is split
    into one declaration per pair, so pairs shuffle independently.
    """
    name = None
    decls: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "algebra":
            name = rest.strip()
        elif head == "subsorts":
            decls.extend(f"subsorts {pair.strip()}" for pair in rest.split(";"))
        else:
            decls.append(line)
    if name is None:
        raise ValueError("spec text has no 'algebra' header")
    return name, decls


def shuffled_spec(name: str, decls: list[str], seed: int) -> str:
    """Spec text with the declarations in a seeded order.

    The elaborator reads sorts first, then subsorts and operators, then
    equations and rules, so any order of whole declarations is valid.
    """
    order = list(decls)
    random.Random(seed).shuffle(order)
    return "\n".join([f"algebra {name}", *order]) + "\n"


def imp_spec(seed: int) -> str:
    """``imp.osa`` with its declarations in a seeded order."""
    name, decls = declarations((FIXTURES / "imp.osa").read_text(encoding="utf-8"))
    return shuffled_spec(name, decls, seed)


def _renamer(decls: list[str]):
    """Suffix every sort and constant; keep other constructor names."""
    sorts: set[str] = set()
    constants: set[str] = set()
    for d in decls:
        words = d.split()
        if words[0] == "sorts":
            sorts.update(words[1:])
        elif words[0] == "op" and words[2:4] == [":", "->"]:
            constants.add(words[1])
    renamed = sorts | constants

    def rename(decl: str, suffix: str) -> str:
        return _WORD.sub(
            lambda m: m.group(0) + suffix if m.group(0) in renamed else m.group(0),
            decl,
        )

    return rename


def wide_spec(seed: int, copies: int = WIDE_COPIES) -> tuple[str, dict]:
    """``copies`` renamed copies of ``imp_real.osa`` in one seeded spec.

    Sorts and constants get a ``_<i>`` suffix; the other constructors keep
    their names, so every copy overloads them once more.  Returns the
    text and the counts the round trip must preserve.
    """
    _, decls = declarations((FIXTURES / "imp_real.osa").read_text(encoding="utf-8"))
    rename = _renamer(decls)
    wide = [rename(d, f"_{i}") for i in range(copies) for d in decls]
    kinds = [d.split(" ", 1)[0] for d in wide]
    sorts = sorted(w for d in wide if d.startswith("sorts ") for w in d.split()[1:])
    pairs = sorted(
        [lo, hi]
        for lo, _, hi in (d.split()[1:] for d in wide if d.startswith("subsorts "))
    )
    expect = {
        "copies": copies,
        "sorts": sorts,
        "subsort_pairs": pairs,
        "operators": kinds.count("op"),
        "equations": kinds.count("eq"),
        "rules": kinds.count("rule"),
    }
    return shuffled_spec("WIDE", wide, seed), expect


def rewrite_terms(seed: int, count: int = REWRITE_TERMS) -> list[dict]:
    """A seeded stratified sample of the recorded IMP term pool.

    The pool is ordered by recorded step count and cut into ``count``
    equal strata; the seed draws one term from each.  Every sample then
    spans the same range of per-term cost, so the seed changes which
    terms run, not how much work a repetition holds.
    """
    pool = json.loads(POOL.read_text(encoding="utf-8"))["terms"]
    pool.sort(key=lambda e: (e["ms_steps"], e["os_steps"], e["term"]))
    size = len(pool) // count
    rng = random.Random(seed)
    return [rng.choice(pool[i * size:(i + 1) * size]) for i in range(count)]


def make_input(workload: str, seed: int) -> tuple[str, dict]:
    """The text a repetition reads on stdin, and what its output must be."""
    if workload == "bisim_imp":
        return imp_spec(seed), {
            "exit_code": 0,
            "terms": 27_422, "steps": 42_535, "forward_failures": 0,
            "backward_failures": 0, "skipped": 0, "not_in_image": 13,
            "truncated": False,
        }
    if workload == "rewrite_eclass":
        sample = rewrite_terms(seed)
        payload = {
            "spec": (FIXTURES / "imp.osa").read_text(encoding="utf-8"),
            "terms": [entry["term"] for entry in sample],
            "eclass_depth": REWRITE_EQ_DEPTH,
            "eclass_max": REWRITE_EQ_MAX,
        }
        return json.dumps(payload), {"terms": sample}
    if workload == "spec_wide":
        return wide_spec(seed)
    raise ValueError(f"unknown workload {workload!r}")
