"""Spec texts for the spec-layer tests, and the outcomes of parsing them.

``wide_spec`` is the benchmark's ``spec_wide`` input, read from
``perfbench/workloads.py``.  ``mutated_specs`` derives seeded broken
variants of ``imp.osa`` and of its printed translation: characters
dropped or inserted, words swapped, lines dropped, doubled or swapped,
texts cut short.  ``outcome`` is one line naming what ``parse_spec``
made of a text: the error type, line, column and a digest of the
message, or a digest of the printed algebra.

``tests/data/spec_mutation_outcomes.txt`` records those lines for
``MUTATIONS`` variants.  Regenerate it, when a diagnostic changes on
purpose, with ``PYTHONPATH=src python3 tests/spec_inputs.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import re
from importlib import resources
from pathlib import Path

from ostrans import parse_spec, print_spec, translate_algebra

ROOT = Path(__file__).resolve().parent.parent
OUTCOMES = Path(__file__).resolve().parent / "data" / "spec_mutation_outcomes.txt"
MUTATIONS = 2_000
# Inserted characters: identifier and punctuation characters, comment
# and line breaks, and characters no token may hold.
_INSERTS = "aZ0_+-*/!?@$%^&~|.=<>(),:;#  \t\n\r'\"[{\x0cé"
_WORD = re.compile(r"[A-Za-z0-9_]+|[+\-*/!?@$%^&~|.]+")


def wide_spec(seed: int, copies: int = 24) -> str:
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.wide_spec(seed, copies)[0]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(7)
        lines = text.split("\n")
        if kind == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif kind == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif kind == 2 and _WORD.search(text):
            words = list(_WORD.finditer(text))
            word, other = rng.choice(words), rng.choice(words).group(0)
            text = text[:word.start()] + other + text[word.end():]
        elif kind == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif kind == 4:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        elif kind == 5:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            text = text[:rng.randrange(len(text) + 1)]
    return text


def mutated_specs(count: int = MUTATIONS, seed: int = 7):
    """``(text, kind)`` for ``count`` variants; every fourth is many-sorted."""
    imp = (resources.files("ostrans") / "fixtures" / "imp.osa").read_text(encoding="utf-8")
    msa = print_spec(translate_algebra(parse_spec(imp))[0])
    rng = random.Random(seed)
    for k in range(count):
        kind = "msa" if k % 4 == 3 else "osa"
        yield _mutate(msa if kind == "msa" else imp, rng), kind


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def outcome(text: str, kind: str) -> str:
    try:
        alg = parse_spec(text, kind)
    except Exception as exc:  # the diagnostic is the behaviour recorded
        where = f"{exc.line} {exc.col}" if hasattr(exc, "line") else "- -"
        return f"{type(exc).__name__} {where} {_digest(str(exc))}"
    return f"ok {_digest(print_spec(alg))}"


if __name__ == "__main__":
    OUTCOMES.parent.mkdir(exist_ok=True)
    OUTCOMES.write_text("".join(outcome(*s) + "\n" for s in mutated_specs()), encoding="utf-8")
