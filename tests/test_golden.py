"""Outputs that must not change: the CLI on both fixtures and the full
reports of three translated mutants, compared byte for byte with
``data/golden_outputs.txt``.

The file holds what ``_render()`` returned run on the code of commit
``b55e043``, before the redex memo became one ``fold_term``, written
once from the repository root with
``Path("tests/data/golden_outputs.txt").write_text(_render())``; no
refactor has touched it since.  A change that means to alter an output
rewrites the file the same way and says so.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

from ostrans import BisimConfig, MSAlgebra, check_backward, check_forward, parse_spec
from ostrans import print_term, translate_algebra
from ostrans.cli import main
from ostrans.rewrite import format_position
from test_bisim import _swap_right_sides_2_and_3

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.txt"
FIXTURES = ("imp.osa", "imp_real.osa")
TERM = "<=(v(0), +(-(0), v(s(0))))"


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return f"$ ostrans {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n"


MUTANTS = {
    "last rule dropped": lambda ms: MSAlgebra(ms.signature, ms.equations, ms.rules[:-1]),
    "right sides of rules 2 and 3 swapped": lambda ms: MSAlgebra(
        ms.signature, ms.equations, tuple(_swap_right_sides_2_and_3(list(ms.rules)))),
    "non-core equations dropped": lambda ms: MSAlgebra(
        ms.signature, tuple(eq for eq in ms.equations if eq in ms.core_equations), ms.rules),
}


def _mutant_report(alg, name: str) -> str:
    ms, tm = translate_algebra(alg)
    # A class budget of 500, not 10,000, skips the same 50 swapped-side
    # steps in a tenth of the time.
    mutant, cfg = MUTANTS[name](ms), BisimConfig(term_depth=2, eclass_max=500)
    r = check_forward(alg, mutant, tm, cfg).merge(check_backward(alg, mutant, tm, cfg))
    lines = [f"terms {r.terms_checked} steps {r.steps_checked} "
             f"forward {len(r.forward_failures)} backward {len(r.backward_failures)} "
             f"skipped {r.skipped_unexhausted} not-in-image {r.not_in_image} "
             f"truncated {r.truncated} verdict {r.verdict}"]
    for ce in r.forward_failures + r.backward_failures:
        lines.append(f"{ce.direction} {print_term(ce.source_term)} rule {ce.rule_index} "
                     f"at {format_position(ce.witness.position)}: {ce.missing}")
    return "".join(line + "\n" for line in lines)


def _render() -> str:
    parts = []
    for fixture in FIXTURES:
        path = str(resources.files("ostrans") / "fixtures" / fixture)
        for argv in (["check", path],
                     ["translate", path, "--tie-break", "lex"],
                     ["translate", path, "--tie-break", "revlex"],
                     ["bisim", path, "--depth", "3"],
                     ["bisim", path, "--depth", "3", "--format", "json-lines"],
                     *(["rewrite", path, "--term", TERM, "--strategy", strategy]
                       for strategy in ("leftmost-innermost", "leftmost-outermost",
                                        "exhaustive-breadth"))):
            parts.append(_cli(argv).replace(path, fixture))
        alg = parse_spec(Path(path).read_text(encoding="utf-8"))
        for name in MUTANTS:
            parts.append(f"# {fixture} mutant, {name}, depth 2, class budget 500\n"
                         + _mutant_report(alg, name))
    return "".join(parts)


def test_outputs_match_the_golden_file():
    assert _render() == GOLDEN.read_text(encoding="utf-8")
