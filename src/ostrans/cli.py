"""Command-line surface tying together checking, translation, rewriting
and the bisimulation harness.

Exit codes: 0 on success or a passing check, 1 when a check or the
bisimulation fails, 2 on usage or parse errors, 3 when a bisimulation
finds no failure but leaves something undecided (inconclusive): a step
skipped because a class search was not exhausted, or an enumeration
truncated by ``--max-terms``.
Set ``OSTR_COLOR=0`` to disable styling; ``--format json-lines`` emits
one JSON record per report item with a ``schema`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bisim import BisimConfig, run_bisim
from .errors import AlgebraError, SpecError, UnknownSort
from .poset import TIE_BREAKS
from .rewrite import RewriteConfig, format_position, format_trace, rewrite_trace
from .specfmt import parse_spec, parse_term_text, print_spec
from .terms import print_term
from .translate import translate_algebra
from .validity import validate_algebra


def _at_least(floor: int):
    """An argparse type: an integer no smaller than ``floor``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return parse


def _styled(text: str, code: str) -> str:
    if os.environ.get("OSTR_COLOR", "1") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _emit(record: dict, args) -> None:
    if args.format == "json-lines":
        print(json.dumps({"schema": 1, **record}))


class _Unusable(Exception):
    """A path the command cannot read or write: a usage error."""


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Unusable(f"cannot read input: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _Unusable(f"cannot read input: {path!r} is not UTF-8: {exc}") from None
    kind = "msa" if path.endswith(".msa") else "osa"
    return parse_spec(text, kind=kind), kind


def _cmd_check(args) -> int:
    alg, kind = _load(args.file)
    if kind == "msa":
        if args.format != "json-lines":
            print("many-sorted algebra: well-formed")
        _emit({"kind": "check", "wellformed": True}, args)
        return 0
    report = validate_algebra(alg)
    rows = [
        ("sensible", report.sensible),
        ("strong sensible", report.strong_sensible),
        ("maximal argument-bounding", report.maximal_argument_bounding),
        ("strictly sensible", report.strictly_sensible),
        ("equations sort-equal", report.equations_sort_equal),
        ("rules sort-decreasing", report.rules_sort_decreasing),
        ("unique top supersorts", report.unique_tops),
    ]
    if args.format == "json-lines":
        _emit({"kind": "check", **{k.replace(" ", "-"): v for k, v in rows},
               "violations": len(report.violations)}, args)
        for kind_, payload in report.violations:
            _emit({"kind": "violation", "check": kind_,
                   "detail": " ; ".join(repr(p) for p in payload)}, args)
    else:
        for label, value in rows:
            print(f"{label}: {'yes' if value else 'no'}")
        for kind_, payload in report.violations:
            detail = " ; ".join(repr(p) for p in payload)
            print(_styled(f"violation [{kind_}] {detail}", "31"))
    return 0 if report.translatable else 1


def _cmd_translate(args) -> int:
    alg, kind = _load(args.file)
    if kind == "msa":
        print("input is already many-sorted", file=sys.stderr)
        return 2
    ms, tm = translate_algebra(alg, tie_break=args.tie_break)
    text = print_spec(ms, name="translated")
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _Unusable(f"cannot write output: {exc}") from None
    sig = ms.signature
    if args.format == "json-lines":
        record = {"kind": "translate", "output": args.output,
                  "operators": len(sig.operators), "casts": len(sig.non_core),
                  "equations": len(ms.equations),
                  "core_equations": len(ms.core_equations), "rules": len(ms.rules)}
        if not args.output:
            record["spec"] = text
        _emit(record, args)
    elif args.output:
        print(f"wrote {args.output}: {len(sig.operators)} operators "
              f"({len(sig.non_core)} casts), {len(ms.equations)} equations "
              f"({len(ms.core_equations)} core), {len(ms.rules)} rules")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_paths(args) -> int:
    alg, kind = _load(args.file)
    if kind == "msa":
        print("paths needs an order-sorted input", file=sys.stderr)
        return 2
    try:
        paths = alg.signature.poset.enumerate_paths(args.src, args.dst)
    except UnknownSort as exc:  # a bad --from or --to is a usage error
        print(exc, file=sys.stderr)
        return 2
    for path in paths:
        if args.format == "json-lines":
            _emit({"kind": "path", "sorts": list(path)}, args)
        else:
            print(" -> ".join(path))
    if not paths and args.format != "json-lines":
        print(f"no paths from {args.src} to {args.dst}")
    return 0


def _cmd_rewrite(args) -> int:
    alg, _ = _load(args.file)
    term = parse_term_text(args.term, alg.signature)
    config = RewriteConfig(eclass_depth=args.eclass_depth, eclass_max=args.eclass_max)
    trace = rewrite_trace(alg, term, strategy=args.strategy,
                          max_steps=args.steps, config=config)
    if args.format == "json-lines":
        for step in trace:
            _emit({"kind": "step", "position": format_position(step.position),
                   "rule": step.rule_index,
                   "before": print_term(step.bridging_term),
                   "after": print_term(step.result)}, args)
        _emit({"kind": "rewrite-summary", "steps": len(trace)}, args)
    else:
        if trace:
            print(format_trace(trace))
        print(f"steps: {len(trace)}")
    return 0


def _cmd_bisim(args) -> int:
    alg, kind = _load(args.file)
    if kind == "msa":
        print("bisim needs an order-sorted input", file=sys.stderr)
        return 2
    cfg = BisimConfig(
        term_depth=args.depth,
        eclass_depth=args.eclass_depth,
        eclass_max=args.eclass_max,
        max_terms=args.max_terms,
    )
    report = run_bisim(alg, cfg)
    if args.format == "json-lines":
        for ce in report.forward_failures + report.backward_failures:
            _emit({"kind": "counterexample", "direction": ce.direction,
                   "term": print_term(ce.source_term), "rule": ce.rule_index,
                   "missing": ce.missing}, args)
        _emit({"kind": "bisim-summary", "terms": report.terms_checked,
               "steps": report.steps_checked,
               "forward_failures": len(report.forward_failures),
               "backward_failures": len(report.backward_failures),
               "skipped_unexhausted": report.skipped_unexhausted,
               "not_in_image": report.not_in_image,
               "truncated": report.truncated,
               "verdict": report.verdict}, args)
    else:
        for ce in report.forward_failures + report.backward_failures:
            print(_styled(
                f"{ce.direction} failure at {print_term(ce.source_term)} "
                f"rule {ce.rule_index}: {ce.missing}", "31"))
        print(f"terms checked: {report.terms_checked}")
        print(f"steps checked: {report.steps_checked}")
        print(f"{len(report.forward_failures)} forward failures, "
              f"{len(report.backward_failures)} backward failures")
        print(f"skipped (class not exhausted): {report.skipped_unexhausted}")
        print(f"not in image: {report.not_in_image}")
        print(f"verdict: {report.verdict}")
    return {"pass": 0, "fail": 1, "inconclusive": 3}[report.verdict]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrans",
        description="Check, translate and empirically validate order-sorted algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the translation preconditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("translate", help="translate to a many-sorted algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--tie-break", choices=TIE_BREAKS, default="lex")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("paths", help="enumerate subsort paths between two sorts")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("rewrite", help="trace rewriting of one ground term")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--steps", type=_at_least(0), default=100)
    p.add_argument("--strategy", default="leftmost-innermost",
                   choices=("leftmost-innermost", "leftmost-outermost",
                            "exhaustive-breadth"))
    p.add_argument("--eclass-depth", type=_at_least(1), default=5)
    p.add_argument("--eclass-max", type=_at_least(1), default=10_000)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("bisim", help="check the bisimulation empirically")
    p.add_argument("file")
    p.add_argument("--depth", type=_at_least(0), default=3)
    p.add_argument("--eclass-depth", type=_at_least(1), default=5)
    p.add_argument("--eclass-max", type=_at_least(1), default=10_000)
    p.add_argument("--max-terms", type=_at_least(1), default=100_000)
    p.set_defaults(func=_cmd_bisim)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json-lines"), default="text")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _Unusable as exc:
        print(exc, file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
