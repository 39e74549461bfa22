"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/child.py <workload> <0|1|setup>`` with the
generated input on stdin: untraced, traced, or (``bisim_imp`` only) set-up
alone.  Prints one JSON record: the monotonic clock
when the translation was finished, the time of the main phase and the
work done in it, the outputs the harness checks, peak RSS and, when
traced, the layer summary.  ``bisim_imp`` runs through the ``ostrans``
command line; the other workloads make the calls the command line makes
for the same job.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import ostrans  # noqa: E402  (loads every layer module before tracing)
from ostrans import bisim, cli, poset, rewrite, specfmt, translate, validity  # noqa: E402

from layertrace import Tracer  # noqa: E402

# Where a repetition writes the spec file it hands to the command line.
OUT = BENCH / "out"


def _translated(text: str):
    alg = specfmt.parse_spec(text)
    report = validity.validate_algebra(alg)
    if not report.translatable:
        raise ostrans.NotStrictlySensible(f"violations: {report.violations}")
    ms, tm = translate.translate_algebra(alg)
    return alg, ms, tm


class SetupDone(Exception):
    """Ends a set-up-only repetition once the translation is finished."""


def run_bisim_imp(text: str, setup_only: bool = False) -> dict:
    """``ostrans bisim <spec> --depth 3`` on the spec text, output captured.

    ``run_bisim`` translates, then checks both directions; a hook on its
    ``translate_algebra`` marks the end of set-up and the start of the
    checks.  With ``setup_only`` the hook stops the run there.
    """
    marks = {}
    translate_algebra = bisim.translate_algebra

    def marked(*args, **kwargs):
        result = translate_algebra(*args, **kwargs)
        marks["setup_done"] = time.monotonic()
        marks["start"] = time.perf_counter()
        if setup_only:
            raise SetupDone
        return result

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "imp.osa"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        bisim.translate_algebra = marked
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["bisim", str(path), "--depth", "3", "--format", "json-lines"])
        except SetupDone:
            return {"setup_done": marks["setup_done"]}
        finally:
            bisim.translate_algebra = translate_algebra
        end = time.perf_counter()
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    summary = next(r for r in records if r["kind"] == "bisim-summary")
    return {
        "setup_done": marks["setup_done"],
        "main_s": end - marks["start"],
        "work": summary["steps"],
        "outputs": {
            "exit_code": code,
            "terms": summary["terms"],
            "steps": summary["steps"],
            "forward_failures": summary["forward_failures"],
            "backward_failures": summary["backward_failures"],
            "skipped": summary["skipped_unexhausted"],
            "not_in_image": summary["not_in_image"],
            "truncated": summary["truncated"],
        },
    }


def run_rewrite_eclass(text: str) -> dict:
    payload = json.loads(text)
    alg, ms, tm = _translated(payload["spec"])
    setup_done = time.monotonic()
    cfg = rewrite.RewriteConfig(eclass_depth=payload["eclass_depth"],
                                eclass_max=payload["eclass_max"])
    # rewrite_step searches the class once per call; the check needs the
    # class size, so record it rather than search a second time.
    sizes = []
    search = rewrite.e_class_bounded

    def recorded(*args, **kwargs):
        cls = search(*args, **kwargs)
        sizes.append(len(cls.members))
        return cls

    rewrite.e_class_bounded = recorded
    items = []
    for source in payload["terms"]:
        t = specfmt.parse_term_text(source, alg.signature)
        u = translate.translate_term(tm, t)
        a = time.perf_counter()
        os_steps = rewrite.rewrite_step(alg, t, cfg)
        b = time.perf_counter()
        ms_steps = rewrite.rewrite_step(ms, u, cfg)
        c = time.perf_counter()
        items.append({
            "term": source,
            "os_s": b - a,
            "ms_s": c - b,
            "os_steps": len(os_steps),
            "ms_steps": len(ms_steps),
            "os_class": sizes[-2],
            "ms_class": sizes[-1],
        })
    rewrite.e_class_bounded = search
    return {
        "setup_done": setup_done,
        "main_s": sum(i["os_s"] + i["ms_s"] for i in items),
        "work": sum(i["os_steps"] + i["ms_steps"] for i in items),
        "outputs": {"items": items},
    }


def run_spec_wide(text: str) -> dict:
    start = time.perf_counter()
    alg = specfmt.parse_spec(text)
    report = validity.validate_algebra(alg)
    diamonds = poset.find_diamonds(alg.signature.poset)
    ms, tm = translate.translate_algebra(alg)
    setup_done = time.monotonic()
    msa = specfmt.print_spec(ms, name="translated")
    again = specfmt.parse_spec(msa, kind="msa")
    end = time.perf_counter()
    return {
        "setup_done": setup_done,
        "main_s": end - start,
        "work": len(alg.signature.operators),
        "outputs": {
            "translatable": report.translatable,
            "diamonds": len(diamonds),
            "msa": msa,
            "reparsed_equal": again == ms,
        },
    }


RUNNERS = {
    "bisim_imp": run_bisim_imp,
    "rewrite_eclass": run_rewrite_eclass,
    "spec_wide": run_spec_wide,
}


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    text = sys.stdin.read()
    if mode == "setup":
        json.dump(run_bisim_imp(text, setup_only=True), sys.stdout)
        return 0
    traced = mode == "1"
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    record = RUNNERS[workload](text)
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
    record["intern_pool_size"] = len(ostrans.GroundTerm._pool)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
