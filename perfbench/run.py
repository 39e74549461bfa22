"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 perfbench/run.py --workload bisim_imp --seed 1 --seconds 30 --trace 0

The run generates the workload's input from the seed, then repeats the
workload, each repetition in a fresh interpreter (``child.py``), until
``--seconds`` are used.  Every repetition's outputs are checked.  Every
time is reported at reference speed: divided by the mean time of the
reference loop (``reference.py``) run just before and just after the
repetition, so it reads in seconds at the speed at which that loop takes
one second.  The harness and its repetitions run pinned to one CPU, the
one the loop measures.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give the same figures with their
units, the raw seconds and the environment of the run.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from layertrace import LAYERS
from reference import reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Start no repetition that could end after this, so a run ends within 180 s.
HARD_LIMIT_S = 160
# Set-up-only repetitions run before each untraced repetition.  A
# bisim_imp repetition lasts about 8 s, so a run holds only 3-5 of them;
# these bring its set-up samples to 12-20 at about 0.15 s each.
EXTRA_SETUPS = {"bisim_imp": 3}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "work_per_s": "1/s",
}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def child_env(seed: int) -> dict:
    # Hash order follows the seed, so one seed is one reproducible run.
    return dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))


def warm_up(env: dict) -> None:
    """Compile and cache the modules once, outside the measurement."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
            "import ostrans, layertrace")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)


def repetition(workload: str, text: str, mode: str, env: dict) -> dict:
    """Run one repetition in a fresh interpreter and time it from outside.

    ``mode`` is ``"0"`` (untraced), ``"1"`` (traced) or ``"setup"`` (stop
    when the translation is finished; only ``bisim_imp``).
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), workload, mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        out, err = proc.communicate(text, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
    done = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(out)
    record["traced"] = mode == "1"
    record["wall_s"] = done - spawn
    record["setup_s"] = record["setup_done"] - spawn
    record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return record


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    Returns the value (nearest rank) and the percentile; with ten or
    fewer samples no percentile qualifies and the maximum is returned
    as percentile 100, and with none the result is zero.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n == 0:
        return 0.0, 0
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(pct * n / 100) - 1], pct


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    def med(key):
        return statistics.median(r[key] / r["ref_s"] for r in reps)

    return {
        "setup_s": statistics.median(s / r["ref_before_s"]
                                     for r in reps for s in r["setup_samples_s"]),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in reps),
        "success_rate": (attempted - failed) / attempted,
        "work_per_s": statistics.median(r["work"] * r["ref_s"] / r["main_s"] for r in reps),
    }


# Per-layer metric -> (unit, tracer counter it reads).
COUNTERS = {
    "rewrite.match_pattern_calls": ("count", "rewrite.match_pattern_calls"),
    "rewrite.direct_steps_s.os": ("s", "rewrite.direct_steps.os_s"),
    "rewrite.direct_steps_s.ms": ("s", "rewrite.direct_steps.ms_s"),
    "rewrite.e_class_bounded_s": ("s", "rewrite.e_class_bounded_s"),
    "rewrite.e_class_calls": ("count", "rewrite.e_class_bounded_calls"),
    "rewrite.e_class_members": ("count", "rewrite.e_class_members"),
    "rewrite.e_class_budget_hits": ("count", "rewrite.e_class_budget_hits"),
    "rewrite.core_canonicalize_s": ("s", "rewrite.core_canonicalize_s"),
    "translate.translate_term_s": ("s", "translate.translate_term_s"),
    "translate.translate_term_calls": ("count", "translate.translate_term_calls"),
    "bisim.enumerate_s.os": ("s", "bisim.enumerate.os_s"),
    "bisim.enumerate_s.ms": ("s", "bisim.enumerate.ms_s"),
    **{f"bisim.terms_by_height.{side}.h{h}": ("count", f"bisim.terms_by_height.{side}.h{h}")
       for side in ("os", "ms") for h in range(4)},
    "bisim.forward_s": ("s", "bisim.check_forward_s"),
    "bisim.backward_s": ("s", "bisim.check_backward_s"),
    "specfmt.parse_s": ("s", "specfmt.parse_s"),
    "specfmt.print_s": ("s", "specfmt.print_s"),
    "specfmt.reparse_msa_s": ("s", "specfmt.reparse_msa_s"),
    "validity.validate_s": ("s", "validity.validate_s"),
    "poset.build_s": ("s", "poset.build_s"),
    "poset.find_diamonds_s": ("s", "poset.find_diamonds_s"),
    "translate.translate_algebra_s": ("s", "translate.translate_algebra_s"),
    "translate.casts": ("count", "translate.casts"),
    "translate.core_equations": ("count", "translate.core_equations"),
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are printed."""
    units = {name: unit for name, (unit, _) in COUNTERS.items()}
    units.update({
        "bisim.steps": "count",
        "bisim.class_search_fallbacks": "count",
        "bisim.fast_path_ratio": "ratio",
        "terms.intern_pool_size": "count",
        "terms.calls": "count",
        **{f"{layer}.self_s": "s" for layer in LAYERS},
        "spec_pipeline.wall_share": "ratio",
        "rewrite.term_p50_ms.os": "ms", "rewrite.term_tail_ms.os": "ms",
        "rewrite.term_p50_ms.ms": "ms", "rewrite.term_tail_ms.ms": "ms",
        "rewrite.term_samples": "count", "rewrite.term_tail_pct": "pct",
        "trace.overhead_s": "s",
    })
    return units


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions.

    Term latencies and the tracing overhead come from the untraced
    repetitions of the same run.  Times are at reference speed.
    """
    med = statistics.median
    values = {
        name: med(r["trace"]["counters"].get(key, 0) / (r["ref_s"] if unit == "s" else 1)
                  for r in traced)
        for name, (unit, key) in COUNTERS.items()
    }
    steps = med(r["outputs"].get("steps", 0) for r in traced)
    fallbacks = med(r["trace"]["counters"].get("bisim.e_class_calls_from_checks", 0) / 2
                    for r in traced)
    values["bisim.steps"] = steps
    # Each step that misses the fast path makes exactly two class searches.
    values["bisim.class_search_fallbacks"] = fallbacks
    values["bisim.fast_path_ratio"] = 1 - fallbacks / steps if steps else 0.0
    values["terms.intern_pool_size"] = med(r["intern_pool_size"] for r in traced)
    values["terms.calls"] = med(
        sum(n for key, n in r["trace"]["counters"].items()
            if key.startswith("terms.") and key.endswith("_calls"))
        for r in traced)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = med(r["trace"]["self_s"][layer] / r["ref_s"] for r in traced)
    values["spec_pipeline.wall_share"] = med(r["trace"]["pipeline_s"] / r["wall_s"]
                                             for r in traced)
    items = [(i, r["ref_s"]) for r in plain for i in r["outputs"].get("items", [])]
    values["rewrite.term_samples"] = len(items)
    for side in ("os", "ms"):
        samples = [i[f"{side}_s"] * 1000 / ref for i, ref in items]
        values[f"rewrite.term_p50_ms.{side}"] = statistics.median(samples) if samples else 0.0
        values[f"rewrite.term_tail_ms.{side}"], values["rewrite.term_tail_pct"] = tail(samples)
    values["trace.overhead_s"] = (med(r["wall_s"] / r["ref_s"] for r in traced)
                                  - med(r["wall_s"] / r["ref_s"] for r in plain))
    return values


def measure(args, text: str, expect: dict) -> tuple[list[dict], int, int, list[str]]:
    """Repeat the workload until the time is used; check every repetition.

    Returns the repetitions, the items attempted and failed, and one
    message per failure.  A repetition that crashes or times out ends
    the run; all of its items count as failed.
    """
    env = child_env(args.seed)
    warm_up(env)
    reference_s()
    start = time.monotonic()
    before = reference_s()
    # A traced run makes three untraced repetitions per traced one: the term
    # latencies and the overhead baseline come from the untraced ones, and
    # tracing makes a repetition two to three times slower.
    plan = [False, False, False, True] if args.trace else [False]
    reps: list[dict] = []
    attempted, failed, messages = 0, 0, []
    while True:
        for traced in plan:
            extra = 0 if traced else EXTRA_SETUPS.get(args.workload, 0)
            try:
                setups = [repetition(args.workload, text, "setup", env)["setup_s"]
                          for _ in range(extra)]
                record = repetition(args.workload, text, "1" if traced else "0", env)
            except (RuntimeError, json.JSONDecodeError) as exc:
                n = checks.items_per_repetition(args.workload, expect)
                return reps, attempted + n, failed + n, messages + [str(exc)]
            after = reference_s()
            record["ref_s"] = (before + after) / 2
            # Set-up is the first fraction of a second after ``before``.
            record["ref_before_s"] = before
            record["setup_samples_s"] = setups + [record["setup_s"]]
            before = after
            n, failures = checks.CHECKS[args.workload](record["outputs"], expect)
            attempted += n
            failed += len(failures)
            messages += failures
            reps.append(record)
        elapsed = time.monotonic() - start
        rounds = len(reps) // len(plan)
        per_round = elapsed / rounds
        if rounds >= (1 if args.trace else MIN_REPS) and elapsed + per_round > args.seconds:
            break
        if elapsed + per_round > HARD_LIMIT_S:
            break
    return reps, attempted, failed, messages


def write_spans(args, traced: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent")
    path.write_text(json.dumps([
        [dict(zip(fields, span)) for span in r["trace"]["spans"]] for r in traced
    ]))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ostrans" / "__init__.py").is_file():
        print(f"error: no ostrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_info = environment(args)
    # The reference loop tracks the speed of the CPU it runs on, so the
    # loop and every repetition (which inherits the mask) share one CPU.
    env_info["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env_info["cpu"]})
    text, expect = workloads.make_input(args.workload, args.seed)
    reps, attempted, failed, messages = measure(args, text, expect)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(traced, plain), per_layer_units()
        env_info["spans"] = str(write_spans(args, traced).relative_to(ROOT))
    else:
        metrics, units = end_to_end(plain, attempted, failed), END_TO_END_UNITS
    env_info["raw_wall_s"] = {"untraced": [r["wall_s"] for r in plain],
                              "traced": [r["wall_s"] for r in traced]}
    env_info["raw_setup_s"] = [s for r in plain for s in r["setup_samples_s"]]
    env_info["reference_s"] = [r["ref_s"] for r in reps]
    print(json.dumps({"env": env_info}))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
