"""Tests of the benchmark itself: generators, output checks, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import argparse
import copy
import json

import pytest

import checks
import run
import workloads
from layertrace import Tracer
from ostrans import (
    RewriteConfig,
    parse_spec,
    parse_term_text,
    print_spec,
    rewrite,
    translate_algebra,
    translate_term,
    validate_algebra,
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.make_input(workload, 7) == workloads.make_input(workload, 7)
    assert workloads.make_input(workload, 7)[0] != workloads.make_input(workload, 8)[0]


def test_imp_shuffle_keeps_every_declaration():
    name, decls = workloads.declarations(workloads.imp_spec(3))
    _, original = workloads.declarations((workloads.FIXTURES / "imp.osa").read_text())
    assert name == "IMP"
    assert sorted(decls) == sorted(original)


def test_spec_wide_spec_is_translatable():
    text, expect = workloads.wide_spec(5)
    alg = parse_spec(text)
    assert len(alg.signature.operators) == expect["operators"] == 26 * workloads.WIDE_COPIES
    assert validate_algebra(alg).translatable


def _spec_outputs(copies):
    text, expect = workloads.wide_spec(2, copies)
    alg = parse_spec(text)
    ms, _ = translate_algebra(alg)
    msa = print_spec(ms, name="translated")
    outputs = {"translatable": True, "diamonds": copies, "msa": msa,
               "reparsed_equal": parse_spec(msa, kind="msa") == ms}
    return outputs, expect


def test_spec_check_passes_a_real_translation():
    outputs, expect = _spec_outputs(3)
    assert checks.check_spec(outputs, expect) == (1, [])


@pytest.mark.parametrize("marker", [
    "rule ",                               # a rule lost
    "op Cast_nat_1_to_int_1 ",             # a cast lost
    "Cast_nat_0_to_real_0(A:nat_0)",       # a core equation lost
])
def test_spec_check_flags_a_doctored_translation(marker):
    outputs, expect = _spec_outputs(3)
    lines = outputs["msa"].splitlines()
    drop = next(i for i, line in enumerate(lines) if marker in line)
    outputs["msa"] = "\n".join(lines[:drop] + lines[drop + 1:])
    attempted, failures = checks.check_spec(outputs, expect)
    assert attempted == 1 and len(failures) == 1


def _bisim_outputs():
    _, expect = workloads.make_input("bisim_imp", 1)
    return dict(expect), expect


def test_bisim_check_passes_the_recorded_counts():
    outputs, expect = _bisim_outputs()
    assert checks.check_bisim(outputs, expect) == (1, [])


@pytest.mark.parametrize("key,delta", [("steps", -1), ("terms", 1), ("not_in_image", -1),
                                        ("forward_failures", 1)])
def test_bisim_check_flags_a_doctored_count(key, delta):
    outputs, expect = _bisim_outputs()
    outputs[key] += delta
    attempted, failures = checks.check_bisim(outputs, expect)
    assert attempted == 1 and len(failures) == 1 and key in failures[0]


def _rewrite_outputs(seed=4):
    _, expect = workloads.make_input("rewrite_eclass", seed)
    items = [{k: e[k] for k in ("term", "os_steps", "ms_steps", "os_class", "ms_class")}
             for e in expect["terms"]]
    return {"items": items}, expect


def test_rewrite_check_flags_one_step_fewer():
    outputs, expect = _rewrite_outputs()
    assert checks.check_rewrite(outputs, expect) == (2 * workloads.REWRITE_TERMS, [])
    doctored = copy.deepcopy(outputs)
    doctored["items"][3]["ms_steps"] -= 1
    attempted, failures = checks.check_rewrite(doctored, expect)
    assert attempted == 2 * workloads.REWRITE_TERMS and len(failures) == 1


def test_rewrite_pool_matches_the_code_on_a_sample():
    # Two pool terms recomputed: the recorded numbers are the program's.
    alg = parse_spec((workloads.FIXTURES / "imp.osa").read_text())
    ms, tm = translate_algebra(alg)
    pool = json.loads(workloads.POOL.read_text())
    cfg = RewriteConfig(pool["eclass_depth"], pool["eclass_max"])
    for entry in pool["terms"][:2]:
        t = parse_term_text(entry["term"], alg.signature)
        assert len(rewrite.rewrite_step(alg, t, cfg)) == entry["os_steps"]
        assert len(rewrite.rewrite_step(ms, translate_term(tm, t), cfg)) == entry["ms_steps"]


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 97)]
    value, pct = run.tail(samples)
    assert pct == 89 and sum(s > value for s in samples) == 10
    assert run.tail([1.0, 2.0]) == (2.0, 100)
    assert run.tail([]) == (0.0, 0)


def test_tracer_counts_and_restores():
    alg = parse_spec((workloads.FIXTURES / "imp.osa").read_text())
    original = rewrite.rewrite_step
    tracer = Tracer()
    tracer.install()
    try:
        t = parse_term_text("-(0)", alg.signature)
        rewrite.rewrite_step(alg, t, RewriteConfig(5, 50))
    finally:
        tracer.uninstall()
    assert rewrite.rewrite_step is original
    counters = tracer.counters
    assert counters["rewrite.rewrite_step.os_calls"] == 1
    assert counters["rewrite.e_class_bounded_calls"] == 1
    assert counters["rewrite.match_pattern_calls"] > 0
    summary = tracer.summary()
    assert summary["self_s"]["rewrite"] > 0
    assert [s[0] for s in summary["spans"]] == ["rewrite.rewrite_step.os", "rewrite.e_class_bounded"]
    assert summary["spans"][1][3] == 0


def test_a_crashed_repetition_fails_all_its_items(monkeypatch):
    text, expect = workloads.make_input("rewrite_eclass", 4)
    outputs, _ = _rewrite_outputs(4)
    good = {"outputs": outputs, "setup_done": 0.1, "setup_s": 0.1, "wall_s": 2.0,
            "cpu_s": 2.0, "main_s": 1.5, "work": 100, "maxrss_kb": 20_000,
            "traced": False}
    calls = []

    def fake_repetition(workload, text, mode, env):
        calls.append(workload)
        if len(calls) == 12:
            raise RuntimeError("repetition exited -9")
        return dict(good)

    monkeypatch.setattr(run, "warm_up", lambda env: None)
    monkeypatch.setattr(run, "reference_s", lambda: 1.0)
    monkeypatch.setattr(run, "repetition", fake_repetition)
    args = argparse.Namespace(workload="rewrite_eclass", seed=4, seconds=1000, trace=0)
    reps, attempted, failed, messages = run.measure(args, text, expect)
    per_rep = 2 * workloads.REWRITE_TERMS
    assert (len(reps), attempted, failed) == (11, 12 * per_rep, per_rep)
    assert messages == ["repetition exited -9"]
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "success_rate")
    success = run.end_to_end(reps, attempted, failed)["success_rate"]
    assert 1 - success > bound
