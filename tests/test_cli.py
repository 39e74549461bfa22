from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ostrans
from ostrans import parse_spec, translate_algebra
from ostrans.cli import _build_parser, main


@pytest.fixture()
def imp_path(tmp_path: Path) -> str:
    text = (resources.files("ostrans") / "fixtures/imp.osa").read_text()
    path = tmp_path / "imp.osa"
    path.write_text(text)
    return str(path)


def test_check_passes(imp_path, capsys):
    assert main(["check", imp_path]) == 0
    out = capsys.readouterr().out
    assert "strictly sensible: yes" in out


def test_check_fails_on_broken_algebra(tmp_path, capsys):
    path = tmp_path / "bad.osa"
    path.write_text(
        "algebra bad\nsorts n i\nsubsorts n < i\n"
        "op c : -> n\nop f : n -> n\nop f : i -> i\n"
    )
    assert main(["check", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_check_json_lines(imp_path, tmp_path, capsys):
    msa = str(tmp_path / "imp.msa")
    assert main(["translate", imp_path, "-o", msa]) == 0
    capsys.readouterr()
    for path in (imp_path, msa):  # every line of either is a JSON record
        assert main(["check", path, "--format", "json-lines"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(r["schema"] == 1 for r in records)
        assert records[0]["kind"] == "check"


def test_translate_writes_file(imp_path, tmp_path, capsys):
    out = tmp_path / "imp.msa"
    assert main(["translate", imp_path, "-o", str(out)]) == 0
    ms = parse_spec(out.read_text(), kind="msa")
    assert len(ms.signature.non_core) == 5


def test_translate_to_stdout(imp_path, capsys):
    assert main(["translate", imp_path]) == 0
    out = capsys.readouterr().out
    assert "Cast_nat_to_int" in out


def test_translate_json_lines_to_stdout_is_one_record(imp_path, tmp_path, capsys):
    # Without -o the spec text goes into the record, beside the counts
    # that the record of a written file carries.
    assert main(["translate", imp_path]) == 0
    text = capsys.readouterr().out
    msa = str(tmp_path / "imp.msa")
    assert main(["translate", imp_path, "-o", msa, "--format", "json-lines"]) == 0
    (written,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["translate", imp_path, "--format", "json-lines"]) == 0
    (printed,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == {**written, "output": None, "spec": text}
    assert written["output"] == msa and written["casts"] == 5


def _subcommands() -> set:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_every_json_lines_output_line_is_a_record(imp_path, tmp_path, capsys):
    bad = tmp_path / "bad.osa"
    bad.write_text(
        "algebra bad\nsorts n i\nsubsorts n < i\n"
        "op c : -> n\nop f : n -> n\nop f : i -> i\n"
    )
    msa = str(tmp_path / "imp.msa")
    runs = [
        (["translate", imp_path, "-o", msa], 0),
        (["translate", imp_path], 0),
        (["check", imp_path], 0),
        (["check", msa], 0),
        (["check", str(bad)], 1),
        (["paths", imp_path, "--from", "nat", "--to", "AExp"], 0),
        (["rewrite", imp_path, "--term=-(true)"], 0),
        (["bisim", imp_path, "--depth", "1"], 0),
    ]
    assert {argv[0] for argv, _ in runs} == _subcommands()
    for argv, code in runs:
        assert main(argv + ["--format", "json-lines"]) == code, argv
        lines = capsys.readouterr().out.splitlines()
        assert lines, argv
        assert all(json.loads(line)["schema"] == 1 for line in lines), argv


def test_paths(imp_path, capsys):
    assert main(["paths", imp_path, "--from", "nat", "--to", "AExp"]) == 0
    assert capsys.readouterr().out.strip() == "nat -> int -> AExp"


def test_rewrite_trace(imp_path, capsys):
    assert main(["rewrite", imp_path, "--term=-(true)"]) == 0
    out = capsys.readouterr().out
    assert "--> false" in out
    assert "steps: 1" in out


def test_rewrite_json(imp_path, capsys):
    assert main(["rewrite", imp_path, "--term=-(true)", "--format", "json-lines"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[-1]["kind"] == "rewrite-summary"
    assert records[-1]["steps"] == 1


def test_bisim_passes(imp_path, capsys):
    assert main(["bisim", imp_path, "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 forward failures, 0 backward failures" in out


def test_bisim_text_report(imp_path, capsys):
    # Skips are named for their cause: a class search that was not
    # exhausted, which on this fixture no budget can change.
    assert main(["bisim", imp_path, "--depth", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "terms checked: 34",
        "steps checked: 6",
        "0 forward failures, 0 backward failures",
        "skipped (class not exhausted): 0",
        "not in image: 4",
        "verdict: pass",
    ]


def test_bisim_json(imp_path, capsys):
    assert main(["bisim", imp_path, "--depth", "1", "--format", "json-lines"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    summary = records[-1]
    assert summary["kind"] == "bisim-summary"
    assert summary["forward_failures"] == 0
    assert summary["backward_failures"] == 0
    assert summary["skipped_unexhausted"] == 0


def test_the_package_runs_as_a_module(imp_path):
    # ``python -m ostrans`` from a checkout: the package's directory on
    # the path, nothing installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ostrans.__file__).parent.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run(
        [sys.executable, "-m", "ostrans", "bisim", imp_path, "--depth", "3",
         "--format", "json-lines"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line) for line in done.stdout.splitlines()] == [{
        "schema": 1, "kind": "bisim-summary", "terms": 27422, "steps": 42535,
        "forward_failures": 0, "backward_failures": 0, "skipped_unexhausted": 0,
        "not_in_image": 13, "truncated": False, "verdict": "pass"}]


def test_bisim_pins_the_diamond_fixture(tmp_path, capsys):
    # imp_real.osa is the fixture whose subsorts form a diamond, so the
    # only one on which CastTable.canonical rewrites a term.
    text = (resources.files("ostrans") / "fixtures/imp_real.osa").read_text()
    path = tmp_path / "imp_real.osa"
    path.write_text(text)
    assert not translate_algebra(parse_spec(text))[1].table.single_chain
    assert main(["bisim", str(path), "--depth", "3", "--format", "json-lines"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [{
        "schema": 1, "kind": "bisim-summary", "terms": 27439, "steps": 42541,
        "forward_failures": 0, "backward_failures": 0, "skipped_unexhausted": 0,
        "not_in_image": 18, "truncated": False, "verdict": "pass"}]


def test_bisim_default_depth_one_run_passes(imp_path, capsys):
    assert main(["bisim", imp_path, "--depth", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: pass"
    assert main(["bisim", imp_path, "--depth", "1", "--format", "json-lines"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["verdict"] == "pass"


def test_bisim_truncated_run_is_inconclusive(imp_path, capsys):
    # The term budget cuts the enumeration short: no failure, but no pass.
    assert main(["bisim", imp_path, "--depth", "2", "--max-terms", "10"]) == 3
    out = capsys.readouterr().out
    assert "0 forward failures, 0 backward failures" in out
    assert out.splitlines()[-1] == "verdict: inconclusive"
    assert main(["bisim", imp_path, "--depth", "2", "--max-terms", "10",
                 "--format", "json-lines"]) == 3
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["kind"] == "bisim-summary"
    assert summary["schema"] == 1
    assert summary["truncated"] is True
    assert summary["forward_failures"] == summary["backward_failures"] == 0
    assert summary["verdict"] == "inconclusive"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.osa"
    path.write_text("algebra broken\nsorts a\nop c :\n")
    assert main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("name,text,message", [
    ("sort.osa", "algebra t\nsorts n\nop 0 : -> m\n", "3:11: unknown sort 'm'"),
    ("head.osa", "algebra t\nsorts n\nop 0 : -> n\nrule X:n => 0\n",
     "4:1: rule left side must start with a constructor: X:n"),
    ("unbound.osa", "algebra t\nsorts n\nop 0 : -> n\nop s : n -> n\nrule s(X:n) => s(Y:n)\n",
     "5:1: rule right side introduces unbound variables ['Y']"),
    ("sides.msa", "algebra t\nsorts a b\nop c : -> a\nop d : -> b\neq c = d\n",
     "5:1: equation sides have different sorts: c = d"),
])
def test_spec_errors_are_positioned_parse_errors(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {message}\n")


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.osa")]) == 2


def _one_line_usage_error(argv, capsys, prefix):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_directory_input_is_a_usage_error(tmp_path, capsys):
    _one_line_usage_error(["check", str(tmp_path)], capsys, "cannot read input: ")


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.osa"
    path.write_bytes("algebra t\nsorts né\n".encode("latin-1"))
    _one_line_usage_error(["check", str(path)], capsys, "cannot read input: ")


def test_unwritable_output_is_a_usage_error(imp_path, tmp_path, capsys):
    _one_line_usage_error(["translate", imp_path, "-o", str(tmp_path)], capsys,
                          "cannot write output: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["paths"])
    assert info.value.code == 2


def test_paths_refuses_a_many_sorted_input(imp_path, tmp_path, capsys):
    msa = tmp_path / "imp.msa"
    assert main(["translate", imp_path, "-o", str(msa)]) == 0
    capsys.readouterr()
    assert main(["paths", str(msa), "--from", "nat", "--to", "AExp"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "paths needs an order-sorted input\n")


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_paths_with_an_unknown_sort_is_a_usage_error(imp_path, capsys, flag):
    other = "--to" if flag == "--from" else "--from"
    assert main(["paths", imp_path, flag, "foo", other, "int"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "unknown sort 'foo'\n")


def test_translate_refuses_a_many_sorted_input(imp_path, tmp_path, capsys):
    msa = tmp_path / "imp.msa"
    assert main(["translate", imp_path, "-o", str(msa)]) == 0
    capsys.readouterr()
    assert main(["translate", str(msa)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input is already many-sorted\n")


def test_output_is_reproducible(imp_path, capsys):
    main(["translate", imp_path])
    first = capsys.readouterr().out
    main(["translate", imp_path])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("args", [
    ["bisim", "--depth", "-1"],
    ["bisim", "--eclass-depth", "0"],
    ["bisim", "--eclass-max", "0"],
    ["bisim", "--max-terms", "0"],
    ["rewrite", "--term", "0", "--eclass-depth", "0"],
    ["rewrite", "--term", "0", "--eclass-max", "-2"],
    ["rewrite", "--term", "+(0, 0)", "--steps", "-3"],
])
def test_budgets_below_their_floor_are_usage_errors(imp_path, capsys, args):
    with pytest.raises(SystemExit) as info:
        main([args[0], imp_path, *args[1:]])
    assert info.value.code == 2
    assert f"argument {args[-2]}: must be at least" in capsys.readouterr().err


def test_non_integer_budget_is_a_usage_error(imp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["bisim", imp_path, "--depth", "two"])
    assert info.value.code == 2
    assert "argument --depth: invalid int value: 'two'" in capsys.readouterr().err
