"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 --seconds 30 --out perfbench/results/x.jsonl

For every workload, runs ``run.py`` once per seed (1 .. ``--runs`` plus
``--first-seed`` - 1) and prints, per end-to-end metric, the median and
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  With ``--out`` it appends each run's
environment and result line to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            env, result = json.loads(lines[0])["env"], json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {proc.stderr.strip()}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps({**env, "result": result}) + "\n")
        print(f"{workload}: {args.runs} runs")
        for name, vals in values.items():
            s = spread(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, s / bound)
            print(f"  {name:34s} median {statistics.median(vals):14.6f}  spread {s:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
