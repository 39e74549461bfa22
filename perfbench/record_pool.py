"""Record the IMP term pool that the ``rewrite_eclass`` workload samples.

Usage: ``python3 perfbench/record_pool.py`` from the repository root.
Draws a fixed sample of order-sorted IMP terms of height at most 3 and
records, for each term and its translation, the number of steps
``rewrite_step`` finds and the size of the bounded equivalence class.
The benchmark checks every later run against these numbers, so rerun
this only when a change is meant to alter them, and say so.
"""

from __future__ import annotations

import json
import random
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from ostrans import (  # noqa: E402
    RewriteConfig,
    e_class_bounded,
    enumerate_ground_terms,
    parse_spec,
    print_term,
    rewrite_step,
    translate_algebra,
    translate_term,
)

POOL_SIZE = 144
POOL_SEED = 0


def main() -> int:
    alg = parse_spec((workloads.FIXTURES / "imp.osa").read_text(encoding="utf-8"))
    ms, tm = translate_algebra(alg)
    depth, max_size = workloads.REWRITE_EQ_DEPTH, workloads.REWRITE_EQ_MAX
    cfg = RewriteConfig(eclass_depth=depth, eclass_max=max_size)
    terms = list(enumerate_ground_terms(alg.signature, depth=3))
    pool = []
    for t in random.Random(POOL_SEED).sample(terms, POOL_SIZE):
        u = translate_term(tm, t)
        pool.append({
            "term": print_term(t),
            "os_steps": len(rewrite_step(alg, t, cfg)),
            "ms_steps": len(rewrite_step(ms, u, cfg)),
            "os_class": len(e_class_bounded(alg, t, depth, max_size).members),
            "ms_class": len(e_class_bounded(ms, u, depth, max_size).members),
        })
    record = {
        "fixture": "imp.osa",
        "height_at_most": 3,
        "eclass_depth": depth,
        "eclass_max": max_size,
        "pool_seed": POOL_SEED,
        "terms": pool,
    }
    workloads.POOL.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pool)} terms to {workloads.POOL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
