"""Report-only probe of ladder rungs too slow for the gated workloads, and of
inputs known to fail, with each outcome and its time-to-outcome.

    python3 perfbench/probe.py [--seed N]

Takes about two minutes. One JSON line per problem, then a summary line.
Nothing here enters a workload's metrics or its failure count, and the exit
code is 0 whatever the outcomes. Weights are drawn as in the workloads but
not certified by the benchmark: the library's own entry check certifies them,
and its cost is part of what is timed.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import harness
from clock import WallClock
from harness import MissingLibrary, Spec, draw_inputs, sha256, solve

# (spec, expected outcome): "computed" or the name of the scope error.
PROBES = [
    (Spec(2, 2, 3, (0, 1, 2)), "computed"),
    (Spec(0, 4, 2, (0, 1)), "computed"),
    (Spec(2, 1, 4, (0, 1, 2, 3)), "DeskScaleExceeded"),
    (Spec(2, 0, 3, (1, 2)), "WallHit"),
    (Spec(1, 1, 3, (0, 1, 2)), "UnboundedSearch"),
    (Spec(0, 3, 3, (0, 1, 2)), "BudgetExceeded"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        lib = harness.load_library()
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for spec, expected in PROBES:
        inp = draw_inputs(lib, spec, args.seed, certify=False)
        row = {"problem": spec.key, "degree": inp.degree, "expected": expected}
        t0 = perf_counter()
        try:
            out = solve(lib, inp, WallClock())
        except lib.EngineError as exc:
            row["outcome"] = type(exc).__name__
            row["message"] = str(exc)
        else:
            row["outcome"] = "computed"
            row["class_sha256"] = sha256(out["class"])
        row["seconds"] = perf_counter() - t0
        rows.append(row)
        print(json.dumps(row), flush=True)
    print(json.dumps({
        "seed": args.seed,
        "as_expected": sum(r["outcome"] == r["expected"] for r in rows),
        "probes": len(rows),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
