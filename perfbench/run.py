"""Benchmark entry point: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload rank3-walls --seed 1 --seconds 15 --trace 0

With --trace 0 it reports the end-to-end metrics: the pass time (the sum
over problems of each problem's median solve time), the median time of
fresh set-ups, peak resident memory and the share of problems that passed
the digest gate. Solve and set-up times are read by clock.HostClock, at
reference host speed. With --trace 1 it reports the per-layer metrics of
traced passes, next to untraced passes of the same process for the tracing
overhead, all in plain wall time. The last line of standard output is the
JSON result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

import harness
from clock import HostClock
from harness import RUN_DIR, WORKLOADS, MissingLibrary, Workload
from tracer import PER_LAYER, Tracer

# Set-ups repeat at least this many times, and more until this many seconds
# are spent on them.
SETUP_RUNS = 3
SETUP_SECONDS = 4.0

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def end_to_end(name, seed, seconds, workdir):
    workload = Workload(name, seed, workdir, clock=HostClock)
    setups = []
    while len(setups) < SETUP_RUNS or sum(setups) < SETUP_SECONDS:
        setups.append(workload.setup())
    passes = workload.passes(seconds)
    print(f"{name}: {len(passes)} passes {passes}, {len(setups)} set-ups {setups}",
          file=sys.stderr)
    tally = workload.tally
    values = {
        "wall_s": harness.pass_time(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    return tally, {name: (values[name], unit) for name, unit in E2E_METRICS.items()}


def per_layer(name, seed, seconds, workdir):
    workload = Workload(name, seed, workdir)
    workload.setup()
    untraced = workload.passes(seconds / 2)
    tracer = Tracer()
    traced = workload.passes(seconds / 2, wrap=tracer.attached, after_pass=tracer.end_pass)
    values = tracer.metrics(sum(map(sum, traced)), len(traced), harness.pass_time(untraced))
    tracer.write_spans(RUN_DIR / f"spans-{name}-seed{seed}.jsonl")
    print(f"{name}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    metrics = {metric: (values[metric], unit) for metric, unit, _ in PER_LAYER}
    return workload.tally, metrics


def report(tally, metrics):
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workdir = harness.make_workdir(args.workload)
    except OSError as exc:
        print(f"error: cannot create a work directory: {exc}", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    try:
        tally, metrics = run(args.workload, args.seed, args.seconds, workdir)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
