"""Self-test of the benchmark on one small problem (about a second).

    python3 perfbench/selftest.py

Checks that a traced run restores every library binding to the identical
object, that each problem of a pass runs on a fresh import of the library,
that a tampered reference digest turns into a failure, that another seed
draws other weights but gives the same digests, that a HostClock disarms its
timer, and that the metric names match BENCHMARK.json. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
from contextlib import nullcontext

import harness
from clock import HostClock
from harness import (ROOT, CliProblems, Spec, Tally, draw_inputs, library_containers,
                     run_pass, solve)
from run import E2E_METRICS
from tracer import PER_LAYER, Tracer

SPEC = Spec(2, 1, 2, (0, 1), count_q=2)


def bindings():
    """Every module global and class attribute of the library."""
    return {(container.__name__, key): value
            for container in library_containers()
            for key, value in vars(container).items()}


def main():
    reference = harness.load_reference()
    lib = harness.load_library()
    results = []

    def check(name, ok):
        results.append(ok)
        print(f"{'pass' if ok else 'FAIL'}: {name}")

    before = bindings()
    inp = draw_inputs(lib, SPEC, 0)
    tally = Tally(reference)
    workdir = harness.make_workdir("selftest")
    try:
        cli = CliProblems(workdir, [inp])
        tracer = Tracer()
        with tracer.attached(lib):
            tally.run(solve, lib, inp)
            tally.run(cli.solve, lib, inp)  # cold: writes the memo cache
            tally.run(cli.solve, lib, inp)  # warm: reads it
            tracer.end_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = bindings()
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    check("a traced run restores every binding to the identical object", restored)
    check("the traced problems pass the gate", tally.attempted == 3 and tally.failed == 0)
    values = tracer.metrics(1.0, 1, 1.0)
    check("every per-layer metric is reported",
          sorted(values) == sorted(name for name, _, _ in PER_LAYER))
    check("the warm CLI run counts seed-cache hits", values["engine.seed_cache_hits"] > 0)
    spans = tracer.spans
    check("every span lies inside its parent span", len(spans) > 0 and all(
        parent < 0 or spans[parent][1] <= start <= end <= spans[parent][2]
        for _, start, end, parent in spans))

    imported = []

    def record(fresh):
        imported.append((fresh, fresh.parabolic.genericity_check))
        return nullcontext()

    fresh = Tally(reference)
    run_pass(fresh, solve, [inp, inp], wrap=record)
    check("each problem of a pass runs on a fresh import of the library",
          len(imported) == 2 and fresh.failed == 0
          and len({id(obj) for pair in imported for obj in pair} | {id(lib)}) == 5)

    tampered = json.loads(json.dumps(reference))
    tampered[SPEC.key]["class_sha256"] = harness.sha256("tampered")
    bad = Tally(tampered)
    bad.run(solve, lib, inp)
    check("a tampered reference digest is a failure", bad.failed == 1)

    other = draw_inputs(lib, SPEC, 1)
    both = Tally(reference)
    both.run(solve, lib, inp)
    both.run(solve, lib, other)
    check("another seed draws other weights", other.weights != inp.weights)
    check("another seed gives the same digests", both.failed == 0)

    handler = signal.getsignal(signal.SIGALRM)
    timed = Tally(reference)
    clock = HostClock()
    seconds = timed.run(solve, lib, inp, lambda: clock)
    check("a HostClock times a problem and then disarms its timer",
          timed.failed == 0 and seconds > 0 and 0 < clock.raw_seconds
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) is handler)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check("BENCHMARK.json lists the metrics that are reported",
          [m["name"] for m in declared["per_layer"]] == [n for n, _, _ in PER_LAYER]
          and [m["name"] for m in declared["end_to_end"]] == list(E2E_METRICS))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
