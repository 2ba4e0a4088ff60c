"""Workloads, seeded inputs, the digest gate and the closed-loop timer.

The library is driven only through its public entry points
(``higgs_computation``, ``specialize_E``, ``specialize_count`` and
``cli.main``), imported from the checkout's ``src/`` directory.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from clock import WallClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE = BENCH_DIR / "reference.json"

# Weights are p/PRIME for random p; a large prime denominator makes a bounded
# integral relation among the weights unlikely, and genericity_check proves
# there is none before the library sees them.
PRIME = 2_147_483_647

# Zeta numerator of y^2 + y = x^5 over F_2, as in the README's example.
ZETA_G2 = (1, 0, 0, 0, 4)


class MissingLibrary(RuntimeError):
    """The checkout holds no importable parahiggs package under src/."""


@dataclass(frozen=True)
class Spec:
    """One problem of a workload; the seed picks its weights and degree.

    With every_degree set, the workload runs the problem at each of `degrees`
    with the same weights, so that the seed does not choose how much work a
    pass holds.
    """

    genus: int
    points: int
    rank: int
    degrees: tuple
    e_poly: bool = False
    count_q: int | None = None
    every_degree: bool = False

    @property
    def key(self):
        return f"{self.genus},{self.points},{self.rank}"


@dataclass(frozen=True)
class Inputs:
    spec: Spec
    degree: int
    weights: tuple  # per marked point, sorted Fractions


# (2,1,3) carries the point count at q=2 on the README's genus-2 curve.
RANK3 = (
    Spec(2, 1, 3, (0, 1, 2), count_q=2),
    Spec(3, 1, 3, (0, 1, 2)),
)

WORKLOADS = {
    "rank3-walls": {"cli": False, "specs": RANK3},
    "multipoint-rank2": {
        "cli": False,
        "specs": tuple(Spec(g, 3, 2, (0, 1), every_degree=True) for g in (0, 1, 2)),
    },
    "highgenus-epoly": {
        "cli": False,
        "specs": tuple(Spec(g, 0, 2, (1, 3, 5), e_poly=True) for g in (6, 8, 10)),
    },
    "warm-cache-cli": {"cli": True, "specs": RANK3},
}


# ---------------------------------------------------------------- library


def load_library():
    """Import parahiggs afresh from src/, dropping any earlier import.

    A fresh import also empties the library's module-level caches, so what
    runs next starts from the state a new process would have. Earlier imports
    are collected first, so that memory and collector state do not depend on
    how many imports came before.
    """
    if not (SRC / "parahiggs" / "__init__.py").is_file():
        raise MissingLibrary(f"no parahiggs package under {SRC}")
    for name in [m for m in sys.modules if m == "parahiggs" or m.startswith("parahiggs.")]:
        del sys.modules[name]
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("parahiggs")
    importlib.import_module("parahiggs.cli")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise MissingLibrary(f"parahiggs was imported from {lib.__file__}, not {SRC}")
    return lib


def library_containers():
    """Every loaded parahiggs module and every class defined in one."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "parahiggs" or name.startswith("parahiggs.")):
            continue
        out.append(module)
        out.extend(v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == name)
    return out


# ----------------------------------------------------------------- inputs


def draw_inputs(lib, spec, seed, certify=True):
    """Seeded weights and degree for one problem.

    Weights are distinct p/PRIME, sorted per point, and (unless certify is
    False) certified generic at bound rank by parabolic.genericity_check.
    """
    rng = random.Random(f"{seed}/{spec.key}")
    degree = rng.choice(spec.degrees)
    if spec.points == 0:
        return Inputs(spec, degree, ())
    while True:
        points = tuple(
            tuple(sorted(Fraction(rng.randrange(1, PRIME), PRIME) for _ in range(spec.rank)))
            for _ in range(spec.points)
        )
        flat = [w for point in points for w in point]
        if len(set(flat)) != len(flat):
            continue
        if not certify or lib.parabolic.genericity_check(flat, spec.rank):
            return Inputs(spec, degree, points)


def draw_problems(lib, specs, seed):
    """The certified inputs of every problem of a workload, in order."""
    problems = []
    for spec in specs:
        inp = draw_inputs(lib, spec, seed)
        degrees = spec.degrees if spec.every_degree else (inp.degree,)
        problems.extend(replace(inp, degree=d) for d in degrees)
    return problems


def solve(lib, inp, clock):
    """Class string plus requested specializations, timed by `clock`."""
    spec = inp.spec
    with clock:
        zeta = ZETA_G2 if spec.count_q is not None else None
        curve = lib.CurveData(spec.genus, spec.points, zeta)
        if spec.points:
            datum = lib.WeightDatum.full_flags(inp.weights)
        else:
            datum = lib.WeightDatum.empty(0)
        problem = lib.HiggsProblem(curve, spec.rank, inp.degree, datum)
        total = lib.higgs_computation(problem, lib.ChainEngine(curve)).total
        out = {"class": str(total)}
        if spec.e_poly:
            out["e_polynomial"] = str(lib.specialize_E(total))
        if spec.count_q is not None:
            out["point_count"] = str(lib.specialize_count(total, curve, spec.count_q))
    return out


def cli_config(inp):
    spec = inp.spec
    curve = {"genus": spec.genus, "marked_points": spec.points}
    outputs = {"canonical": True}
    if spec.count_q is not None:
        curve["zeta_numerator"] = list(ZETA_G2)
        outputs["point_count"] = {"q": spec.count_q}
    weights = [[str(w) for w in point] for point in inp.weights]
    return {
        "curve": curve,
        "problem": {"kind": "higgs", "rank": spec.rank, "degree": inp.degree,
                    "weights": weights},
        "outputs": outputs,
    }


class CliProblems:
    """Config, cache and report files of the CLI workload in one directory."""

    def __init__(self, workdir, inputs):
        self.workdir = Path(workdir)
        self.cache = self.workdir / "memo-cache.jsonl"
        self.configs = {}
        for inp in inputs:
            path = self.workdir / f"config-{inp.spec.key.replace(',', '_')}.json"
            path.write_text(json.dumps(cli_config(inp), indent=2), encoding="utf-8")
            self.configs[inp.spec.key] = path

    def solve(self, lib, inp, clock):
        config = self.configs[inp.spec.key]
        report_path = config.with_suffix(".report.json")
        argv = ["higgs", "--config", str(config), "--cache", str(self.cache),
                "--format", "json", "--out", str(report_path)]
        with clock:
            code = lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code} on {inp.spec.key}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        out = {"class": report["class"]}
        if "point_count" in report["specializations"]:
            out["point_count"] = report["specializations"]["point_count"]["value"]
        return out


# ------------------------------------------------------------ digest gate


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["problems"]


def gate(reference, spec, out):
    """Mismatches between a problem's outputs and the stored reference."""
    ref = reference.get(spec.key)
    if ref is None:
        return [f"{spec.key}: no reference digest"]
    bad = []
    if sha256(out["class"]) != ref["class_sha256"]:
        bad.append(f"{spec.key}: class digest mismatch")
    if spec.e_poly and sha256(out.get("e_polynomial", "")) != ref.get("e_polynomial_sha256"):
        bad.append(f"{spec.key}: E-polynomial digest mismatch")
    if spec.count_q is not None:
        want = ref.get("point_count", {}).get(str(spec.count_q))
        if out.get("point_count") != want:
            bad.append(f"{spec.key}: point count {out.get('point_count')} != {want}")
    return bad


class Tally:
    """Attempted and failed problems; a failure raised or missed the gate."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, solver, lib, inp, clock=WallClock):
        """Solve one problem, timed by a new `clock`, gate it and return its
        solve time."""
        self.attempted += 1
        timer = clock()
        try:
            out = solver(lib, inp, timer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return timer.seconds
        bad = gate(self.reference, inp.spec, out)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            self.failed += 1
        return timer.seconds


# --------------------------------------------------------------- workload


def run_pass(tally, solver, inputs, wrap=None, clock=WallClock):
    """Every problem once, in order; returns each problem's solve time, as
    `clock` reads it.

    The library is imported afresh before each problem, outside the timed
    region, so no module-level cache carries over from an earlier problem,
    pass or set-up: each problem starts from the state of a new process.
    `wrap(lib)`, if given, is a context manager entered around the problem.
    """
    times = []
    for inp in inputs:
        lib = load_library()
        with wrap(lib) if wrap is not None else nullcontext():
            times.append(tally.run(solver, lib, inp, clock))
    return times


def pass_time(passes):
    """One pass's time: the sum over problems of each problem's median."""
    return sum(statistics.median(times) for times in zip(*passes))


class Workload:
    """One workload: set-up, then closed-loop passes with a single client.
    Set-ups and problems are timed by `clock`."""

    def __init__(self, name, seed, workdir, clock=WallClock):
        self.seed = seed
        self.clock = clock
        self.cli = WORKLOADS[name]["cli"]
        self.specs = WORKLOADS[name]["specs"]
        self.workdir = workdir
        self.tally = Tally(load_reference())
        self.inputs = None
        self.solver = None

    def setup(self):
        """Import, draw and certify inputs; the CLI workload also writes its
        memo cache by one cold run per config. Returns the seconds taken."""
        with self.clock() as timer:
            lib = load_library()
            self.inputs = draw_problems(lib, self.specs, self.seed)
            if self.cli:
                problems = CliProblems(self.workdir, self.inputs)
                problems.cache.unlink(missing_ok=True)
                self.solver = problems.solve
                for inp in self.inputs:
                    self.tally.run(self.solver, lib, inp)
            else:
                self.solver = solve
        return timer.seconds

    def passes(self, seconds, wrap=None, after_pass=None):
        """Passes until `seconds` have elapsed, at least one; each pass is
        the list of its problems' solve times."""
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(self.tally, self.solver, self.inputs, wrap, self.clock))
            if after_pass is not None:
                after_pass()
        return passes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workdir(name):
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"{name}-{os.getpid()}"
    path.mkdir()
    return path
