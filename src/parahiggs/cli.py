"""Batch front end: config-driven runs with canonical classes and reports.

Subcommands: higgs, chain, stack, verify.  Configuration is a JSON document;
exact rationals travel as "p/q" strings.  Structured output is deterministic
apart from the generated_at stamp.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from fractions import Fraction

from .errors import EngineError
from .motive import CurveData, specialize_E, specialize_count
from .parabolic import (
    ChainType,
    WeightDatum,
    certify_generic,
    frac,
    generate_generic_weights,
    require_full_flags,
)
from .chains import compositions
from .engine import ChainEngine
from .higgs import HiggsProblem, higgs_computation, require_desk_scale
from .stacks import bundle_stack_class, flag_class, gl_class, pbundle_stack_class
from . import oracles


class ConfigError(EngineError):
    exit_code = 5


def _req(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    return mapping[key]


def _int(value, what):
    """An integer entry: a JSON integer or a string holding one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _flag(mapping, key):
    """A boolean entry: JSON true or false, false when the key is absent."""
    value = mapping.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _rational(value, what):
    """An exact rational entry: a "p/q" string or a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{what} must be a 'p/q' string, got {value!r}")
    try:
        return frac(value)
    except ZeroDivisionError:
        raise ConfigError(f"{what} has a zero denominator: {value!r}") from None


def _list(value, what):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _entries(problem, key, convert):
    """The problem's list entry under key, each item converted."""
    return tuple(convert(x, key) for x in _list(_req(problem, key, "problem"), key))


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def parse_curve(cfg):
    section = _req(cfg, "curve", "config")
    genus = _int(_req(section, "genus", "curve"), "genus")
    marked = _int(section.get("marked_points", 0), "marked_points")
    zeta = section.get("zeta_numerator")
    if zeta is not None:
        zeta = tuple(
            _int(c, "zeta coefficient") for c in _list(zeta, "zeta_numerator")
        )
    return CurveData(genus, marked, zeta)


def _parse_point_weights(entry):
    """One marked point: list of "p/q" strings or [weight, multiplicity] pairs."""
    out = []
    for item in _list(entry, "a marked point's weights"):
        if isinstance(item, (list, tuple)):
            if len(item) != 2:
                raise ConfigError(f"expected [weight, multiplicity], got {item!r}")
            w, m = item
            out.append((_rational(w, "weight"), _int(m, "multiplicity")))
        else:
            out.append((_rational(item, "weight"), 1))
    return tuple(out)


def parse_datum(raw, rank, k, bound):
    """Weight data for one bundle: explicit per-point lists or "generate"."""
    if raw == "generate":
        return parse_chain_weights("generate", (rank,), k, bound)[0]
    if not isinstance(raw, list) or len(raw) != k:
        raise ConfigError(f"weights must be 'generate' or a {k}-point list")
    return WeightDatum(tuple(_parse_point_weights(entry) for entry in raw))


def parse_chain_weights(raw, ranks, k, bound):
    """Per-index weight data for a chain, or a single "generate" directive."""
    if raw == "generate":
        if k == 0:
            return tuple(WeightDatum.empty(0) for _ in ranks)
        total = sum(ranks)
        flat = generate_generic_weights(total * k, bound)
        data = []
        offset = 0
        for n in ranks:
            points = []
            for p in range(k):
                chunk = flat[p * total + offset : p * total + offset + n]
                points.append(tuple((w, 1) for w in chunk))
            data.append(WeightDatum(tuple(points)))
            offset += n
        return tuple(data)
    if not isinstance(raw, list) or len(raw) != len(ranks):
        raise ConfigError("chain weights must list one datum per chain index")
    return tuple(
        parse_datum(entry, n, k, bound) for entry, n in zip(raw, ranks)
    )


def _datum_json(datum):
    return [
        [[str(w), m] for w, m in point]
        for point in datum.points
    ]


def run(config, trace_walls=False, q_override=None, cache_path=None):
    """Execute one configured problem; returns the report dictionary."""
    curve = parse_curve(config)
    problem = _req(config, "problem", "config")
    kind = _req(problem, "kind", "problem")
    outputs = config.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be a JSON object")
    verify = _flag(config, "verify")
    e_poly = _flag(outputs, "e_polynomial")
    if not isinstance(config.get("cache_path", ""), str):
        raise ConfigError(f"cache_path must be a string, got {config['cache_path']!r}")
    cache_path = cache_path or config.get("cache_path")
    q = None
    if q_override is not None or "point_count" in outputs:
        pc = {"q": q_override} if q_override is not None else outputs["point_count"]
        q = _int(_req(pc, "q", "point_count"), "q")
        if q < 2:
            raise ConfigError(f"point_count q must be at least 2, got {q}")

    seed = {}
    skipped = 0
    if cache_path:
        seed, skipped = _load_cache(cache_path)
    engine = ChainEngine(curve, trace_walls=trace_walls, seed_cache=seed)

    report = {
        "config": json.loads(json.dumps(config)),
        "diagnostics": {},
    }
    stack_class = False

    if kind == "higgs":
        rank = _int(_req(problem, "rank", "problem"), "rank")
        degree = _int(_req(problem, "degree", "problem"), "degree")
        require_desk_scale(rank, curve.num_marked)
        datum = parse_datum(
            _req(problem, "weights", "problem"), rank, curve.num_marked, rank
        )
        report["config"]["problem"]["weights"] = _datum_json(datum)
        comp = higgs_computation(HiggsProblem(curve, rank, degree, datum), engine)
        cls = comp.total
        report["diagnostics"]["half_dimension"] = comp.half_dim
        report["diagnostics"]["dimension"] = 2 * comp.half_dim
        report["diagnostics"]["fixed_point_types"] = len(comp.summands)
    elif kind == "chain":
        ranks = _entries(problem, "ranks", _int)
        degrees = _entries(problem, "degrees", _int)
        alpha = _entries(problem, "alpha", _rational)
        weights = parse_chain_weights(
            _req(problem, "weights", "problem"), ranks, curve.num_marked, sum(ranks)
        )
        report["config"]["problem"]["weights"] = [
            _datum_json(d) for d in weights
        ]
        tau = ChainType(ranks, degrees, weights)
        require_full_flags(tau.weights)
        certify_generic(tau.all_weights(), tau.total_rank)
        cls = engine.chain_class(tau, alpha)
        stack_class = True
    elif kind == "stack-class":
        stack = _req(problem, "stack", "problem")
        rank = _int(_req(problem, "rank", "problem"), "rank")
        degree = _int(problem.get("degree", 0), "degree")
        if stack == "gl":
            cls = gl_class(rank, curve.genus)
        elif stack == "flag":
            flag_type = _entries(problem, "flag_type", _int)
            cls = flag_class(rank, flag_type, curve.genus)
        elif stack == "bundle":
            cls = bundle_stack_class(rank, degree, curve)
            stack_class = True
        elif stack == "pbundle":
            datum = parse_datum(
                _req(problem, "weights", "problem"), rank, curve.num_marked, rank
            )
            report["config"]["problem"]["weights"] = _datum_json(datum)
            cls = pbundle_stack_class(rank, degree, datum, curve)
            stack_class = True
        else:
            raise ConfigError(f"unknown stack {stack!r}")
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")

    report["class"] = str(cls)
    report["stack_class"] = stack_class
    specs = {}
    if e_poly:
        specs["e_polynomial"] = str(specialize_E(cls))
    if q is not None:
        specs["point_count"] = {"q": q, "value": str(specialize_count(cls, curve, q))}
    report["specializations"] = specs
    report["diagnostics"]["wall_count"] = engine.stats["walls_crossed"]
    report["diagnostics"]["memo_entries"] = len(engine.memo)
    for name in ("seed_cache_hits", "memo_hits", "base_cases"):
        report["diagnostics"][name] = engine.stats[name]
    if trace_walls:
        report["diagnostics"]["walls"] = engine.wall_trace
    if verify:
        report["diagnostics"]["oracle_checks"] = _verify_checks()

    skipped += engine.stats["cache_records_skipped"]
    if skipped:
        print(f"warning: skipped {skipped} corrupt cache records", file=sys.stderr)
        report["diagnostics"]["cache_records_skipped"] = skipped
    if cache_path:
        _append_cache(cache_path, engine.new_cache_entries)
    return report


# ---------------------------------------------------------------------------
# verification battery exposed through the CLI


def _verify_checks():
    checks = []

    ok = True
    point = CurveData(0, 0, (1,))
    for n in range(1, 4):
        for q in (2, 3):
            for r_vec in compositions(n):
                got = specialize_count(flag_class(n, r_vec), point, q)
                if got != oracles.gaussian_flag_count(n, r_vec, q):
                    ok = False
    checks.append({"name": "flag-vs-gaussian", "passed": ok})

    ok = True
    for gg in (0, 1, 2):
        for kk in (0, 1):
            curve2 = CurveData(gg, kk)
            if kk == 0:
                datum = WeightDatum.empty(0)
            else:
                datum = WeightDatum.full_flags(
                    [[w] for w in generate_generic_weights(kk, 1)]
                )
            comp = higgs_computation(HiggsProblem(curve2, 1, 0, datum))
            if comp.total != oracles.rank1_higgs_oracle(gg, kk):
                ok = False
    checks.append({"name": "rank1-closed-form", "passed": ok})

    ok = True
    curve2 = CurveData(2, 1)
    ws = generate_generic_weights(2, 2)
    engine = ChainEngine(curve2)
    alpha = (Fraction(0), Fraction(2))
    for d0 in (-1, 0, 1):
        for d1 in (-1, 0, 1):
            tau = ChainType(
                (1, 1),
                (d0, d1),
                (
                    WeightDatum.full_flags([[ws[0]]]),
                    WeightDatum.full_flags([[ws[1]]]),
                ),
            )
            got = engine.chain_class(tau, alpha)
            want = oracles.rank11_chain_oracle(
                2, 1, d0, d1, [ws[0]], [ws[1]], alpha
            )
            if got != want:
                ok = False
    checks.append({"name": "rank11-chain-grid", "passed": ok})

    # the two specializations read the ring map through different integers
    ok = True
    for gg in (2, 3):
        total = higgs_computation(
            HiggsProblem(CurveData(gg, 0), 2, 1, WeightDatum.empty(0))
        ).total
        e_poly = specialize_E(total)
        for a, b in ((2, 3), (3, 5)):
            split = CurveData(gg, 0, oracles.split_zeta_numerator(gg, a, b))
            value = sum(c * a ** i * b ** j for (i, j), c in e_poly.num.items())
            if not e_poly.is_polynomial or value != specialize_count(total, split, a * b):
                ok = False
    checks.append({"name": "e-vs-split-count", "passed": ok})
    return checks


# ---------------------------------------------------------------------------
# memo cache file


def _load_cache(path):
    seed = {}
    skipped = 0
    try:
        with open(path, "rb") as fh:
            for raw in fh:
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    key, cls = record["key"], record["class"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    skipped += 1
                    continue
                if isinstance(key, str) and isinstance(cls, str):
                    seed[key] = cls
                else:
                    skipped += 1
    except FileNotFoundError:
        pass
    return seed, skipped


def _append_cache(path, entries):
    if not entries:
        return
    with open(path, "a", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(json.dumps({"key": key, "class": entries[key]}) + "\n")


# ---------------------------------------------------------------------------
# emission


def emit(report, format="text"):
    """Render a report; the structured form is a single JSON document."""
    if format == "json":
        payload = dict(report)
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = []
    diag = report.get("diagnostics", {})
    lines.append(f"class: {report.get('class', '-')}")
    if report.get("stack_class"):
        lines.append("note: stack class (denominator carries automorphisms)")
    for name, value in sorted(report.get("specializations", {}).items()):
        lines.append(f"{name}: {value}")
    for name in ("half_dimension", "dimension", "fixed_point_types", "wall_count", "memo_entries"):
        if name in diag:
            lines.append(f"{name}: {diag[name]}")
    for check in diag.get("oracle_checks", []):
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"verify {check['name']}: {status}")
    for wall in diag.get("walls", []):
        lines.append(
            f"wall t={wall['t']} strata={wall['strata']} hash={wall['class_hash']}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="parahiggs",
        description="Exact motivic classes of parabolic Higgs moduli and chain stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("higgs", "chain", "stack", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON problem description")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cache", help="append-only memo cache path")
        p.add_argument("--trace-walls", action="store_true")
        p.add_argument("--q", type=int, help="prime power for point counts")
    args = parser.parse_args(argv)

    kind_map = {"higgs": "higgs", "chain": "chain", "stack": "stack-class"}
    try:
        if args.command == "verify":
            if args.config:
                config = load_config(args.config)
                config["verify"] = True
            else:
                config = {
                    "curve": {"genus": 2, "marked_points": 1},
                    "problem": {
                        "kind": "higgs",
                        "rank": 1,
                        "degree": 0,
                        "weights": "generate",
                    },
                    "verify": True,
                }
        else:
            if not args.config:
                parser.error(f"{args.command} requires --config")
            config = load_config(args.config)
            expected = kind_map[args.command]
            problem = config.setdefault("problem", {})
            if not isinstance(problem, dict):
                raise ConfigError("problem must be a JSON object")
            got = problem.setdefault("kind", expected)
            if got != expected:
                raise ConfigError(
                    f"config problem kind {got!r} does not match subcommand"
                )
        report = run(
            config,
            trace_walls=args.trace_walls,
            q_override=args.q,
            cache_path=args.cache,
        )
        text = emit(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        checks = report.get("diagnostics", {}).get("oracle_checks", [])
        if any(not c["passed"] for c in checks):
            return 6
        return 0
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
