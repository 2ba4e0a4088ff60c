"""Span tracing of parahiggs from the outside, by wrapping its functions.

Each wrapped call records a span (name, start, end, parent span index).
Spans stay in memory; per-layer self times are derived at the end, where a
span's self time is its duration minus the time its child spans cover.
Every name binding of a wrapped function (module globals, re-exports and
class attributes) is patched, and every original is restored on exit. The
library is imported afresh before each problem, so one Tracer is attached to
each import in turn and gathers spans and counters across all of them.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from harness import library_containers

# Span name -> functions it covers, as (module, attribute path).
SPANS = {
    "parabolic.genericity_check": [("parabolic", "genericity_check")],
    "parabolic.enumerate_weight_splits": [("parabolic", "enumerate_weight_splits")],
    "chains.enumerate_degree_vectors": [("chains", "enumerate_degree_vectors")],
    "chains.necessary_conditions": [("chains", "necessary_conditions")],
    "chains.enumerate_gap_profiles": [("chains", "enumerate_gap_profiles")],
    "chains.index_weight_splits": [("chains", "index_weight_splits")],
    "walls.wall_positions": [("walls", "wall_positions")],
    "walls.is_on_wall": [("walls", "is_on_wall")],
    "walls.cross_ray": [("walls", "cross_ray")],
    "engine.chain_class": [("engine", "ChainEngine.chain_class")],
    "engine.strata_at_wall": [("engine", "ChainEngine.strata_at_wall")],
    "stacks.pbundle_stack_class": [("stacks", "pbundle_stack_class")],
    "stacks.flag_class": [("stacks", "flag_class")],
    "motive.sym_cxp_coeff": [("motive", "sym_cxp_coeff")],
    # __radd__ and __rmul__ are the same objects as __add__ and __mul__.
    "motive.arith": [("motive", f"MotiveClass.{m}") for m in (
        "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
        "__rtruediv__", "__neg__")],
    "motive.specialize_E": [("motive", "specialize_E")],
    "motive.specialize_count": [("motive", "specialize_count")],
    "motive.parse_class": [("motive", "parse_class")],
    "motive.format": [("motive", "MotiveClass.__str__")],
    "poly.u_gcd": [("poly", "u_gcd")],
    "poly.u_divmod_frac": [("poly", "u_divmod_frac")],
    "higgs.enumerate_fixed_types": [("higgs", "enumerate_fixed_types")],
    "cli.main": [("cli", "main")],
    "cli.cache_io": [("cli", "_load_cache"), ("cli", "_append_cache")],
    "cli.emit": [("cli", "emit")],
}

# Generators are drained inside their span so that the span covers the work.
DRAINED = {"chains.index_weight_splits"}

# Span names whose distinct-argument ratio is reported.
DISTINCT = {"parabolic.enumerate_weight_splits", "chains.enumerate_degree_vectors"}

# Per-layer metrics, in report order: (name, unit, better).
PER_LAYER = []
for _name, _fields in [
    ("parabolic.genericity_check", ("self_s", "calls", "vectors")),
    ("parabolic.enumerate_weight_splits", ("self_s", "calls", "distinct_ratio")),
    ("chains.enumerate_degree_vectors", ("self_s", "calls", "distinct_ratio", "vectors_out")),
    ("chains.necessary_conditions", ("self_s", "calls", "pass_ratio")),
    ("chains.enumerate_gap_profiles", ("self_s",)),
    ("chains.index_weight_splits", ("self_s", "calls")),
    ("walls.wall_positions", ("self_s", "calls")),
    ("walls.is_on_wall", ("self_s", "calls")),
    ("walls.cross_ray", ("self_s",)),
    ("engine.chain_class", ("self_s", "calls")),
    ("engine.strata_at_wall", ("self_s", "calls")),
    ("stacks.pbundle_stack_class", ("self_s",)),
    ("stacks.flag_class", ("self_s",)),
    ("motive.sym_cxp_coeff", ("self_s",)),
    ("motive.arith", ("self_s", "calls")),
    ("motive.specialize_E", ("self_s",)),
    ("motive.specialize_count", ("self_s",)),
    ("motive.parse_class", ("self_s", "calls")),
    ("motive.format", ("self_s",)),
    ("poly.u_gcd", ("self_s", "calls")),
    ("poly.u_divmod_frac", ("self_s", "calls")),
    ("higgs.enumerate_fixed_types", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.cache_io", ("self_s",)),
    ("cli.emit", ("self_s",)),
]:
    for _field in _fields:
        _unit = {"self_s": "s", "distinct_ratio": "ratio", "pass_ratio": "ratio"}.get(_field, "count")
        _better = "higher" if _field.endswith("ratio") else "lower"
        PER_LAYER.append((f"{_name}.{_field}", _unit, _better))
PER_LAYER += [
    ("walls.walls_crossed", "count", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.seed_cache_hits", "count", "higher"),
    ("engine.base_cases", "count", "lower"),
    ("engine.strata_kept", "count", "lower"),
    ("higgs.fixed_types", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def _arg_key(args, kwargs):
    return args, tuple(sorted(kwargs.items()))


def _resolve(lib, module, path):
    """The function object at `path` in a library module; methods are read
    from the class dictionary, not through the descriptor protocol."""
    owner = getattr(lib, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


class Tracer:
    """Wraps one library import at a time; records spans and counters."""

    def __init__(self):
        self.spans = []  # a str while the span is open, then (name, start, end, parent)
        self.stack = []  # indices of open spans
        self.counters = Counter()
        self.arg_keys = defaultdict(set)  # distinct arguments in this pass
        self.distinct = Counter()  # distinct arguments, summed over passes
        self.engines = []
        self._patches = []  # (container, key, original)

    # -------------------------------------------------------------- wrapping

    def _span_wrapper(self, name, fn, on_return):
        spans, stack, clock = self.spans, self.stack, perf_counter
        drain = name in DRAINED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(name)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_return(self, name, fn):
        """Counter hook for the span, or None when it only counts calls."""
        counters, arg_keys = self.counters, self.arg_keys
        if name == "parabolic.genericity_check":
            sig = inspect.signature(fn)

            def hook(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                count = len(bound.arguments["all_weights"])
                counters[name + ".vectors"] += (2 * bound.arguments["N"] + 1) ** count
            return hook
        if name == "chains.enumerate_degree_vectors":
            def hook(args, kwargs, result):
                arg_keys[name].add(_arg_key(args, kwargs))
                counters[name + ".vectors_out"] += len(result)
            return hook
        if name in DISTINCT:
            def hook(args, kwargs, result):
                arg_keys[name].add(_arg_key(args, kwargs))
            return hook
        if name == "chains.necessary_conditions":
            def hook(args, kwargs, result):
                counters[name + ".passed"] += bool(result)
            return hook
        if name == "engine.strata_at_wall":
            def hook(args, kwargs, result):
                counters["engine.strata_kept"] += result[1]
            return hook
        if name == "higgs.enumerate_fixed_types":
            def hook(args, kwargs, result):
                counters["higgs.fixed_types"] += len(result)
            return hook
        return None

    def _parse_wrapper(self, fn):
        """Ring.parse inside ChainEngine.chain_class is a seed-cache hit."""
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]] == "engine.chain_class":
                counters["engine.seed_cache_hits"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _init_wrapper(self, fn):
        engines = self.engines

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            engines.append(engine)

        return wrapper

    def _replace(self, original, wrapper):
        """Rebind every name that refers to `original` in the library."""
        found = False
        for container in library_containers():
            for key, value in list(vars(container).items()):
                if value is original:
                    self._patches.append((container, key, original))
                    setattr(container, key, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound nowhere in the library")

    @contextmanager
    def attached(self, lib):
        """Wrap the functions of `lib` for the body of the with-statement."""
        plan = []
        for name, targets in SPANS.items():
            for module, path in targets:
                fn = _resolve(lib, module, path)
                plan.append((fn, self._span_wrapper(name, fn, self._on_return(name, fn))))
        parse = _resolve(lib, "motive", "Ring.parse")
        plan.append((parse, self._parse_wrapper(parse)))
        init = _resolve(lib, "engine", "ChainEngine.__init__")
        plan.append((init, self._init_wrapper(init)))
        try:
            for original, wrapper in plan:
                self._replace(original, wrapper)
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._patches:
            container, key, original = self._patches.pop()
            setattr(container, key, original)

    # ------------------------------------------------------------- results

    def end_pass(self):
        """Close a pass: distinct arguments are counted within each pass."""
        for name, keys in self.arg_keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def self_times(self):
        """Self seconds and call count per span name, and root-span cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        return self_s, calls, covered

    def metrics(self, traced_s, passes, untraced_pass_s):
        """Per-layer metrics per traced pass; `traced_s` is the traced passes'
        total solve time, over `passes` passes, and `untraced_pass_s` the
        pass time with tracing off."""
        self_s, calls, covered = self.self_times()
        c = self.counters
        values = {}
        for name, _unit, _better in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field == "self_s":
                values[name] = self_s[layer] / passes
            elif field == "calls":
                values[name] = calls[layer] / passes
            elif field == "distinct_ratio":
                values[name] = self.distinct[layer] / calls[layer] if calls[layer] else 0.0
            elif field == "pass_ratio":
                values[name] = c[layer + ".passed"] / calls[layer] if calls[layer] else 0.0
        stats = Counter()
        for engine in self.engines:
            stats.update(engine.stats)
        values["parabolic.genericity_check.vectors"] = c["parabolic.genericity_check.vectors"] / passes
        values["chains.enumerate_degree_vectors.vectors_out"] = (
            c["chains.enumerate_degree_vectors.vectors_out"] / passes)
        values["walls.walls_crossed"] = stats["walls_crossed"] / passes
        values["engine.memo_hit_ratio"] = (
            stats["memo_hits"] / stats["chain_class_calls"] if stats["chain_class_calls"] else 0.0)
        values["engine.seed_cache_hits"] = c["engine.seed_cache_hits"] / passes
        values["engine.base_cases"] = stats["base_cases"] / passes
        values["engine.strata_kept"] = c["engine.strata_kept"] / passes
        values["higgs.fixed_types"] = c["higgs.fixed_types"] / passes
        values["trace.overhead_ratio"] = (traced_s / passes) / untraced_pass_s
        values["trace.unattributed_s"] = (traced_s - covered) / passes
        return values

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
