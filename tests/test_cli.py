"""Config-driven runs, emission formats, caching, determinism, exit codes."""

import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from parahiggs import (
    HiggsProblem, cli, engine, generate_generic_weights, higgs_moduli_class, motive,
    oracles, specialize_E,
)
from parahiggs.cli import ConfigError, emit, main, run
from parahiggs.motive import parse_class
from parahiggs.parabolic import WeightDatum
from parahiggs.stacks import pbundle_stack_class


HIGGS_CFG = {
    "curve": {"genus": 2, "marked_points": 1, "zeta_numerator": [1, 0, 0, 0, 4]},
    "problem": {"kind": "higgs", "rank": 1, "degree": 0, "weights": "generate"},
    "outputs": {"canonical": True, "e_polynomial": True, "point_count": {"q": 2}},
}

CHAIN_CFG = {
    "curve": {"genus": 2, "marked_points": 0},
    "problem": {
        "kind": "chain",
        "ranks": [1],
        "degrees": [0],
        "weights": [[]],
        "alpha": ["0"],
    },
    "outputs": {"canonical": True},
}


def test_higgs_run_report():
    report = run(json.loads(json.dumps(HIGGS_CFG)))
    assert report["class"] == "L^2 * Pic"
    assert report["specializations"]["point_count"]["value"] == "20"
    assert report["diagnostics"]["half_dimension"] == 2
    assert report["diagnostics"]["dimension"] == 4
    # generated weights are materialized in the echoed config
    assert report["config"]["problem"]["weights"] == [[["2/3", 1]]]


def test_chain_run_stack_flag():
    report = run(json.loads(json.dumps(CHAIN_CFG)))
    assert report["class"] == "(Pic) / ((L - 1))"
    assert report["stack_class"] is True


def test_structured_round_trip():
    report = run(json.loads(json.dumps(HIGGS_CFG)))
    text = emit(report, "json")
    payload = json.loads(text)
    cls = parse_class(payload["class"], 2)
    assert str(cls) == report["class"]


def test_text_and_json_carry_same_class():
    report = run(json.loads(json.dumps(HIGGS_CFG)))
    text = emit(report, "text")
    payload = json.loads(emit(report, "json"))
    assert f"class: {payload['class']}" in text


def test_determinism_modulo_timestamp():
    a = json.loads(emit(run(json.loads(json.dumps(HIGGS_CFG))), "json"))
    b = json.loads(emit(run(json.loads(json.dumps(HIGGS_CFG))), "json"))
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_malformed_weights_rejected(tmp_path):
    cfg = json.loads(json.dumps(HIGGS_CFG))
    cfg["problem"]["weights"] = [["3/2"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["higgs", "--config", str(path)])
    assert code != 0


def test_wall_hit_exit_code(tmp_path):
    cfg = {
        "curve": {"genus": 2, "marked_points": 0},
        "problem": {
            "kind": "chain",
            "ranks": [1, 1],
            "degrees": [2, 0],
            "weights": [[], []],
            "alpha": ["0", "2"],
        },
    }
    path = tmp_path / "wall.json"
    path.write_text(json.dumps(cfg))
    code = main(["chain", "--config", str(path)])
    assert code == 2


def test_non_generic_exit_code(tmp_path):
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {
            "kind": "higgs",
            "rank": 2,
            "degree": 0,
            "weights": [["1/4", "1/2"]],
        },
    }
    path = tmp_path / "nongen.json"
    path.write_text(json.dumps(cfg))
    code = main(["higgs", "--config", str(path)])
    assert code == 3


def test_non_generic_chain_weights_rejected(tmp_path):
    """The chain kind certifies its weights before the engine runs."""
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {
            "kind": "chain",
            "ranks": [1, 1],
            "degrees": [0, 0],
            "weights": [[["1/2"]], [["1/4"]]],
            "alpha": ["0", "2"],
        },
    }
    path = tmp_path / "nongen-chain.json"
    path.write_text(json.dumps(cfg))
    assert main(["chain", "--config", str(path)]) == 3


@pytest.mark.parametrize("kind, ranks, weights", [
    ("higgs", None, [[["1/5", 2], "2/5"]]),
    ("chain", [2, 1], [[[["1/5", 2]]], [["2/5"]]]),
], ids=["higgs", "chain"])
def test_non_full_flag_exit_code(tmp_path, capsys, kind, ranks, weights):
    """A weight of multiplicity two at a point exits 16 (InvalidFlagType)
    naming the point and its flag type, before the genericity check would
    exit 3 on the repeated weight."""
    problem = {"kind": kind, "degree": 0, "rank": 3, "weights": weights}
    if ranks:
        problem = {"kind": kind, "ranks": ranks, "degrees": [0, 0],
                   "weights": weights, "alpha": ["0", "2"]}
    path = tmp_path / f"{kind}-flag.json"
    path.write_text(json.dumps({"curve": {"genus": 2, "marked_points": 1},
                                "problem": problem}))
    assert main([kind, "--config", str(path)]) == 16
    assert "point 0 has flag type (2," in capsys.readouterr().err


def _with(update):
    cfg = json.loads(json.dumps(HIGGS_CFG))
    cfg.update(update)
    return cfg


# the projective line: its chain classes have the denominator L - 1
P1 = {"genus": 0, "marked_points": 0, "zeta_numerator": [1]}


def _chain_with(update):
    cfg = json.loads(json.dumps(CHAIN_CFG))
    cfg.update(update)
    return cfg


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["higgs"], _with({"problem": dict(HIGGS_CFG["problem"], weights=[[0.25, 0.5]])})),
        (["higgs"], _with({"curve": dict(HIGGS_CFG["curve"], zeta_numerator=5)})),
        (["higgs"], [1, 2]),
        (["higgs"], _with({"curve": 3})),
        (["higgs"], _with({"problem": dict(HIGGS_CFG["problem"], weights=[["1/0"]])})),
        (["chain"], _chain_with({"problem": dict(CHAIN_CFG["problem"], alpha=["1/0"])})),
        (["chain"], _chain_with({"curve": P1, "outputs": {"point_count": {"q": 1}}})),
        (["chain", "--q", "1"], _chain_with({"curve": P1})),
        (["chain"], _chain_with({"curve": P1, "outputs": {"point_count": {"q": 0}}})),
        (["chain", "--q", "-3"], _chain_with({"curve": P1})),
        (["higgs"], _with({"cache_path": ["x"]})),
        (["higgs"], _with({"cache_path": True})),
        (["chain"], _chain_with({"problem": dict(
            CHAIN_CFG["problem"], ranks=[], degrees=[], weights=[], alpha=[])})),
        (["higgs"], _with({"verify": "false"})),
        (["higgs"], _with({"outputs": {"e_polynomial": "no"}})),
        *((["chain"], _chain_with({"curve": P1, "outputs": {"point_count": pc}}))
          for pc in (0, [], "", False, None, {})),
    ],
    ids=[
        "float-weights", "scalar-zeta", "top-level-array", "scalar-curve",
        "zero-denominator-weight", "zero-denominator-alpha", "q-one", "q-one-flag",
        "q-zero", "q-negative-flag", "cache-path-list", "cache-path-true",
        "empty-chain", "verify-string", "e-polynomial-string",
        "point-count-zero", "point-count-list", "point-count-string",
        "point-count-false", "point-count-null", "point-count-empty",
    ],
)
def test_malformed_config_exit_code(tmp_path, capsys, argv, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(path)]) == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in err[0]
    # only an absent point_count means none; any present value is checked
    if isinstance(cfg, dict) and "point_count" in cfg.get("outputs", {}):
        pc = cfg["outputs"]["point_count"]
        if not isinstance(pc, dict):
            assert err[0] == "error: point_count must be a JSON object"
        elif not pc:
            assert err[0] == "error: missing 'q' in point_count"


def test_higgs_rank_gate_precedes_weight_generation(tmp_path, monkeypatch):
    """Rank 14 exits 21 before the weights are generated: the gate reads
    only the rank and the number of marked points."""

    def refuse(*args):
        raise AssertionError("weights generated before the rank gate")

    monkeypatch.setattr(cli, "generate_generic_weights", refuse)
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": 14, "degree": 0, "weights": "generate"},
    }
    path = tmp_path / "rank14.json"
    path.write_text(json.dumps(cfg))
    assert main(["higgs", "--config", str(path)]) == 21


def test_higgs_weight_generation_fails_fast(tmp_path, monkeypatch):
    """Rank 3 at nine points of genus 0 generates its 27 weights over a
    17-digit prime at once, then exits 17 on an unbounded degree box."""
    spent = []

    def timed(*args):
        start = time.perf_counter()
        try:
            return generate_generic_weights(*args)
        finally:
            spent.append(time.perf_counter() - start)

    monkeypatch.setattr(cli, "generate_generic_weights", timed)
    cfg = {
        "curve": {"genus": 0, "marked_points": 9},
        "problem": {"kind": "higgs", "rank": 3, "degree": 1, "weights": "generate"},
    }
    path = tmp_path / "higgs093.json"
    path.write_text(json.dumps(cfg))
    assert main(["higgs", "--config", str(path)]) == 17
    assert len(spent) == 1 and spent[0] < 1.0


def test_stack_e_polynomial_denominator_text(tmp_path, capsys):
    cfg = {
        "curve": {"genus": 2},
        "problem": {"kind": "stack-class", "stack": "bundle", "rank": 2},
        "outputs": {"e_polynomial": True},
    }
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(cfg))
    assert main(["stack", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    (line,) = [s for s in out if s.startswith("e_polynomial: ")]
    assert line.endswith(") / (u^4*v^4 - 2*u^3*v^3 + 2*u*v - 1)")


def test_subcommand_kind_mismatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HIGGS_CFG))
    assert main(["chain", "--config", str(path)]) == 5


def test_stack_subcommand(tmp_path):
    cfg = {
        "curve": {"genus": 0, "marked_points": 0},
        "problem": {"kind": "stack-class", "stack": "flag", "rank": 3, "flag_type": [1, 1, 1]},
    }
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["stack", "--config", str(path), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["class"] == "L^3 + 2 * L^2 + 2 * L + 1"


def test_stack_class_gl():
    report = run({
        "curve": {"genus": 2, "marked_points": 0},
        "problem": {"kind": "stack-class", "stack": "gl", "rank": 3},
    })
    assert report["class"] == "L^9 - L^8 - L^7 + L^5 + L^4 - L^3"
    assert report["stack_class"] is False


def test_stack_class_pbundle():
    curve = motive.CurveData(2, 1)
    report = run({
        "curve": {"genus": curve.genus, "marked_points": curve.num_marked},
        "problem": {"kind": "stack-class", "stack": "pbundle", "rank": 2,
                    "weights": [["1/7", "3/7"]]},
    })
    datum = WeightDatum.full_flags([[Fraction(1, 7), Fraction(3, 7)]])
    assert report["class"] == str(pbundle_stack_class(2, 0, datum, curve))
    assert report["stack_class"] is True
    assert report["config"]["problem"]["weights"] == [[["1/7", 1], ["3/7", 1]]]


def _pbundle_rank3(weights):
    return {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "stack-class", "stack": "pbundle", "rank": 3,
                    "weights": weights},
    }


def test_weight_multiplicity_pairs():
    report = run(_pbundle_rank3([[["1/5", 2], ["3/5", 1]]]))
    datum = WeightDatum((((Fraction(1, 5), 2), (Fraction(3, 5), 1)),))
    assert report["class"] == str(pbundle_stack_class(3, 0, datum, motive.CurveData(2, 1)))
    assert report["stack_class"] is True
    assert report["config"]["problem"]["weights"] == [[["1/5", 2], ["3/5", 1]]]


@pytest.mark.parametrize(
    "weights, message",
    [
        ([[["1/5"]]], "error: expected [weight, multiplicity], got ['1/5']"),
        ([[["1/5", 0], ["3/5", 3]]], "multiplicities must be positive"),
    ],
    ids=["short-pair", "zero-multiplicity"],
)
def test_malformed_weight_pairs_exit_code(tmp_path, capsys, weights, message):
    path = tmp_path / "pbundle.json"
    path.write_text(json.dumps(_pbundle_rank3(weights)))
    assert main(["stack", "--config", str(path)]) == 5
    assert message in capsys.readouterr().err


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "memo.jsonl"
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": 2, "degree": 1, "weights": "generate"},
        "outputs": {"canonical": True},
    }
    first = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    assert cache.exists() and cache.read_text().strip()
    # corrupt one record; it must be skipped, and results must not change
    lines = cache.read_text().strip().split("\n")
    lines.insert(1, "{broken json")
    cache.write_text("\n".join(lines) + "\n")
    second = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    assert first["class"] == second["class"]
    assert second["diagnostics"]["cache_records_skipped"] == 1
    third = run(json.loads(json.dumps(cfg)))
    assert third["class"] == first["class"]


def test_corrupt_cache_records_skipped(tmp_path, capsys):
    """A record with a non-string key or class is dropped when the cache is
    read; one whose class does not parse, or holds an exponent or a power of
    a sum above the parser's bounds, is computed when it is hit."""
    cache = tmp_path / "memo.jsonl"
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": 2, "degree": 1, "weights": "generate"},
        "outputs": {"canonical": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cold = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    # the rank-2 bundle and the (1,1) chains at the staircase parameter are
    # fixed-point types, so the warm run looks them up
    (bundle,) = [r["key"] for r in records if "#n=2#" in r["key"]]
    chain, other_chain = [
        r["key"] for r in records
        if "#n=1,1#" in r["key"] and r["key"].endswith("#a=0,2")
    ][:2]
    with cache.open("a", encoding="utf-8") as fh:
        for record in (
            {"key": bundle, "class": "L +"},
            {"key": bundle, "class": 5},
            {"key": 7, "class": "L"},
            {"key": chain, "class": "L^99999999999"},
            {"key": other_chain, "class": "(L + Pic + C1)^1000"},
        ):
            fh.write(json.dumps(record) + "\n")
    capsys.readouterr()
    out = tmp_path / "warm.json"
    argv = ["higgs", "--config", str(path), "--cache", str(cache),
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    warm = json.loads(out.read_text())
    assert warm["class"] == cold["class"]
    assert warm["diagnostics"]["cache_records_skipped"] == 5
    assert "warning: skipped 5 corrupt cache records" in capsys.readouterr().err


def _warm_cli_run(tmp_path, corrupt, rank=2):
    """A cold run writes the cache, corrupt(cache) damages it, and a warm
    cli.main run reads it; returns the cold and warm reports."""
    cache = tmp_path / "memo.jsonl"
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": rank, "degree": 1, "weights": "generate"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cold = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    corrupt(cache)
    out = tmp_path / "warm.json"
    argv = ["higgs", "--config", str(path), "--cache", str(cache),
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    return cold, json.loads(out.read_text())


def test_cache_line_that_is_not_utf8_is_one_skipped_record(tmp_path):
    def corrupt(cache):
        with cache.open("ab") as fh:
            fh.write(b"\xff\xfe garbage\n")

    cold, warm = _warm_cli_run(tmp_path, corrupt)
    assert warm["class"] == cold["class"]
    assert warm["diagnostics"]["cache_records_skipped"] == 1
    assert warm["diagnostics"]["seed_cache_hits"] >= 1


def test_deeply_nested_cache_class_is_one_skipped_record(tmp_path):
    """A class nested past the parser's depth bound is a corrupt record that
    is computed instead, not a RecursionError."""
    def corrupt(cache):
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        (bundle,) = [r["key"] for r in records if "#n=2#" in r["key"]]
        chain = next(r["key"] for r in records
                     if "#n=1,1#" in r["key"] and r["key"].endswith("#a=0,2"))
        with cache.open("a", encoding="utf-8") as fh:
            for key, text in ((bundle, "(" * 300 + "L" + ")" * 300),
                              (chain, "-" * 3000 + "L")):
                fh.write(json.dumps({"key": key, "class": text}) + "\n")

    cold, warm = _warm_cli_run(tmp_path, corrupt)
    assert warm["class"] == cold["class"]
    assert warm["diagnostics"]["cache_records_skipped"] == 2


def test_warm_run_parses_each_distinct_text_once(tmp_path, monkeypatch):
    """The engine parses each distinct seed-cache text once and counts every
    hit; a corrupt text is parsed and skipped at each of its hits."""
    parse, key_str = motive.parse_class, engine.chain_key_str
    seed, parsed, looked_up = {}, [], []

    def record(cache):
        for line in cache.read_text().splitlines():
            seed[json.loads(line)["key"]] = json.loads(line)["class"]
        parsed.clear()
        monkeypatch.setattr(motive, "parse_class",
                            lambda text, genus: parsed.append(text) or parse(text, genus))
        monkeypatch.setattr(engine, "chain_key_str",
                            lambda *args: looked_up.append(key_str(*args)) or looked_up[-1])

    (tmp_path / "clean").mkdir()
    cold, warm = _warm_cli_run(tmp_path / "clean", record, rank=3)
    hits = [key for key in looked_up if key in seed]
    texts = {seed[key] for key in hits}
    assert warm["class"] == cold["class"]
    assert warm["diagnostics"]["seed_cache_hits"] == len(hits) > len(texts)
    assert sorted(parsed) == sorted(texts)

    bad = "(L +"

    def corrupt(cache):
        record(cache)
        with cache.open("a", encoding="utf-8") as fh:
            for key in hits[:2]:
                fh.write(json.dumps({"key": key, "class": bad}) + "\n")

    (tmp_path / "corrupt").mkdir()
    cold, warm = _warm_cli_run(tmp_path / "corrupt", corrupt, rank=3)
    assert warm["class"] == cold["class"]
    assert warm["diagnostics"]["cache_records_skipped"] == 2
    assert parsed.count(bad) == 2
    others = [text for text in parsed if text != bad]
    assert len(others) == len(set(others)) > 0


def test_seed_cache_hits_counted(tmp_path):
    cache = tmp_path / "memo.jsonl"
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": 2, "degree": 1, "weights": "generate"},
        "outputs": {"canonical": True},
    }
    cold = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    assert cold["diagnostics"]["seed_cache_hits"] == 0
    warm = run(json.loads(json.dumps(cfg)), cache_path=str(cache))
    assert warm["diagnostics"]["seed_cache_hits"] >= 1
    assert warm["class"] == cold["class"]


def test_trace_walls_diagnostics():
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {"kind": "higgs", "rank": 3, "degree": 0, "weights": "generate"},
    }
    report = run(json.loads(json.dumps(cfg)), trace_walls=True)
    assert "walls" in report["diagnostics"]
    assert report["diagnostics"]["wall_count"] >= 1
    for wall in report["diagnostics"]["walls"]:
        assert set(wall) == {"type", "t", "strata", "class_hash"}
    assert sum(wall["strata"] for wall in report["diagnostics"]["walls"]) >= 1


def test_whole_index_subtypes_pin_their_degrees(tmp_path, capsys):
    """At alpha = (0, 110/29) the (1,1) chain of degrees (2, 0) has the slope
    that a sub-type of profile (0, 1) and degree total 2 would have, but the
    only such sub-chain is the second line bundle, of degree 0: the
    parameter is on no wall, and the class is the direct classification's."""
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {
            "kind": "chain",
            "ranks": [1, 1],
            "degrees": [2, 0],
            "weights": [[["3/29"]], [["9/29"]]],
            "alpha": ["0", "110/29"],
        },
    }
    path = tmp_path / "chain11.json"
    path.write_text(json.dumps(cfg))
    assert main(["chain", "--config", str(path)]) == 0
    want = oracles.rank11_chain_oracle(
        2, 1, 2, 0, [Fraction(3, 29)], [Fraction(9, 29)], (0, Fraction(110, 29))
    )
    assert f"class: {want}" in capsys.readouterr().out.splitlines()
    assert str(want) == "(L * Pic + Pic^2) / ((L - 1))"


RANK22 = {
    "curve": {"genus": 2, "marked_points": 1},
    "problem": {
        "kind": "chain",
        "ranks": [2, 2],
        "degrees": [2, 3],
        "alpha": ["0", "2"],
        "weights": [[["5/3121", "25/3121"]], [["125/3121", "625/3121"]]],
    },
}


def test_rank2_link_with_forced_vanishing_fails_fast(tmp_path, capsys):
    """Each weight of the upper bundle exceeds each of the lower one, so the
    rank-2 link must vanish at the point: an unsupported local factor."""
    path = tmp_path / "rank22.json"
    path.write_text(json.dumps(RANK22))
    assert main(["chain", "--config", str(path)]) == 19
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_rank2_link_without_forced_vanishing_computes():
    cfg = json.loads(json.dumps(RANK22))
    weights = cfg["problem"]["weights"]
    cfg["problem"]["weights"] = weights[::-1]
    report = run(cfg)
    assert report["class"].endswith(" / ((L - 1))")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, capsys):
    """Each README example: its JSON config through cli.main with the flags
    of the command that follows it, exit 0 and the class the README quotes."""
    examples = README.read_text(encoding="utf-8").split("### Example ")[1:]
    assert len(examples) == 3
    for section in examples:
        config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        command, quoted = re.search(
            r"`parahiggs ([^`]+)`(?: prints[^`]*`([^`]+)`)?", section
        ).groups()
        argv = command.split()
        argv[argv.index("--config") + 1] = str(tmp_path / "example.json")
        (tmp_path / "example.json").write_text(config)
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            assert json.loads(out)["class"]
        if quoted is not None:
            assert f"class: {quoted}" in out.splitlines(), command


def test_readme_python_quick_start(capsys):
    """The README's one python block runs and prints the moduli class and its
    E-polynomial, as recomputed here on the same inputs."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(block, {})
    out = capsys.readouterr().out.splitlines()
    curve = motive.CurveData(genus=2, num_marked=1)
    datum = WeightDatum.full_flags([generate_generic_weights(2, 2)])
    cls = higgs_moduli_class(HiggsProblem(curve, rank=2, degree=1, datum=datum))
    assert out[:2] == [str(cls), str(specialize_E(cls))]


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verify flag-vs-gaussian: pass" in out
    assert "verify e-vs-split-count: pass" in out


def test_verify_with_config(tmp_path, capsys):
    path = tmp_path / "gl.json"
    path.write_text(json.dumps({
        "curve": {"genus": 0},
        "problem": {"kind": "stack-class", "stack": "gl", "rank": 2},
    }))
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "class: L^4 - L^3 - L^2 + L" in out
    assert len([s for s in out if s.startswith("verify ") and s.endswith(": pass")]) == 4


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "gaussian_flag_count", lambda *args: 0)
    assert main(["verify"]) == 6
    assert "verify flag-vs-gaussian: FAIL" in capsys.readouterr().out.splitlines()


def test_missing_config_kind():
    with pytest.raises(ConfigError):
        run({"curve": {"genus": 1}, "problem": {}})
