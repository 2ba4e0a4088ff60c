"""Localization assembly: fixed types, half dimension, moduli classes."""

import gc
import hashlib
import itertools
import random
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from parahiggs.errors import (
    DeskScaleExceeded,
    EngineError,
    InvalidFlagType,
    NonGenericWeights,
    UnboundedSearch,
    WallHit,
)
from parahiggs import engine as engine_module
from parahiggs import higgs as higgs_module
from parahiggs import parabolic
from parahiggs.cli import run
from parahiggs.motive import CurveData, ring, specialize_E, specialize_count
from parahiggs.parabolic import (
    ChainType,
    WeightDatum,
    generate_generic_weights,
    genericity_check,
)
from parahiggs.engine import ChainEngine
from parahiggs.higgs import (
    HiggsProblem,
    chain_stability,
    enumerate_fixed_types,
    half_dimension,
    higgs_computation,
    higgs_moduli_class,
    require_desk_scale,
)
from parahiggs.oracles import rank1_higgs_oracle

ZETA = (1, 0, 0, 0, 4)


def full_datum(n, k, bound=None):
    ws = generate_generic_weights(n * k, bound or n)
    return WeightDatum.full_flags(
        [ws[p * n : (p + 1) * n] for p in range(k)]
    )


def test_half_dimension_examples():
    for k in (0, 1, 2):
        datum = full_datum(1, k) if k else WeightDatum.empty(0)
        for g in range(4):
            assert half_dimension(1, datum, g) == g
    assert half_dimension(2, full_datum(2, 1), 2) == 6
    assert half_dimension(2, full_datum(2, 3), 0) == 0


def test_half_dimension_defect_always_even():
    # n^2 - sum m^2 = 2 sum_{i<j} m_i m_j, so the integrality guard never fires
    part = WeightDatum((((Fraction(1, 7), 1), (Fraction(2, 7), 1)),))
    assert half_dimension(2, part, 2) == 6
    mixed = WeightDatum((((Fraction(1, 7), 1), (Fraction(2, 7), 2)),))
    assert half_dimension(3, mixed, 2) == 12  # 9 + 1 + (9 - 5)/2


def test_chain_stability_staircase():
    assert chain_stability(2, 2) == (Fraction(0), Fraction(2), Fraction(4))
    assert chain_stability(1, 0) == (Fraction(0), Fraction(-2))


def test_fixed_types_rank1():
    curve = CurveData(2, 1)
    prob = HiggsProblem(curve, 1, 5, full_datum(1, 1))
    types = enumerate_fixed_types(prob, ChainEngine(prob.curve))
    assert len(types) == 1
    assert types[0].ranks == (1,)
    assert types[0].degrees == (5,)


def test_fixed_types_rank2_structure():
    curve = CurveData(2, 1)
    prob = HiggsProblem(curve, 2, 1, full_datum(2, 1))
    types = enumerate_fixed_types(prob, ChainEngine(prob.curve))
    ranks = {t.ranks for t in types}
    assert ranks == {(2,), (1, 1)}
    for t in types:
        if t.ranks == (1, 1):
            # chain degrees carry the twist shift (r - i)(2g - 2)
            assert t.total_degree == 1 + 2
    # two weight splits at the marked point
    splits = {t.weights for t in types if t.ranks == (1, 1)}
    assert len(splits) == 2


def test_fixed_types_rank3_rank_vectors():
    curve = CurveData(2, 1)
    prob = HiggsProblem(curve, 3, 1, full_datum(3, 1))
    ranks = {t.ranks for t in enumerate_fixed_types(prob, ChainEngine(prob.curve))}
    assert ranks == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_unbounded_fixed_type_box_raises_before_the_splits_are_built(monkeypatch):
    """Rank 3 at nine points of genus 0: the box of ranks (1, 2) is unbounded,
    and its first split's box raises UnboundedSearch before the 3^9 splits
    of (1, 2) are built; only the one split of (3) is."""
    built = []

    def counted(datum, part_ranks):
        built.append(tuple(part_ranks))
        return parabolic.enumerate_weight_splits(datum, part_ranks)

    monkeypatch.setattr(higgs_module, "enumerate_weight_splits", counted)
    datum = WeightDatum.full_flags(
        [[Fraction(3 * p + i + 1, 29) for i in range(3)] for p in range(9)])
    prob = HiggsProblem(CurveData(0, 9), 3, 1, datum)
    with pytest.raises(UnboundedSearch, match=r"rank vector \(1, 2\)"):
        enumerate_fixed_types(prob, ChainEngine(prob.curve))
    assert built == [(3,)]


def test_rank1_closed_form_grid():
    for g in range(4):
        for k in (1, 2):
            curve = CurveData(g, k)
            datum = full_datum(1, k)
            for d in (-1, 0, 1):
                cls = higgs_moduli_class(HiggsProblem(curve, 1, d, datum))
                assert cls == rank1_higgs_oracle(g, k), (g, k, d)


def test_rank1_dimension():
    curve = CurveData(2, 1)
    cls = higgs_moduli_class(HiggsProblem(curve, 1, 0, full_datum(1, 1)))
    e = specialize_E(cls)
    assert e.u_degree() == 4 == 2 * half_dimension(1, full_datum(1, 1), 2)


def test_r0_summand_is_stable_bundle_locus():
    """The length-zero fixed locus is (L-1) times the semistable bundle stack."""
    curve = CurveData(2, 1)
    datum = full_datum(2, 1)
    eng = ChainEngine(curve)
    comp = higgs_computation(HiggsProblem(curve, 2, 0, datum), eng)
    R = ring(2)
    tau0 = ChainType((2,), (0,), (datum,))
    expected = (R.L - R.one) * eng.chain_class(tau0, (Fraction(0),))
    got = [contr for t, contr in comp.summands if t.ranks == (2,)]
    assert got == [expected]


def test_rank2_moduli_properties():
    curve = CurveData(2, 1, ZETA)
    datum = full_datum(2, 1)
    results = {}
    for d in (0, 1):
        comp = higgs_computation(HiggsProblem(curve, 2, d, datum))
        assert comp.total.is_polynomial()
        assert comp.total.dimension() == 2 * comp.half_dim
        cnt = specialize_count(comp.total, curve, 2)
        assert cnt.denominator == 1 and cnt > 0
        results[d] = comp.total
    assert specialize_E(results[0]) == specialize_E(results[1])


def extension_zeta_numerator(P, m):
    """The zeta numerator over F_{q^m} of a curve whose zeta numerator over
    F_q is P: its reciprocal roots raised to the m-th power, through the
    integer Newton identities s_j = -j c_j - sum_{i<j} c_{j-i} s_i between
    the coefficients c_j and the power sums s_j of the reciprocal roots."""
    deg = len(P) - 1
    c = list(P) + [0] * (deg * m)
    s = [0]
    for j in range(1, deg * m + 1):
        s.append(-j * c[j] - sum(c[j - i] * s[i] for i in range(1, j)))
    power_sums = [s[m * i] for i in range(deg + 1)]
    out = [1]
    for j in range(1, deg + 1):
        total = sum(out[j - i] * power_sums[i] for i in range(1, j + 1))
        coeff, rem = divmod(-total, j)
        assert rem == 0
        out.append(coeff)
    return tuple(out)


# GF(2^m) as F_2[x] modulo x, x^2 + x + 1, x^3 + x + 1, x^4 + x + 1
GF2_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011}


def gf2_mul(a, b, m):
    """Product in GF(2^m), elements as bit masks of polynomials over F_2."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= GF2_MODULI[m]
    return out


def count_y2_plus_y_eq_x5(m):
    """#C(GF(2^m)) for the genus-2 curve y^2 + y = x^5: the affine
    solutions and the one point at infinity."""
    affine = 0
    for x in range(2 ** m):
        x2 = gf2_mul(x, x, m)
        x5 = gf2_mul(x, gf2_mul(x2, x2, m), m)
        affine += sum(gf2_mul(y, y, m) ^ y == x5 for y in range(2 ** m))
    return affine + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_extension_zeta_numerator_counts_the_curve(m):
    P = extension_zeta_numerator(ZETA, m)
    assert count_y2_plus_y_eq_x5(m) == 2 ** m + 1 + P[1]


@pytest.mark.parametrize(
    "points, rank, datum",
    [(1, 3, WeightDatum.full_flags([generate_generic_weights(3, 3)])),
     (0, 2, WeightDatum.empty(0))],
    ids=["2,1,3", "2,0,2"],
)
def test_moduli_point_counts_over_f2m_are_positive_integers(points, rank, datum):
    """The genus-2 moduli class specialized to y^2 + y = x^5 over F_{2^m}."""
    cls = higgs_moduli_class(HiggsProblem(CurveData(2, points), rank, 1, datum))
    for m in range(1, 5):
        curve = CurveData(2, points, extension_zeta_numerator(ZETA, m))
        count = specialize_count(cls, curve, 2 ** m)
        assert count.denominator == 1 and count > 0, (m, count)


def poincare_series(e):
    """Coefficients of E(-t, -t), by degree in t."""
    series = Counter()
    for (i, j), c in e.num.items():
        series[i + j] += c * (-1) ** (i + j)
    return series


def test_poincare_sign_substitution_nonnegative():
    curve = CurveData(2, 1)
    datum = full_datum(2, 1)
    cls = higgs_moduli_class(HiggsProblem(curve, 2, 1, datum))
    assert all(c >= 0 for c in poincare_series(specialize_E(cls)).values())


@pytest.fixture
def genericity_calls(monkeypatch):
    """Records every genericity_check call, through every library binding."""
    original = parabolic.genericity_check
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "parahiggs" or name.startswith("parahiggs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_weights_certified_once_per_higgs_problem(genericity_calls):
    higgs_computation(HiggsProblem(CurveData(2, 1), 3, 1, full_datum(3, 1)))
    assert len(genericity_calls) == 1


def test_weights_certified_once_per_chain_run(genericity_calls):
    cfg = {
        "curve": {"genus": 2, "marked_points": 1},
        "problem": {
            "kind": "chain",
            "ranks": [2, 1],
            "degrees": [3, 0],
            "weights": "generate",
            "alpha": ["0", "5"],
        },
    }
    report = run(cfg)
    assert report["diagnostics"]["wall_count"] > 0
    assert len(genericity_calls) == 1


def test_non_generic_datum_rejected():
    curve = CurveData(2, 1)
    datum = WeightDatum.full_flags([[Fraction(1, 4), Fraction(1, 2)]])
    with pytest.raises(NonGenericWeights):
        higgs_moduli_class(HiggsProblem(curve, 2, 0, datum))


def test_non_full_flags_rejected_before_the_certificate(genericity_calls):
    """A repeated weight is a flag type the solver does not handle, not a
    non-generic one: it raises InvalidFlagType naming the point before any
    genericity search."""
    a, b, c = Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)
    datum = WeightDatum((((a, 1), (b, 1), (c, 1)), ((a, 2), (b, 1))))
    with pytest.raises(InvalidFlagType, match=r"point 1 has flag type \(2, 1\)"):
        higgs_computation(HiggsProblem(CurveData(2, 2), 3, 0, datum))
    assert genericity_calls == []


def test_genus0_rank2_empty():
    # dimension 2N = -4: the moduli space is empty
    curve = CurveData(0, 1)
    datum = full_datum(2, 1)
    cls = higgs_moduli_class(HiggsProblem(curve, 2, 0, datum))
    assert cls.is_zero()


def test_genus0_rank2_three_points():
    # N = 0: a zero-dimensional moduli space
    curve = CurveData(0, 3)
    datum = full_datum(2, 3)
    cls = higgs_moduli_class(HiggsProblem(curve, 2, 1, datum))
    assert cls.is_polynomial()
    assert cls.dimension() in (None, 0)


def test_genus0_rank2_four_points():
    # the nilpotent cone is five rational curves
    curve = CurveData(0, 4)
    datum = full_datum(2, 4)
    for d in (0, 1):
        cls = higgs_moduli_class(HiggsProblem(curve, 2, d, datum))
        assert str(cls) == "L^2 + 5 * L"


def test_genus0_rank2_five_points_degree_independent():
    curve = CurveData(0, 5)
    datum = full_datum(2, 5)
    cls = {
        d: higgs_moduli_class(HiggsProblem(curve, 2, d, datum)) for d in (0, 1)
    }
    assert cls[0] == cls[1]
    assert cls[0].is_polynomial()
    assert cls[0].dimension() == 4


def test_genus0_rank2_ten_points_degree_independent():
    """(0,10,2) needs 20 weights at bound 2, a 5^10-residue table above the
    genericity budget; the linear digit certificate passes its generated
    weights, and the class does not depend on the degree."""
    assert 5 ** 10 > parabolic.GENERICITY_BUDGET
    curve = CurveData(0, 10)
    datum = full_datum(2, 10)
    cls = {
        d: higgs_moduli_class(HiggsProblem(curve, 2, d, datum)) for d in (1, 3)
    }
    assert cls[1] == cls[3]
    assert str(cls[1]) == str(cls[3])
    assert cls[1].is_polynomial()
    assert cls[1].dimension() == 14


def test_degree_independence_genus3():
    curve = CurveData(3, 1)
    datum = full_datum(2, 1)
    cls = {
        d: higgs_moduli_class(HiggsProblem(curve, 2, d, datum)) for d in (0, 1)
    }
    assert specialize_E(cls[0]) == specialize_E(cls[1])
    assert cls[0].dimension() == 20


@pytest.mark.parametrize("genus, e_degree", [(2, 40), (3, 76)])
def test_nonparabolic_rank3_degree_independent(genus, e_degree):
    """The rank-2 bundle summand sits on its wall at even degree and gives
    the semistable class, so (g,0,3) computes at both degree parities."""
    curve = CurveData(genus, 0)
    cls = {
        d: higgs_moduli_class(HiggsProblem(curve, 3, d, WeightDatum.empty(0)))
        for d in (1, 2)
    }
    assert cls[1] == cls[2]
    assert cls[1].is_polynomial()
    assert max(i + j for i, j in specialize_E(cls[1]).num) == e_degree


# sha256 of the rank-4 moduli classes without marked points at genus 2 and 3
DIGEST_204 = "a20207f3f6dbdcf4541bd7adb4761825cca633480daf69c8ab88fca7e6830ef0"
DIGEST_304 = "3de6379bc19008e6f9f620aa64142e1931c473c99d0feee2efca1973628ae255"


def is_pure(e):
    """A polynomial symmetric in u and v, palindromic, with every
    (-1)^(p+q) [u^p v^q] >= 0: the E-polynomial of a smooth projective
    variety."""
    if not e.is_polynomial:
        return False
    top = max(i + j for i, j in e.num)
    return top % 2 == 0 and all(
        e.num.get((j, i)) == c
        and e.num.get((top // 2 - i, top // 2 - j)) == c
        and (-1) ** (i + j) * c >= 0
        for (i, j), c in e.num.items()
    )


@pytest.mark.parametrize("genus, degrees, digest, types", [
    (2, (1, 3, 5), DIGEST_204, 22),
    (3, (1, 3), DIGEST_304, 95),
], ids=["2-0-4", "3-0-4"])
def test_rank4_without_points_degree_independent(genus, degrees, digest, types):
    """Rank 4 without marked points computes at every odd degree; at genus
    2 E(-t,-t) is the HLRV count of degree 68 and coefficient sum 305,152,
    and every fixed-point summand is pure."""
    curve = CurveData(genus, 0)
    for d in degrees:
        start = time.perf_counter()
        comp = higgs_computation(HiggsProblem(curve, 4, d, WeightDatum.empty(0)))
        assert time.perf_counter() - start < 1.0
        assert hashlib.sha256(str(comp.total).encode()).hexdigest() == digest
        assert len(comp.summands) == types
        assert all(is_pure(specialize_E(summand)) for _, summand in comp.summands)
        if genus == 2:
            series = poincare_series(specialize_E(comp.total))
            assert max(series) == 68 and sum(series.values()) == 305_152
            assert [series[68 - i] for i in range(8)] == [1, 4, 7, 12, 26, 48, 78, 128]


@pytest.mark.parametrize("genus, rank, degree", [(2, 2, 0), (2, 4, 2), (3, 3, 3)])
def test_non_coprime_without_points_fails_before_enumeration(
    genus, rank, degree, monkeypatch
):
    """Without marked points a rank and degree with a common factor raise
    WallHit naming it, before any fixed type is enumerated."""

    def refuse(*args):
        raise AssertionError("fixed types enumerated before the gcd check")

    monkeypatch.setattr(higgs_module, "enumerate_fixed_types", refuse)
    problem = HiggsProblem(CurveData(genus, 0), rank, degree, WeightDatum.empty(0))
    with pytest.raises(WallHit, match=rf"gcd\(rank {rank}, degree {degree}\) = "):
        higgs_computation(problem)


def drawn_datum(rng, n, k):
    """Full flags of distinct weights p/(2^31 - 1), sorted per point and
    certified generic at bound n."""
    prime = 2 ** 31 - 1
    while True:
        points = [
            sorted(Fraction(rng.randrange(1, prime), prime) for _ in range(n))
            for _ in range(k)
        ]
        flat = [w for point in points for w in point]
        if len(set(flat)) == len(flat) and genericity_check(flat, n):
            return WeightDatum.full_flags(points)


# the (2,2,3) class's sha256, which perfbench/probe.py also pins
DIGEST_223 = "f19aa38785f96506287b43c9f9ae2bd960516bcabae7a1f7b7a140f25e9763df"


@pytest.mark.parametrize("genus, points, rank, degrees, draws, digest", [
    (1, 3, 2, (0, 1), 1, None),
    (2, 2, 2, (0, 1), 1, None),
    (2, 1, 3, range(-1, 4), 2, None),
    (2, 2, 3, (1,), 0, DIGEST_223),
], ids=["1-3-2", "2-2-2", "2-1-3", "2-2-3"])
def test_moduli_class_independent_of_point_order_degree_and_weights(
    genus, points, rank, degrees, draws, digest
):
    """The moduli class does not depend on the order of the marked points, on
    the degree, or on the generic weight chamber: generated weights in every
    point order, and weights drawn at random."""
    curve = CurveData(genus, points)
    base = full_datum(rank, points)
    data = [WeightDatum(order) for order in itertools.permutations(base.points)]
    rng = random.Random(7)
    data += [drawn_datum(rng, rank, points) for _ in range(draws)]
    classes = {
        str(higgs_moduli_class(HiggsProblem(curve, rank, d, datum)))
        for datum in data
        for d in degrees
    }
    assert len(classes) == 1
    if digest is not None:
        assert hashlib.sha256(classes.pop().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "genus, points, rank, error",
    [
        (2, 1, 4, DeskScaleExceeded),
        (1, 1, 3, UnboundedSearch),
        (0, 3, 3, UnboundedSearch),
    ],
)
def test_out_of_scope_inputs_fail_fast(genus, points, rank, error):
    problem = HiggsProblem(CurveData(genus, points), rank, 1, full_datum(rank, points))
    start = time.perf_counter()
    with pytest.raises(error):
        higgs_computation(problem)
    assert time.perf_counter() - start < 1.0


def test_rank_gate_admits_rank4_only_without_points():
    for rank, points in ((3, 4), (4, 0)):
        require_desk_scale(rank, points)
    for rank, points in ((4, 1), (5, 0), (6, 2)):
        with pytest.raises(DeskScaleExceeded):
            require_desk_scale(rank, points)


def test_solved_problem_leaves_no_weight_data_alive():
    """The chain types, degree boxes, gap profiles and sub-types of a
    problem live in its engine's table, so no WeightDatum or ChainType with
    its weights outlives the engine."""
    weights = {Fraction(p, 2_147_483_647) for p in (271_828_182, 1_414_213_562)}
    curve = CurveData(2, 1)

    def solve():
        datum = WeightDatum.full_flags([sorted(weights)])
        engine = ChainEngine(curve)
        cls = higgs_moduli_class(HiggsProblem(curve, 2, 1, datum), engine)
        assert engine.tables and not cls.is_zero()

    solve()
    gc.collect()
    alive = [
        obj for obj in gc.get_objects()
        if isinstance(obj, (WeightDatum, ChainType))
        and weights & set(obj.all_weights())
    ]
    assert alive == []


@pytest.mark.parametrize("genus, points, rank, degree", [(2, 1, 3, 0), (1, 3, 2, 1)])
def test_one_solve_splits_each_datum_once_per_part_ranks(
    monkeypatch, genus, points, rank, degree
):
    """The engine reads every per-index weight split from its table, so one
    solve calls enumerate_weight_splits once per (datum, part ranks)."""
    calls = Counter()
    split = engine_module.enumerate_weight_splits

    def counting(datum, part_ranks):
        calls[datum, part_ranks] += 1
        return split(datum, part_ranks)

    monkeypatch.setattr(engine_module, "enumerate_weight_splits", counting)
    problem = HiggsProblem(
        CurveData(genus, points), rank, degree, full_datum(rank, points)
    )
    higgs_moduli_class(problem, ChainEngine(problem.curve))
    assert calls and max(calls.values()) == 1


def test_weight_splits_share_their_parts():
    """enumerate_weight_splits builds each distinct part once per call and
    gives a part that takes every weight the datum itself, and the engine
    splits each datum once per part ranks, so one (2,1,3) solve at degree 0
    keeps 48 WeightDatum objects of 8 values alive (217 when every sub-type
    and filtration sum split its data afresh, 431 when every split also
    built each of its parts anew)."""
    datum = full_datum(3, 1)
    engine = ChainEngine(CurveData(2, 1))
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, WeightDatum)}
    higgs_moduli_class(HiggsProblem(engine.curve, 3, 0, datum), engine)
    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, WeightDatum) and id(obj) not in before]
    assert len(alive) <= 48
    assert len(set(alive) | {datum}) == 8


def test_engine_freed_by_reference_counting():
    """No table key holds the engine, so dropping the last reference frees
    it without the cycle collector: after a cold solve, and after a warm
    solve whose keys hold the ring's parser for the seed-cache texts."""
    problem = HiggsProblem(CurveData(2, 1), 3, 1, full_datum(3, 1))
    gc.disable()
    try:
        cold = ChainEngine(problem.curve)
        first = higgs_moduli_class(problem, cold)
        cache = cold.new_cache_entries
        ref = weakref.ref(cold)
        del cold
        assert ref() is None

        warm = ChainEngine(problem.curve, seed_cache=cache)
        assert higgs_moduli_class(problem, warm) == first
        assert warm.stats["seed_cache_hits"] > 0
        assert any(fn == warm.R.parse for fn, _ in warm.tables)
        ref = weakref.ref(warm)
        del warm
        assert ref() is None
    finally:
        gc.enable()


def test_second_solve_reuses_engine_tables():
    """A second solve of the same problem on one engine is all memo hits: it
    adds no memo or table entry and reaches no base case or wall."""
    problem = HiggsProblem(CurveData(2, 1), 3, 1, full_datum(3, 1))
    engine = ChainEngine(problem.curve)

    def snapshot():
        return (
            [len(engine.memo), len(engine.tables)],
            engine.stats["chain_class_calls"] - engine.stats["memo_hits"],
            engine.stats["base_cases"],
            engine.stats["walls_crossed"],
        )

    first = higgs_computation(problem, engine).total
    before = snapshot()
    second = higgs_computation(problem, engine).total
    assert snapshot() == before
    assert second == first and str(second) == str(first)


# (rank, genus, points) -> per degree 0..rank-1, the first 16 hex digits of
# sha256(class | E-polynomial) or the name of the error raised
SWEEP = {
    (1, 0, 0): ("3f22d6d875f4e163",),
    (1, 0, 1): ("3f22d6d875f4e163",),
    (1, 0, 2): ("3f22d6d875f4e163",),
    (1, 1, 0): ("444617fc8254442e",),
    (1, 1, 1): ("444617fc8254442e",),
    (1, 1, 2): ("444617fc8254442e",),
    (1, 2, 0): ("395a4bd2ba66aee5",),
    (1, 2, 1): ("395a4bd2ba66aee5",),
    (1, 2, 2): ("395a4bd2ba66aee5",),
    (1, 3, 0): ("56766ed8a46682f3",),
    (1, 3, 1): ("56766ed8a46682f3",),
    (1, 3, 2): ("56766ed8a46682f3",),
    (2, 0, 0): ("WallHit", "0642c4ea7d881e66"),
    (2, 0, 1): ("0642c4ea7d881e66", "0642c4ea7d881e66"),
    (2, 0, 2): ("0642c4ea7d881e66", "0642c4ea7d881e66"),
    (2, 1, 0): ("WallHit", "444617fc8254442e"),
    (2, 1, 1): ("a563d7c219d0cbcf", "a563d7c219d0cbcf"),
    (2, 1, 2): ("4cc23284cb8d826f", "4cc23284cb8d826f"),
    (2, 2, 0): ("WallHit", "4e6c5c301d6c6faa"),
    (2, 2, 1): ("cd9ebee7a834acd5", "cd9ebee7a834acd5"),
    (2, 2, 2): ("4ce2f7d1b5a1d371", "4ce2f7d1b5a1d371"),
    (2, 3, 0): ("WallHit", "3d267763b503a3a2"),
    (2, 3, 1): ("cc78b55e4989e946", "cc78b55e4989e946"),
    (2, 3, 2): ("405579b58e2f23ac", "405579b58e2f23ac"),
    (3, 0, 0): ("WallHit", "UnboundedSearch", "UnboundedSearch"),
    (3, 0, 1): ("UnboundedSearch", "UnboundedSearch", "UnboundedSearch"),
    (3, 0, 2): ("UnboundedSearch", "UnboundedSearch", "UnboundedSearch"),
    (3, 1, 0): ("WallHit", "UnboundedSearch", "UnboundedSearch"),
    (3, 1, 1): ("UnboundedSearch", "UnboundedSearch", "UnboundedSearch"),
    (3, 1, 2): ("UnboundedSearch", "UnboundedSearch", "UnboundedSearch"),
    (3, 2, 0): ("WallHit", "fa1bc715a970a47c", "fa1bc715a970a47c"),
    (3, 2, 1): ("ca8996c7a25fe28a", "ca8996c7a25fe28a", "ca8996c7a25fe28a"),
    (3, 2, 2): ("0ed721edb329c25f", "0ed721edb329c25f", "0ed721edb329c25f"),
    (3, 3, 0): ("WallHit", "dab89926efb0d12f", "dab89926efb0d12f"),
    (3, 3, 1): ("38eb1838384562c4", "38eb1838384562c4", "38eb1838384562c4"),
    (4, 0, 0): ("WallHit", "UnboundedSearch", "WallHit", "UnboundedSearch"),
    (4, 1, 0): ("WallHit", "UnboundedSearch", "WallHit", "UnboundedSearch"),
    (4, 2, 0): ("WallHit", "da077220216cfedb", "WallHit", "da077220216cfedb"),
    (4, 3, 0): ("WallHit", "63a584323c213d1d", "WallHit", "63a584323c213d1d"),
}


def test_canonical_bytes_sweep():
    """Every rank <= 3 input of genus <= 3 with at most two points (at rank 3,
    genus plus points <= 4), every rank-4 input of genus <= 3 without points,
    and every degree mod the rank, with generated
    full-flag weights, keeps the class and E-polynomial bytes and the error
    outcomes recorded here; the moduli classes go through the whole ring."""
    got = {}
    for (n, g, k), want in SWEEP.items():
        datum = full_datum(n, k) if k else WeightDatum.empty(0)
        outcomes = []
        for d in range(n):
            try:
                x = higgs_computation(HiggsProblem(CurveData(g, k), n, d, datum)).total
            except EngineError as exc:
                outcomes.append(type(exc).__name__)
                continue
            text = str(x) + "|" + str(specialize_E(x))
            outcomes.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        got[n, g, k] = tuple(outcomes)
    assert got == SWEEP
    flat = [o for outcomes in SWEEP.values() for o in outcomes]
    counts = (len(flat), flat.count("UnboundedSearch"), flat.count("WallHit"))
    assert counts == (85, 20, 16)
