"""The integer weight lattice against the Fraction reference statements.

Degree boxes, gap profiles, the existence test and wall location compute in
integers over the weights' common denominator Q and the parameter's common
denominator D; tests/fraction_reference.py states the same in Fraction
arithmetic, one weight sum and one slope at a time.
"""

import random
import time
from fractions import Fraction

import pytest

import fraction_reference as ref
from parahiggs.chains import (
    enumerate_degree_vectors,
    enumerate_gap_profiles,
    necessary_conditions,
)
from parahiggs.engine import ChainEngine
from parahiggs.errors import RankMismatch, UnboundedSearch, WallHit
from parahiggs.motive import CurveData
from parahiggs.parabolic import ChainType, Param, WeightDatum
from parahiggs.walls import (
    Ray,
    chamber_point,
    cross_ray,
    equal_slope_pins,
    is_on_wall,
    wall_positions,
)

DENOMINATORS = (7, 11, 13, 17, 19, 23)


def mixed_weights(rng, ranks, k):
    """One datum per rank: at each of the k points, distinct weights whose
    denominators differ between points and, half the time, within one."""
    point_dens = rng.sample(DENOMINATORS, k)
    per_point = []
    for den in point_dens:
        pool = set()
        while len(pool) < sum(ranks):
            d = den if rng.random() < 0.5 else rng.choice(DENOMINATORS)
            pool.add(Fraction(rng.randrange(1, d), d))
        pool = list(pool)
        rng.shuffle(pool)
        per_point.append(pool)
    data, offset = [], 0
    for n in ranks:
        data.append(WeightDatum.full_flags(
            [sorted(pool[offset : offset + n]) for pool in per_point]
        ))
        offset += n
    return tuple(data)


def random_alpha(rng, length):
    """Strictly increasing half the time, arbitrary otherwise; denominators 1-6."""
    if rng.random() < 0.5:
        alpha = [Fraction(rng.randint(-3, 3), rng.randint(1, 6))]
        for _ in range(length - 1):
            alpha.append(alpha[-1] + Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        return tuple(alpha)
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(length))


def outcome(fn, *args):
    """fn(*args), or the class of the engine error it raised."""
    try:
        return fn(*args)
    except (UnboundedSearch, RankMismatch) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# degree boxes, gap profiles and the existence test


def test_degree_vectors_match_fraction_reference():
    rng = random.Random(20261)
    seen = set()
    for _ in range(150):
        ranks = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        k = rng.randint(0, 3)
        weights = mixed_weights(rng, ranks, k)
        alpha = random_alpha(rng, len(ranks))
        total = rng.randint(-4, 4)
        got = outcome(enumerate_degree_vectors, ranks, total, alpha, weights)
        pinned = tuple(range(len(ranks)))
        want = outcome(ref.degree_box, ranks, alpha, weights, pinned, total)
        assert got == want, (ranks, total, alpha, weights)
        seen.add("raised" if isinstance(got, type) else bool(got))
    assert seen == {"raised", True, False}


def test_gap_profiles_match_fraction_reference():
    rng = random.Random(20262)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 2)
        ranks = (n,) * rng.randint(1, 3)
        k = rng.randint(1, 3)
        weights = mixed_weights(rng, ranks, k)
        alpha = random_alpha(rng, len(ranks))
        got = outcome(enumerate_gap_profiles, ranks, alpha, weights)
        want = outcome(ref.degree_box, ranks, alpha, weights, (0,), 0)
        assert got == want, (ranks, alpha, weights)
        seen.add("raised" if isinstance(got, type) else bool(got))
    assert seen == {True, False}


def test_necessary_conditions_match_fraction_reference():
    rng = random.Random(20263)
    verdicts = set()
    for _ in range(1500):
        ranks = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        k = rng.randint(0, 3)
        tau = ChainType(
            ranks,
            tuple(rng.randint(-6, 6) for _ in ranks),
            mixed_weights(rng, ranks, k),
        )
        alpha = random_alpha(rng, len(ranks))
        got = necessary_conditions(tau, alpha)
        assert got == ref.necessary_conditions(tau, alpha), (tau, alpha)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_constant_rank_3333_gap_profiles():
    """The constant-rank (3,3,3,3) box at alpha = (0,3,5,10): 5,294 profiles,
    equal to the Fraction reference, in well under a second."""
    rng = random.Random(1)
    weights = []
    for _ in range(4):
        den = rng.randint(7, 101)
        weights.append(WeightDatum.full_flags(
            [sorted(Fraction(c, den) for c in rng.sample(range(1, den), 3))]
        ))
    weights = tuple(weights)
    alpha = (0, 3, 5, 10)
    start = time.perf_counter()
    got = enumerate_gap_profiles((3, 3, 3, 3), alpha, weights)
    elapsed = time.perf_counter() - start
    assert len(got) == 5294
    assert got == ref.degree_box((3, 3, 3, 3), alpha, weights, (0,), 0)
    assert elapsed < 1.0  # measured 0.18 s; the Fraction filter took 4.4 s


# ---------------------------------------------------------------------------
# wall location


def random_wall_type(rng):
    """A type of total rank 2 or 3 and length 0-2, possibly zero-padded, at
    0-3 points with mixed weight denominators."""
    total = rng.randint(2, 3)
    while True:
        ranks = tuple(rng.randint(0, total) for _ in range(rng.randint(1, 3)))
        if sum(ranks) == total:
            break
    k = rng.randint(0, 3)
    present = [n for n in ranks if n]
    data = iter(mixed_weights(rng, present, k))
    weights = tuple(next(data) if n else WeightDatum.empty(k) for n in ranks)
    degrees = tuple(rng.randint(-4, 4) if n else 0 for n in ranks)
    return ChainType(ranks, degrees, weights)


def random_ray(rng, length):
    """A non-decreasing direction, all entries equal (every sub-type slope
    parallel) a quarter of the time."""
    if rng.random() < 0.25:
        delta = (rng.randint(-1, 1),) * length
    else:
        delta = tuple(sorted(rng.randint(-2, 2) for _ in range(length)))
    return Ray(random_alpha(rng, length), delta, Fraction(rng.randint(1, 8)))


def test_wall_positions_match_fraction_reference():
    rng = random.Random(20264)
    engine = ChainEngine(CurveData(0, 3))
    seen = set()
    for _ in range(300):
        tau = random_wall_type(rng)
        ray = random_ray(rng, tau.length + 1)
        lo = Fraction(rng.randint(-8, 4), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(1, 16), rng.randint(1, 3))
        got = wall_positions(engine, tau, ray, lo, hi)
        assert got == ref.wall_positions(tau, ray, lo, hi), (tau, ray, lo, hi)
        pins = list(equal_slope_pins(engine, tau, ray.base, ray.delta))
        if all(rate == 0 for _, _, _, rate, _, _ in pins):
            # no pin moves, so there is no wall, even where a sub-type ties
            # tau's slope at the base and so all along the ray
            assert got == []
            if is_on_wall(engine, tau, ray.base):
                seen.add("parallel")
        seen.add(bool(got))
        for t in got[:3]:
            assert is_on_wall(engine, tau, ray.at(t))
            assert ref.is_on_wall(tau, ray.at(t))
        for t in (lo, (lo + hi) / 2, hi):
            assert is_on_wall(engine, tau, ray.at(t)) == ref.is_on_wall(tau, ray.at(t))
    assert seen == {"parallel", True, False}


def test_subtype_weight_sums_match_fraction_reference():
    """Per rank profile, the weight sums by which engine.subtypes groups its
    splits are the reference's distinct sub-type weight sums, ascending, and
    every split in a group has its group's sum."""
    rng = random.Random(20265)
    engine = ChainEngine(CurveData(0, 3))
    for _ in range(200):
        tau = random_wall_type(rng)
        want = {}
        for profile, wsum in ref.subtype_weight_sums(tau):
            want.setdefault(profile, set()).add(wsum)
        got = {}
        for profile, size, groups in engine.subtypes(tau):
            assert size == sum(profile)
            sums = [Fraction(W, tau.Q) for W, _ in groups]
            assert sums == sorted(want[profile]), (tau, profile)
            got[profile] = set(sums)
            for wsum, (_, splits) in zip(sums, groups):
                for first, _ in splits:
                    assert sum(ref.weight_sum(d) for d in first) == wsum
        assert got == want, tau


def test_parallel_slope_family():
    """A direction constant on the support moves every sub-type slope with
    the type's, so it crosses no wall, whether or not a sub-type ties at the
    base, and the whole window (0, t_max + 1) is one chamber with one point;
    a tie at the base is still a WallHit when the walk starts there."""
    engine = ChainEngine(CurveData(0, 0))
    ray = Ray((Fraction(0),), (0,), Fraction(5))
    even = ChainType((2,), (0,), (WeightDatum.empty(0),))
    odd = ChainType((2,), (1,), (WeightDatum.empty(0),))
    assert is_on_wall(engine, even, ray.base)
    assert not is_on_wall(engine, odd, ray.base)
    for tau in (even, odd):
        assert wall_positions(engine, tau, ray, 0, 5) == []
        assert ref.wall_positions(tau, ray, 0, 5) == []
        points = {chamber_point(engine, tau, ray, t, side)
                  for t in range(7) for side in (+1, -1) if 0 < t + side < 7}
        assert points == {Fraction(3)}
    with pytest.raises(WallHit):
        cross_ray(engine, even, ray)


def test_multiplicity_above_one_rejected():
    """Wall location splits weights one by one, so multiplicity > 1 is a
    RankMismatch in both statements."""
    engine = ChainEngine(CurveData(0, 1))
    datum = WeightDatum(((((Fraction(1, 7)), 2),),))
    tau = ChainType((2, 1), (0, 0), (datum, WeightDatum.full_flags([[Fraction(3, 11)]])))
    ray = Ray((0, 2), (0, 1), 4)
    for fn, args in (
        (wall_positions, (engine, tau, ray, 0, 4)),
        (ref.wall_positions, (tau, ray, 0, 4)),
        (is_on_wall, (engine, tau, (0, 2))),
        (ref.is_on_wall, (tau, (0, 2))),
    ):
        with pytest.raises(RankMismatch):
            fn(*args)


def test_param_is_canonical():
    """Equal parameters are equal objects however they are written."""
    a = Param.of((Fraction(1, 2), Fraction(3), Fraction(37, 6)))
    assert a == Param((3, 18, 37), 6) == Param((6, 36, 74), 12)
    assert hash(a) == hash(Param((6, 36, 74), 12))
    assert a.shifted() == Param.of((0, Fraction(5, 2), Fraction(17, 3)))
    assert a.restrict((1,)) == Param.of((3,))
    ray = Ray((Fraction(1, 2),), (1,), 3)
    assert ray.at(Fraction(1, 3)) == Param.of((Fraction(5, 6),))
