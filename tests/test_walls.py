"""Ray selection, wall location and crossing-walk consistency."""

import random
import sys
from fractions import Fraction

import pytest

from parahiggs.errors import WallHit
from parahiggs.motive import CurveData
from parahiggs.parabolic import ChainType, WeightDatum, generate_generic_weights
from parahiggs.chains import necessary_conditions
from parahiggs.walls import (
    Ray,
    chamber_point,
    choose_ray,
    cross_ray,
    is_on_wall,
    wall_positions,
)
from parahiggs.engine import ChainEngine
from parahiggs.higgs import HiggsProblem, higgs_computation
from parahiggs.oracles import rank11_chain_oracle


def gen_types(g=2, k=1):
    ws = generate_generic_weights(2, 2)
    a, b = ws
    d1 = WeightDatum.full_flags([[a]])
    d2 = WeightDatum.full_flags([[b]])
    return a, b, d1, d2


def test_ray_direction_validation():
    with pytest.raises(ValueError):
        Ray((Fraction(0), Fraction(2)), (1, 0), Fraction(1))


def test_choose_ray_rank_dip():
    ws = generate_generic_weights(3, 3)
    dd = WeightDatum.full_flags([[ws[0], ws[1]]])
    d2 = WeightDatum.full_flags([[ws[2]]])
    tau = ChainType((2, 1), (0, 0), (dd, d2))
    ray = choose_ray(tau, (Fraction(0), Fraction(2)))
    assert ray.delta == (0, 1)
    assert not necessary_conditions(tau, ray.at(ray.t_max))


def test_choose_ray_rank_rise():
    ws = generate_generic_weights(3, 3)
    dd = WeightDatum.full_flags([[ws[0], ws[1]]])
    d2 = WeightDatum.full_flags([[ws[2]]])
    tau = ChainType((1, 2), (0, 0), (d2, dd))
    ray = choose_ray(tau, (Fraction(0), Fraction(2)))
    assert ray.delta == (-1, 0)
    assert not necessary_conditions(tau, ray.at(ray.t_max))


def test_choose_ray_constant_rank():
    ws = generate_generic_weights(4, 4)
    dd1 = WeightDatum.full_flags([[ws[0], ws[1]]])
    dd2 = WeightDatum.full_flags([[ws[2], ws[3]]])
    tau = ChainType((2, 2), (5, 0), (dd1, dd2))
    alpha = (Fraction(0), Fraction(2))
    ray = choose_ray(tau, alpha)
    assert ray.delta == (0, 1)
    # beyond t_max the Hecke-regime inequality holds
    t = ray.t_max
    assert tau.degrees[0] - tau.degrees[1] + 2 * 2 * 1 < (alpha[1] + t) - alpha[0]


def test_wall_positions_rank1_empty():
    d1 = WeightDatum.full_flags([[Fraction(2, 3)]])
    tau = ChainType((1,), (0,), (d1,))
    ray = Ray((Fraction(0),), (0,), Fraction(5))
    eng = ChainEngine(CurveData(2, 1))
    assert wall_positions(eng, tau, ray, Fraction(0), Fraction(5)) == []


def test_wall_positions_explicit_root():
    a, b, d1, d2 = gen_types()
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    ray = Ray((Fraction(0), Fraction(2)), (0, 1), Fraction(8))
    eng = ChainEngine(CurveData(2, 1))
    walls = wall_positions(eng, tau, ray, Fraction(0), Fraction(8))
    assert Fraction(3) + a - b - 2 in walls
    assert walls == sorted(walls)
    # sampled midpoints between walls are not on any wall
    for lo, hi in zip([Fraction(0)] + walls, walls):
        mid = (lo + hi) / 2
        assert not is_on_wall(eng, tau, ray.at(mid))


def test_is_on_wall_even_degree_no_points():
    eng = ChainEngine(CurveData(2, 0))
    tau = ChainType((2,), (0,), (WeightDatum.empty(0),))
    assert is_on_wall(eng, tau, (Fraction(0),))
    tau_odd = ChainType((2,), (1,), (WeightDatum.empty(0),))
    assert not is_on_wall(eng, tau_odd, (Fraction(0),))


def test_cross_ray_no_walls_keeps_terminal_value():
    a, b, d1, d2 = gen_types()
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    # d0 < d1 keeps the type inside the terminal regime for every t >= 0
    tau = ChainType((1, 1), (-2, 0), (d1, d2))
    alpha = (Fraction(0), Fraction(2))
    ray = choose_ray(tau, alpha)
    got = cross_ray(eng, tau, ray)
    assert got == eng.chain_class(tau, ray.at(ray.t_max))


def test_cross_ray_emptiness_propagates():
    ws = generate_generic_weights(3, 3)
    dd = WeightDatum.full_flags([[ws[0], ws[1]]])
    d2 = WeightDatum.full_flags([[ws[2]]])
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    # huge degree gap: empty at the terminal end and across every wall
    tau = ChainType((2, 1), (-30, 30), (dd, d2))
    assert eng.chain_class(tau, (Fraction(0), Fraction(2))).is_zero()


def test_chamber_constancy():
    a, b, d1, d2 = gen_types()
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    ray = Ray((Fraction(0), Fraction(2)), (0, 1), Fraction(8))
    walls = wall_positions(eng, tau, ray, Fraction(0), Fraction(8))
    t_true = Fraction(3) + a - b - 2
    assert t_true in walls
    above = [t for t in walls if t > t_true]
    hi = min(above) if above else Fraction(8)
    s1 = t_true + (hi - t_true) / 3
    s2 = t_true + 2 * (hi - t_true) / 3
    assert eng.chain_class(tau, ray.at(s1)) == eng.chain_class(tau, ray.at(s2))


def test_conservation_across_wall():
    """Class at the wall equals above plus its strata; below recovers by
    subtracting the other side, and the walk telescopes in reverse."""
    a, b, d1, d2 = gen_types()
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    ray = Ray((Fraction(0), Fraction(2)), (0, 1), Fraction(8))
    t_true = Fraction(3) + a - b - 2
    (plus, minus), count = eng.strata_at_wall(tau, ray, t_true)
    # each side keeps at least one stratum
    assert not plus.is_zero() and not minus.is_zero()
    assert count >= 2
    above = eng.chain_class(tau, ray.at(t_true + Fraction(1, 97)))
    below = eng.chain_class(tau, ray.at(t_true - Fraction(1, 97)))
    assert below == above + plus - minus


def test_wall_hit_at_a_chamber_point_propagates_from_strata_at_wall(monkeypatch):
    """strata_at_wall evaluates each part once, at its chamber point beside
    the wall: a WallHit forced there leaves strata_at_wall after that one
    chain_class call, with no second evaluation point tried."""
    a, b, d1, d2 = gen_types()
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    ray = Ray((Fraction(0), Fraction(2)), (0, 1), Fraction(8))
    t_wall = Fraction(3) + a - b - 2
    assert ChainEngine(CurveData(2, 1)).strata_at_wall(tau, ray, t_wall)[1] >= 1

    eng = ChainEngine(CurveData(2, 1))
    calls = []

    def forced(part, alpha):
        calls.append((part, alpha))
        raise WallHit("forced at the chamber point")

    monkeypatch.setattr(eng, "chain_class", forced)
    with pytest.raises(WallHit, match="forced at the chamber point"):
        eng.strata_at_wall(tau, ray, t_wall)
    ((part, alpha),) = calls
    assert alpha in [ray.at(chamber_point(eng, part, ray, t_wall, side))
                     for side in (+1, -1)]


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_every_part_strata_at_wall_evaluates_is_off_its_walls(genus, seed):
    """The parts of every wall stratum on (g,1,3) at d = 0, 1, 2 are evaluated
    at their chamber points, which lie off each part's own walls: no WallHit
    can arise there, so strata_at_wall needs no fallback point."""
    rnd = random.Random(f"{seed}/{genus}")
    prime = 2_147_483_647
    datum = WeightDatum.full_flags(
        [sorted(Fraction(rnd.randrange(1, prime), prime) for _ in range(3))]
    )
    curve = CurveData(genus, 1)
    for degree in range(3):
        eng = ChainEngine(curve)
        chain_class, evaluated = eng.chain_class, []

        def watched(part, alpha):
            if sys._getframe(1).f_code.co_name == "strata_at_wall":
                evaluated.append((part, alpha))
            return chain_class(part, alpha)

        eng.chain_class = watched
        higgs_computation(HiggsProblem(curve, 3, degree, datum), eng)
        assert eng.stats["walls_crossed"] and evaluated
        for part, alpha in evaluated:
            assert not is_on_wall(eng, part, alpha)


def test_ray_independence():
    """Two admissible directions give the same class at the base parameter."""
    a, b, d1, d2 = gen_types()
    curve = CurveData(2, 1)
    alpha = (Fraction(0), Fraction(2))
    for d0, dd1 in ((3, 0), (2, -1), (1, 1)):
        tau = ChainType((1, 1), (d0, dd1), (d1, d2))
        eng1 = ChainEngine(curve)
        got1 = cross_ray(eng1, tau, Ray(alpha, (0, 1), Fraction(12)))
        eng2 = ChainEngine(curve)
        got2 = cross_ray(eng2, tau, Ray(alpha, (0, 2), Fraction(12)))
        assert got1 == got2
        assert got1 == rank11_chain_oracle(2, 1, d0, dd1, [a], [b], alpha)


def test_wall_hit_raises():
    curve = CurveData(2, 0)
    eng = ChainEngine(curve)
    empty = WeightDatum.empty(0)
    tau = ChainType((1, 1), (2, 0), (empty, empty))
    with pytest.raises(WallHit):
        eng.chain_class(tau, (Fraction(0), Fraction(2)))


def test_cross_ray_moves_an_on_wall_anchor():
    """A traversal bound on a wall is moved into the chamber above it before
    the walk starts, and the class at the base is unchanged."""
    a, b, d1, d2 = gen_types()
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    alpha = (Fraction(0), Fraction(2))
    eng = ChainEngine(CurveData(2, 1))
    (wall,) = wall_positions(eng, tau, Ray(alpha, (0, 1), Fraction(8)), 0, 8)
    assert wall == Fraction(23, 29)
    got = cross_ray(eng, tau, Ray(alpha, (0, 1), wall))
    assert got == rank11_chain_oracle(2, 1, 3, 0, [a], [b], alpha)


@pytest.mark.parametrize("ranks", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_chamber_point_leaves_no_wall_before_it(ranks, seed):
    """From a wall or a point between walls, chamber_point lands within 1/2
    on the asked side, with no wall of tau strictly between or at it."""
    rnd = random.Random(seed)
    ws = iter(generate_generic_weights(sum(ranks), 2))
    data = tuple(WeightDatum.full_flags([[next(ws) for _ in range(n)]]) for n in ranks)
    tau = ChainType(ranks, (rnd.randint(-3, 3), rnd.randint(-3, 3)), data)
    ray = Ray((0, rnd.randint(1, 3)), rnd.choice([(0, 1), (0, 2), (-1, 0)]), 8)
    eng = ChainEngine(CurveData(2, 1))
    walls = wall_positions(eng, tau, ray, -2, 10)
    starts = walls + [Fraction(rnd.randint(0, 80), 10) for _ in range(4)]
    for t in starts:
        for side in (+1, -1):
            p = chamber_point(eng, tau, ray, t, side)
            assert 0 < side * (p - t) <= Fraction(1, 2)
            assert not any(min(t, p) < w < max(t, p) or w == p for w in walls)
            assert not is_on_wall(eng, tau, ray.at(p))
