"""Sanity of the independent validators themselves."""

from fractions import Fraction

import pytest

from parahiggs.engine import ChainEngine
from parahiggs.motive import CurveData, ring, specialize_count
from parahiggs.parabolic import ChainType, WeightDatum
from parahiggs.oracles import (
    bun2_hn_recursion_oracle,
    bun2_stack_count,
    gaussian_binomial,
    gaussian_flag_count,
    rank1_higgs_oracle,
    rank11_chain_oracle,
)


def test_gaussian_counts():
    assert gaussian_flag_count(2, (1, 1), 2) == 3
    assert gaussian_flag_count(3, (1, 1, 1), 2) == 21
    assert gaussian_flag_count(4, (4,), 5) == 1
    assert gaussian_binomial(4, 2, 3) == 130


def test_rank1_oracle():
    R2 = ring(2)
    assert rank1_higgs_oracle(2) == R2.Pic * R2.L ** 2
    assert rank1_higgs_oracle(0) == ring(0).one


def test_rank11_oracle_cases():
    R = ring(2)
    a, b = Fraction(3, 29), Fraction(9, 29)
    alpha = (Fraction(0), Fraction(2))
    # unstable truncation: zero
    assert rank11_chain_oracle(2, 1, 3, 0, [a], [b], alpha).is_zero()
    # negative modification length: zero
    assert rank11_chain_oracle(2, 1, -3, 0, [a], [b], alpha).is_zero()
    # upper weight above the lower one forces vanishing, shortening the divisor
    forced = rank11_chain_oracle(2, 1, 0, 0, [a], [b], alpha)
    free = rank11_chain_oracle(2, 1, 0, 0, [b], [a], alpha)
    assert forced == R.Pic / (R.L - 1)
    assert free == R.Pic / (R.L - 1) * R.C(1)
    # equal weights put the degree-2 gap exactly on the wall
    with pytest.raises(ValueError):
        rank11_chain_oracle(2, 1, 2, 0, [a], [a], alpha)


def test_bun2_oracle_genus0_empty():
    # no semistable rank-2 bundles of odd degree on the projective line
    assert bun2_hn_recursion_oracle(0, 1, 2, (1,)) == 0
    assert bun2_hn_recursion_oracle(0, -1, 3, (1,)) == 0


def test_bun2_oracle_genus2_positive():
    zeta = (1, 0, 0, 0, 4)
    val = bun2_hn_recursion_oracle(2, 1, 2, zeta)
    assert val == 75
    assert val > 0


def test_bun2_oracle_truncation_independent():
    zeta = (1, 0, 0, 0, 4)
    vals = {bun2_hn_recursion_oracle(2, 1, 2, zeta, truncation=t) for t in (3, 10, 40)}
    assert len(vals) == 1


def test_bun2_oracle_matches_engine_every_degree():
    """At even degree the strictly semistable bundles stay in; the engine's
    length-zero class on the wall is that semistable bundle class."""
    for g, zeta in ((0, (1,)), (2, (1, 0, 0, 0, 4))):
        curve = CurveData(g, 0, zeta)
        eng = ChainEngine(curve)
        for d in (-2, 0, 1, 2, 3):
            tau = ChainType((2,), (d,), (WeightDatum.empty(0),))
            cls = eng.chain_class(tau, (Fraction(0),))
            want = bun2_hn_recursion_oracle(g, d, 2, zeta)
            assert specialize_count(cls, curve, 2) == want, (g, d)


def test_bun2_stack_count_value():
    # q^{3(g-1)} #Pic/(q-1) Z(q^{-2}) at q=2, genus 2
    zeta = (1, 0, 0, 0, 4)
    assert bun2_stack_count(2, 2, zeta) == Fraction(325, 3)
