"""Building-block stack classes against counting oracles and identities."""

from collections import Counter
from fractions import Fraction

import pytest

from dict_reference import to_dict
from parahiggs import motive, stacks
from parahiggs.errors import InvalidFlagType
from parahiggs.higgs import HiggsProblem, higgs_computation
from parahiggs.motive import CurveData, ring, specialize_count, sym_cxp_coeff
from parahiggs.parabolic import WeightDatum, generate_generic_weights
from parahiggs.stacks import (
    bundle_stack_class,
    flag_class,
    gl_class,
    pbundle_stack_class,
    phecke_class,
)
from parahiggs.oracles import gaussian_flag_count
from parahiggs.chains import compositions


def test_gl_examples():
    R = ring(0)
    assert gl_class(1) == R.L - 1
    assert gl_class(2) == (R.L ** 2 - 1) * (R.L ** 2 - R.L)
    assert gl_class(3) == (R.L ** 3 - 1) * (R.L ** 3 - R.L) * (R.L ** 3 - R.L ** 2)


def test_flag_examples():
    R = ring(0)
    assert flag_class(3, (3,)) == R.one
    assert flag_class(2, (1, 1)) == R.L + 1
    assert flag_class(3, (1, 2)) == R.L ** 2 + R.L + 1
    assert flag_class(3, (1, 1, 1)) == (R.L + 1) * (R.L ** 2 + R.L + 1)


def test_flag_invalid():
    with pytest.raises(InvalidFlagType):
        flag_class(3, (1, 1))
    with pytest.raises(InvalidFlagType):
        flag_class(3, (0, 3))


def test_flag_counts_match_gaussian():
    point = CurveData(0, 0, (1,))
    for n in range(1, 5):
        for comp in compositions(n):
            cls = flag_class(n, comp)
            for q in (2, 3, 5):
                assert specialize_count(cls, point, q) == gaussian_flag_count(
                    n, comp, q
                ), (n, comp, q)


def test_flag_polynomial_nonnegative():
    for n in range(1, 5):
        for comp in compositions(n):
            cls = flag_class(n, comp)
            assert cls.is_polynomial()
            assert all(c > 0 for c in to_dict(cls.num).values())


def test_flag_reversal_symmetry():
    for n in range(2, 5):
        for comp in compositions(n):
            assert flag_class(n, comp) == flag_class(n, tuple(reversed(comp)))


def test_gl_borel_consistency():
    for n in range(1, 5):
        R = ring(0)
        borel = (R.L - 1) ** n * R.L_pow(n * (n - 1) // 2)
        assert flag_class(n, (1,) * n) * borel == gl_class(n)


def test_bundle_rank_one():
    for g in range(4):
        curve = CurveData(g, 0)
        R = ring(g)
        assert bundle_stack_class(1, 0, curve) == R.Pic / (R.L - 1)


def test_bundle_degree_independent():
    curve = CurveData(2, 0)
    assert bundle_stack_class(2, 0, curve) == bundle_stack_class(2, 1, curve)
    assert bundle_stack_class(3, -1, curve) == bundle_stack_class(3, 5, curve)


def test_stack_classes_are_computed_once_per_genus(monkeypatch):
    """The bundle stack class is one cached object for every degree, and a
    solve computes each symmetric-power coefficient once per (genus, n, ell)
    however many Hecke steps ask for it."""
    curve = CurveData(2, 1)
    assert bundle_stack_class(2, 0, curve) is bundle_stack_class(2, 7, curve)
    assert bundle_stack_class(2, 0, curve) is bundle_stack_class(2, 3, CurveData(2, 0))

    asked = Counter()
    public = stacks.sym_cxp_coeff

    def counting(curve, n, ell):
        asked[curve.genus, n, ell] += 1
        return public(curve, n, ell)

    monkeypatch.setattr(stacks, "sym_cxp_coeff", counting)
    motive._sym_cxp_coeff.cache_clear()
    datum = WeightDatum.full_flags([generate_generic_weights(3, 3)])
    higgs_computation(HiggsProblem(curve, 3, 1, datum))
    assert sum(asked.values()) > len(asked)
    assert motive._sym_cxp_coeff.cache_info().misses == len(asked)


def test_bundle_rank2_genus0():
    curve = CurveData(0, 0)
    R = ring(0)
    expected = R.one / ((R.L ** 2 - 1) * (R.L - 1) ** 2)
    assert bundle_stack_class(2, 0, curve) == expected


def test_bundle_count_siegel():
    """Stacky point count against the direct zeta-value formula."""
    zeta = (1, 0, 0, 0, 4)
    curve = CurveData(2, 0, zeta)
    q = Fraction(2)
    P = [Fraction(c) for c in zeta]

    def Z(t):
        return sum(c * t ** i for i, c in enumerate(P)) / ((1 - t) * (1 - q * t))

    for n in (1, 2, 3):
        expected = q ** ((n * n - 1) * 1) * sum(P) / (q - 1)
        for i in range(2, n + 1):
            expected *= Z(q ** -i)
        got = specialize_count(bundle_stack_class(n, 0, curve), curve, 2)
        assert got == expected, n


def test_pbundle_examples():
    curve = CurveData(1, 2)
    R = ring(1)
    d = WeightDatum.full_flags([[Fraction(1, 3)], [Fraction(1, 5)]])
    assert pbundle_stack_class(1, 0, d, curve) == R.Pic / (R.L - 1)

    curve2 = CurveData(2, 1)
    full = WeightDatum.full_flags([[Fraction(1, 7), Fraction(2, 7)]])
    assert pbundle_stack_class(2, 3, full, curve2) == bundle_stack_class(
        2, 3, curve2
    ) * (ring(2).L + 1)

    curve3 = CurveData(2, 2)
    full2 = WeightDatum.full_flags(
        [[Fraction(1, 7), Fraction(2, 7)], [Fraction(3, 7), Fraction(4, 7)]]
    )
    assert pbundle_stack_class(2, 0, full2, curve3) == bundle_stack_class(
        2, 0, curve3
    ) * (ring(2).L + 1) ** 2


def test_phecke_examples():
    curve = CurveData(2, 0)
    R = ring(2)
    base = R.Pic / (R.L - 1)
    trivial = WeightDatum.empty(0)
    assert phecke_class(base, 0, 2, trivial, curve) == base
    # a single modification point of a line bundle is a point of the curve
    assert phecke_class(base, 1, 1, trivial, curve) == base * R.C(1)

    curve1 = CurveData(2, 1)
    full = WeightDatum.full_flags([[Fraction(1, 7), Fraction(2, 7)]])
    expected = base * sym_cxp_coeff(curve1, 2, 2) * (R.L + 1)
    assert phecke_class(base, 2, 2, full, curve1) == expected
