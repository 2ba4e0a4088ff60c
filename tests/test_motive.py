"""Ring arithmetic, canonical forms, zeta machinery and specializations."""

import hashlib
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import parser_reference
import reduce_reference

from parahiggs import motive, poly, stacks
from parahiggs.errors import (
    DivisionOutsideRing,
    InconsistentZeta,
    MissingZetaData,
    NonConvergentEvaluation,
)
from parahiggs.higgs import HiggsProblem, higgs_computation
from parahiggs.motive import (
    CurveData,
    MotiveClass,
    max_atom,
    num_vars,
    parse_class,
    ring,
    specialize_E,
    specialize_count,
    sym_cxp_coeff,
    zeta_eval,
)
from parahiggs.oracles import split_zeta_numerator
from parahiggs.parabolic import WeightDatum, generate_generic_weights
from parahiggs.stacks import bundle_stack_class, flag_class, gl_class

ZETA_G1 = (1, 0, 2)          # elliptic curve over F_2 with a_1 = 0
ZETA_G2_Q2 = (1, 0, 0, 0, 4)  # y^2 + y = x^5 over F_2


def p_add(a, b):
    """Sum of two multivariate poly dicts, zero coefficients dropped."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if not out[m]:
            del out[m]
    return out


# ---------------------------------------------------------------------------
# independent series oracles


def series_coeff_P1_sym(i):
    """t^i coefficient of 1/((1-t)(1-Lt)) as an L-polynomial: [P^i]."""
    R = ring(0)
    return sum((R.L ** j for j in range(i + 1)), R.zero)


def e_sym_series_coeff(i, g, u, v):
    """t^i coefficient of (1-ut)^g (1-vt)^g / ((1-t)(1-uvt)) at numeric u, v."""
    total = Fraction(0)
    for a in range(g + 1):
        for b in range(g + 1):
            rest = i - a - b
            if rest < 0:
                continue
            inner = sum((u * v) ** j for j in range(rest + 1))
            total += comb(g, a) * comb(g, b) * (-u) ** a * (-v) ** b * inner
    return total


def e_eval(ep, u, v):
    total = Fraction(0)
    for (i, j), c in ep.num.items():
        total += c * u ** i * v ** j
    if ep.den is not None:
        den = sum(c * u ** i * v ** j for (i, j), c in ep.den.items())
        total /= den
    return total


# ---------------------------------------------------------------------------
# arithmetic and canonical form


def test_unit_cancellation():
    R = ring(2)
    x = R.C(1) * (R.L - 1) / (R.L - 1)
    assert x == R.C(1)
    # a divisor with a leading L power and a negative sign
    y = -R.L ** 2 * (R.L - 1)
    assert str(R.one / y) == "(-1) / (L^2 * (L - 1))"
    assert (R.one / y) * y == R.one and R.C(1) * y / y == R.C(1)


def test_polynomial_division():
    R = ring(0)
    assert (R.L ** 2 - 1) / (R.L - 1) == R.L + 1


def test_linearity():
    R = ring(2)
    assert R.C(1) * (R.L + 1) + R.C(1) * (-R.L) == R.C(1)


def test_ring_ops_dispatch():
    R = ring(1)
    a, b = R.L + 1, R.L - 1
    assert a + b == 2 * R.L
    assert a - b == R.monomial(2)
    assert a * b == R.L ** 2 - 1
    assert (a * b) / b == a
    assert b ** 2 == R.L ** 2 - 2 * R.L + 1


def test_int_operands_on_both_sides():
    R = ring(2)
    assert 2 - R.L == -(R.L - 2)
    assert str(2 - R.L) == "-L + 2"
    assert str(R.L - 2) == "L - 2"
    assert str(2 + R.Pic) == "Pic + 2"
    assert str(3 * R.C(1)) == "3 * C1"
    with pytest.raises(TypeError):
        hash(R.L)


def test_monomial_builder():
    R = ring(2)
    assert R.monomial(0, (4, 1)) == R.zero and R.monomial(0).is_zero()
    assert R.monomial(1) == R.one
    assert R.monomial(-3, (2,)) == -3 * R.L ** 2
    assert R.monomial(5, (-2, 1, 3)) == 5 * R.Pic * R.C(1) ** 3 / R.L ** 2
    assert str(R.monomial(5, (-2, 1))) == "(5 * Pic) / (L^2)"


def test_division_outside_ring():
    R = ring(2)
    with pytest.raises(DivisionOutsideRing):
        R.one / R.C(1)
    with pytest.raises(DivisionOutsideRing):
        R.one / (R.L + 2)
    # an admissible L-polynomial next to a Pic tail, with and without a
    # common power of L
    for divisor in ((R.L - 1) * (R.one + R.Pic), R.L ** 2 + R.Pic * R.L):
        with pytest.raises(DivisionOutsideRing):
            R.one / divisor


def motive_elements(genus):
    R = ring(genus)
    atoms = [R.one, R.L, R.Pic] + [R.C(i) for i in range(1, max(genus - 1, 0) + 1)]
    scalars = st.integers(min_value=-3, max_value=3)

    def build(draw):
        total = R.zero
        for _ in range(draw(st.integers(0, 3))):
            term = R.monomial(draw(scalars))
            for _ in range(draw(st.integers(0, 2))):
                term = term * draw(st.sampled_from(atoms))
            total = total + term
        den_pow = draw(st.integers(0, 2))
        den_cyc = draw(st.integers(0, 1))
        total = total * R.L_pow(-den_pow)
        if den_cyc:
            total = total / (R.L ** draw(st.integers(1, 3)) - 1)
        return total

    return st.composite(lambda draw: build(draw))()


def fast_path_pairs(genus):
    """Operand pairs for the shortcuts of + and *: zero on either side, equal
    denominators that cancel (L - 1 divides the sum of the numerators, and
    x + (-x)), L^k against an L-power denominator, polynomial times
    polynomial, and fractions whose numerators cancel against each other's
    denominators."""
    R = ring(genus)
    x = (R.Pic + 2 * R.L) / (R.L - 1)
    y = (R.Pic + R.L) * R.L_pow(-2)
    return [
        (R.zero, x), (x, R.zero), (R.zero, R.zero),
        ((R.Pic * R.L + 2) / (R.L - 1), -x), (x, -x),
        (R.L ** 3, y), (y, R.L),
        (R.Pic + R.L, R.L - 1),
        ((R.L + 1) * R.Pic / (R.L * (R.L - 1)),
         (R.L - 1) * (R.L + 2) / (R.L * (R.L + 1) ** 2)),
    ]


def with_fast_path_inputs(elems, genus):
    return st.one_of(
        elems, st.sampled_from([x for pair in fast_path_pairs(genus) for x in pair])
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_laws(data):
    for g in (0, 2):
        elems = with_fast_path_inputs(motive_elements(g), g)
        a = data.draw(elems)
        b = data.draw(elems)
        c = data.draw(elems)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + (b + c) == (a + b) + c
        assert a * ring(g).one == a
        assert a + ring(g).zero == a
        assert a - a == ring(g).zero
        # one n-ary sum, in any order, is the left fold of +
        xs = data.draw(st.lists(elems, max_size=4))
        fold = ring(g).zero
        for x in xs:
            fold = fold + x
        got = ring(g).sum(data.draw(st.permutations(xs)))
        assert got == fold and str(got) == str(fold)


def test_ring_sum_edge_cases():
    R = ring(2)
    x = (R.Pic + 2 * R.L) / (R.L - 1)
    assert R.sum([]) == R.zero
    assert R.sum([R.zero, x]) is x
    for mixed in ([x, ring(1).L], [ring(1).zero, x]):
        with pytest.raises(ValueError):
            R.sum(mixed)
    with pytest.raises(ValueError):
        x + ring(1).L
    # a memoized class summed with itself, alone and next to a fraction,
    # keeps its own numerator
    shared = R.C(5)
    before = dict(shared.num)
    assert R.sum([shared, shared]) == 2 * shared
    assert R.sum([shared, x, shared, -x]) == shared + shared
    assert shared.num == before and R.C(5) is shared


@pytest.mark.parametrize("n", range(10))
def test_p_pow_matches_repeated_products(n):
    a = {(1, 0): 2, (0, 1): -1, (0, 0): 3}
    want = poly.p_const(1, 2)
    for _ in range(n):
        want = poly.p_mul(want, a)
    assert poly.p_pow(a, n, 2) == want


def test_p_pow_squares_only_while_bits_remain(monkeypatch):
    squarings = []
    p_mul = poly.p_mul

    def counting(a, b):
        if a is b:
            squarings.append(a)
        return p_mul(a, b)

    monkeypatch.setattr(poly, "p_mul", counting)
    a = {(1,): 1, (0,): -1}
    for n, want in ((1, 0), (2, 1), (3, 1), (4, 2), (5, 2)):
        squarings.clear()
        poly.p_pow(a, n, 1)
        assert len(squarings) == want, n


def random_reduced_class(rng, genus):
    """A class in lowest terms from the reducing constructor: a numerator of
    up to three terms, sometimes times L, Phi_1, Phi_2 or Phi_3 so that a
    factor cancels, over L^b Phi_1^m1 Phi_2^m2 Phi_3^m3 with exponents 0-2."""
    nvars = num_vars(genus)
    num = {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice((-2, -1, 1, 3))
           for _ in range(rng.randint(1, 3))}
    factor = rng.choice([(1,), (0, 1)] + [poly.cyclotomic(e) for e in (1, 2, 3)])
    num = poly.p_mul(num, poly.u_to_multivar(factor, nvars))
    mults = {e: rng.randint(0, 2) for e in (1, 2, 3)}
    factors = tuple((e, m) for e, m in mults.items() if m)
    return MotiveClass(genus, num, (rng.randint(0, 2), factors))


@pytest.mark.parametrize("n", range(8))
def test_class_pow_matches_repeated_products(n):
    R = ring(2)
    x = (R.Pic + R.L) * R.L_pow(-3) / ((R.L - 1) * (R.L ** 2 - 1))
    want = R.one
    for _ in range(n):
        want = want * x
    got = x ** n
    assert got == want and str(got) == str(want)
    # x ** n skips the reduction, as L and each Phi_e are prime: for n in
    # 0-4 it equals the reducing constructor on its numerator and denominator
    if n > 4:
        return
    rng = random.Random(n)
    seen = set()
    for g in (0, 1, 2):
        for _ in range(30):
            x = random_reduced_class(rng, g)
            b, factors = x.den
            seen.update(e for e, _ in factors)
            if b:
                seen.add("L")
            den = (n * b, tuple((e, n * m) for e, m in factors) if n else ())
            want = MotiveClass(g, poly.p_pow(x.num, n, num_vars(g)), den)
            got = x ** n
            assert got == want and str(got) == str(want), (g, str(x))
    assert seen == {"L", 1, 2, 3}


def test_class_pow_of_large_denominator_is_fast():
    R = ring(2)
    start = time.perf_counter()
    got = R.L_pow(-30) ** 1000
    assert time.perf_counter() - start < 0.5
    assert got == R.L_pow(-30000)


def test_p_mul_explicit_zero_coefficient():
    assert poly.p_mul({(): 0}, {(): 1}) == {}
    assert poly.p_mul({(1,): 2, (0,): 0}, {(0,): 3}) == {(1,): 6}


def test_u_div_exact_over_integers():
    # monic, leading -1 and non-monic divisors; None when the quotient
    # leaves Z[L] or a remainder is left
    assert poly.u_div_exact((-1, 0, 1), (-1, 1)) == (1, 1)
    assert poly.u_div_exact((1, 0, -1), (1, -1)) == (1, 1)
    assert poly.u_div_exact((2, 4, 2), (2, 2)) == (1, 1)
    assert poly.u_div_exact((6, 3), (2, 1)) == (3,)
    assert poly.u_div_exact((1, 1), (2, 2)) is None
    assert poly.u_div_exact((1, 2), (0, 2)) is None
    assert poly.u_div_exact((1, 0, 1), (-1, 1)) is None
    assert poly.u_div_exact((), (1, 1)) == ()
    for e in range(1, 13):
        assert poly.u_div_exact(poly.u_lpower_minus_one(e), poly.cyclotomic(e))


def shared_factor_elements(genus):
    """Classes over L^b (L^a1 - 1)(L^a2 - 1), a_i in 1..4, b in 0..2.

    The two bundles can share Phi_1 and Phi_2.  Common numerator factors
    drawn from L, L - 1, L + 1 and L^2 + L + 1 cancel against them, up to
    twice each.
    """
    R = ring(genus)
    atoms = [R.one, R.L, R.Pic] + [R.C(i) for i in range(1, max(genus - 1, 0) + 1)]
    factors = [R.L, R.L - 1, R.L + 1, R.L ** 2 + R.L + 1]

    def build(draw):
        total = R.zero
        for _ in range(draw(st.integers(0, 3))):
            term = R.monomial(draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(0, 2))):
                term = term * draw(st.sampled_from(atoms))
            total = total + term
        for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
            total = total * f
        total = total * R.L_pow(-draw(st.integers(0, 2)))
        for a in draw(st.lists(st.integers(1, 4), max_size=2)):
            total = total / (R.L ** a - 1)
        return total

    return st.composite(lambda draw: build(draw))()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_form_matches_gcd(data):
    for g in (0, 2):
        elems = with_fast_path_inputs(shared_factor_elements(g), g)
        a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
        # sum and product against the fully reducing constructor applied to
        # the cross-multiplied fraction
        nv = num_vars(g)
        for x, y in [(a, b), (b, c)] + fast_path_pairs(g):
            xd, yd = motive._den_poly(x.den), motive._den_poly(y.den)
            den = poly.u_factor_cyclotomic(poly.u_mul(xd, yd))[1:]
            total = p_add(poly.p_mul(x.num, poly.u_to_multivar(yd, nv)),
                               poly.p_mul(y.num, poly.u_to_multivar(xd, nv)))
            for got, want in ((x + y, MotiveClass(g, total, den)),
                              (x * y, MotiveClass(g, poly.p_mul(x.num, y.num), den))):
                assert got == want and str(got) == str(want), (x, y)
        # the three-term sum against the fraction over the product of the
        # three denominators
        dens = [motive._den_poly(x.den) for x in (a, b, c)]
        total = {}
        for x, (d1, d2) in zip((a, b, c), [dens[1:], dens[::2], dens[:2]]):
            cofactor = poly.u_to_multivar(poly.u_mul(d1, d2), nv)
            total = p_add(total, poly.p_mul(x.num, cofactor))
        den = poly.u_factor_cyclotomic(poly.u_mul(poly.u_mul(*dens[:2]), dens[2]))[1:]
        got, want = ring(g).sum((a, b, c)), MotiveClass(g, total, den)
        assert got == want and str(got) == str(want), (a, b, c)
        for x in (a, b, c, a + b, a * b - c, (a + b) * c):
            assert motive._den_poly(x.den)[-1] == 1
            # the gcd of den with all L-coefficient polynomials of num is 1
            coeffs = {}
            for m, v in x.num.items():
                coeffs.setdefault(m[1:], {})[m[0]] = v
            common = motive._den_poly(x.den)
            for terms in coeffs.values():
                common = poly.u_gcd(
                    common, tuple(terms.get(i, 0) for i in range(max(terms) + 1))
                )
            assert common == (1,), x
        left, right = (a + b) + c, c + (b + a)
        assert left == right
        assert str(left) == str(right)


def _seeded_reduction(rng):
    """A numerator and factored denominator for _reduce at genus 2.

    One to four tails (monomials in Pic and C1) carry random L-polynomials,
    some shifted by a power of L; the denominator is L^b Phi_1^i Phi_2^j
    Phi_3^k Phi_4^l Phi_6^m.  The tails are multiplied by L - 1, L + 1,
    both or neither, each tail or all but one, so that Phi_1 and Phi_2
    often divide every tail, some tails only, or none.
    """
    tails = rng.sample([(a, c) for a in range(3) for c in range(3)], rng.randint(1, 4))
    factor = rng.choice([(), ((-1, 1),), ((1, 1),), ((-1, 1), (1, 1)), ((-1, 1), (-1, 1))])
    skipped = rng.choice([None] + tails) if factor else None
    num = {}
    for tail in tails:
        coeff = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        coeff = (0,) * rng.randint(0, 2) + tuple(coeff) + (rng.choice([-2, -1, 1, 2]),)
        for f in factor if tail != skipped else ():
            coeff = poly.u_mul(coeff, f)
        num.update({(i,) + tail: c for i, c in enumerate(coeff) if c})
    mults = [(1, rng.randint(0, 2)), (2, rng.randint(0, 2)), (3, rng.randint(0, 1)),
             (4, rng.randint(0, 1)), (6, rng.randint(0, 1))]
    return num, (rng.randint(0, 2), tuple((e, m) for e, m in mults if m))


def test_reduce_matches_long_division_reference(monkeypatch):
    """_reduce tests Phi_1 and Phi_2 by evaluation at L = 1 and L = -1 and
    returns at once when nothing can cancel; it gives the reduction that
    long division by every factor gives, never tries a division by L - 1 or
    L + 1 that fails, and reaches each of its outcomes on the sample."""
    divisions = []
    exact = motive.u_div_exact

    def recording(a, b):
        q = exact(a, b)
        divisions.append((b, q is not None))
        return q

    monkeypatch.setattr(motive, "u_div_exact", recording)
    rng = random.Random("reduce")
    # (L - 1)(L + 2) Pic + (L + 2) C1 over L - 1: only the Pic tail vanishes
    # at L = 1, so nothing cancels
    mixed = ({(2, 1, 0): 1, (1, 1, 0): 1, (0, 1, 0): -2, (1, 0, 1): 1, (0, 0, 1): 2},
             (0, ((1, 1),)))
    assert motive._reduce(*mixed) == mixed
    reached = set()
    for num, den in [mixed] + [_seeded_reduction(rng) for _ in range(600)]:
        divisions.clear()
        got = motive._reduce(num, den)
        want = reduce_reference._reduce(num, den)
        assert got == want, (num, den)
        assert all(ok for b, ok in divisions if len(b) == 2), (num, den)
        before, after = dict(den[1]), dict(got[1][1])
        if got[0] is num and got[1] is den and not divisions:
            reached.add("early return")
        for e in (1, 2):
            if after.get(e, 0) < before.get(e, 0):
                reached.add(f"Phi_{e} cancel")
        if got[1][0] < den[0]:
            reached.add("L-shift")
    assert reached == {"early return", "Phi_1 cancel", "Phi_2 cancel", "L-shift"}


# ---------------------------------------------------------------------------
# symmetric-power reduction


def test_reduce_high_sym_genus0():
    # equals [P^2]; oracle: coefficient of t^2 in 1/((1-t)(1-Lt))
    assert ring(0).C(2) == series_coeff_P1_sym(2)


def test_reduce_high_sym_genus1():
    R = ring(1)
    assert R.C(1) == R.Pic
    # E-specializations of both sides agree
    lhs = specialize_E(R.C(1))
    u, v = Fraction(2), Fraction(3)
    assert e_eval(lhs, u, v) == e_sym_series_coeff(1, 1, u, v)


def test_reduce_high_sym_genus2():
    R = ring(2)
    assert R.C(3) == R.Pic * (R.L + 1)


def test_sym_reduction_specialization_consistent():
    """E-spec of every rewritten symmetric power equals the series coefficient."""
    u, v = Fraction(2), Fraction(5)
    for g in range(4):
        R = ring(g)
        for i in range(0, 2 * g + 4):
            got = e_eval(specialize_E(R.C(i)), u, v)
            assert got == e_sym_series_coeff(i, g, u, v), (g, i)


def test_symmetric_powers_built_once_per_ring(monkeypatch):
    """Ring.C builds each class once per ring and shares it; the shared
    classes equal those of a fresh ring built in the opposite order, and a
    repeated call does no ring arithmetic."""
    from parahiggs.motive import Ring

    for g in range(4):
        R, fresh = Ring(g), Ring(g)
        indices = range(-1, 2 * g + 4)
        first = [R.C(i) for i in indices]
        assert [fresh.C(i) for i in reversed(indices)][::-1] == first
        for op in ("__add__", "__mul__"):
            monkeypatch.setattr(MotiveClass, op, None)
        assert all(R.C(i) is cls for i, cls in zip(indices, first))
        monkeypatch.undo()


def test_trial_divisions_of_one_solve(monkeypatch):
    """The (2,1,3) solve at degree 1 makes 232 trial divisions in the motive
    ring once the caches of its building blocks are cleared.  Phi_1 and
    Phi_2 are tested by evaluation at L = 1 and L = -1 before any division,
    so a reduction that divided by them instead would raise the count."""
    calls = []
    divide = motive.u_div_exact

    def counting(a, b):
        calls.append(b)
        return divide(a, b)

    monkeypatch.setattr(motive, "u_div_exact", counting)
    for cached in (motive._sym_cxp_coeff, stacks._bundle_stack_class,
                   stacks.gl_class, stacks.flag_class):
        cached.cache_clear()
    datum = WeightDatum.full_flags([generate_generic_weights(3, 3)])
    higgs_computation(HiggsProblem(CurveData(2, 1), 3, 1, datum))
    assert len(calls) == 232


def test_sym_duality_relation_counts():
    # [Sym^2 C] = Pic + L at genus 2, checked against two real curves
    R = ring(2)
    assert R.C(2) == R.Pic + R.L
    for q, zeta in ((2, ZETA_G2_Q2), (3, (1, 0, -2, 0, 9))):
        curve = CurveData(2, 0, zeta)
        assert specialize_count(R.C(2), curve, q) == specialize_count(
            R.Pic + R.L, curve, q
        )


# ---------------------------------------------------------------------------
# zeta machinery


def test_zeta_coeff_basics():
    assert ring(2).C(0) == ring(2).one
    assert ring(0).C(3) == series_coeff_P1_sym(3)


def test_zeta_eval_genus0():
    R = ring(0)
    val = zeta_eval(CurveData(0, 0), -2)
    expected = R.L_pow(3) / ((R.L ** 2 - 1) * (R.L - 1))
    assert val == expected


def test_zeta_eval_genus1_series():
    """Closed form vs term-by-term series in the E-specialization."""
    curve = CurveData(1, 0)
    val = specialize_E(zeta_eval(curve, -2))
    u, v = Fraction(2), Fraction(3)
    closed = e_eval(val, u, v)
    q = u * v
    series = sum(
        e_sym_series_coeff(i, 1, u, v) * q ** (-2 * i) for i in range(80)
    )
    # the truncated tail is geometric with ratio 1/q
    assert abs(closed - series) < Fraction(1, q ** 70)


def test_zeta_eval_nonconvergent():
    with pytest.raises(NonConvergentEvaluation):
        zeta_eval(CurveData(1, 0), 0)
    with pytest.raises(NonConvergentEvaluation):
        zeta_eval(CurveData(1, 0), -1)


def test_zeta_rationality_tail_vanishes():
    """(1-t)(1-Lt) * sum [C^(i)] t^i has zero coefficients above 2g."""
    for g in range(4):
        R = ring(g)

        def coeff(i):
            return R.C(i) if i >= 0 else R.zero

        for deg in (2 * g + 1, 2 * g + 2):
            val = coeff(deg) - (R.one + R.L) * coeff(deg - 1) + R.L * coeff(deg - 2)
            assert val.is_zero(), (g, deg)


def test_sym_cxp_examples():
    curve = CurveData(2, 0)
    R = ring(2)
    assert sym_cxp_coeff(curve, 3, 0) == R.one
    assert sym_cxp_coeff(curve, 2, 1) == R.C(1) * (R.one + R.L)
    assert sym_cxp_coeff(curve, 1, 2) == R.C(2)


def test_sym_cxp_line_identity():
    # length-one modifications of rank n: a point of C times P^{n-1}
    for g in (0, 1, 2, 3):
        curve = CurveData(g, 0)
        R = ring(g)
        for n in range(1, 5):
            expected = R.C(1) * (R.L ** n - 1) / (R.L - 1)
            assert sym_cxp_coeff(curve, n, 1) == expected


def reference_zeta_numerator_classes(curve):
    """Test-only reference: every a_j of P(t) = (1-t)(1-Lt) Z(C,t), j = 0..2g,
    expanded from the symmetric powers."""
    R = ring(curve.genus)
    return [R.C(j) - (R.one + R.L) * R.C(j - 1) + R.L * R.C(j - 2)
            for j in range(2 * curve.genus + 1)]


def reference_zeta_eval(curve, e):
    """Test-only reference: P(L^e) as 2g + 1 binary adds of a_j L^{je}."""
    R = ring(curve.genus)
    p_val = R.zero
    for j, a in enumerate(reference_zeta_numerator_classes(curve)):
        p_val = p_val + a * R.L_pow(j * e)
    return p_val / ((R.one - R.L_pow(e)) * (R.one - R.L_pow(e + 1)))


def reference_sym_cxp_coeff(g, n, ell):
    """Test-only reference: the full convolution of the n series
    Z(C, L^j t), from [1, 0, ..., 0], truncated at t^ell."""
    R = ring(g)
    series = [R.one] + [R.zero] * ell
    for j in range(n):
        factor = [R.C(i) * R.L_pow(j * i) for i in range(ell + 1)]
        new = [R.zero] * (ell + 1)
        for a in range(ell + 1):
            for b in range(ell + 1 - a):
                new[a + b] = new[a + b] + series[a] * factor[b]
        series = new
    return series[ell]


@pytest.mark.parametrize("g", range(11))
def test_zeta_numerator_mirror_matches_the_full_expansion(g):
    """a_{2g-j} = L^{g-j} a_j gives the same classes as expanding C^(j)."""
    got = motive._zeta_numerator_classes(CurveData(g))
    want = reference_zeta_numerator_classes(CurveData(g))
    assert [str(a) for a in got] == [str(a) for a in want]


@pytest.mark.parametrize("g", range(11))
def test_zeta_eval_matches_binary_adds(g):
    for e in (-2, -3, -5):
        got, want = zeta_eval(CurveData(g), e), reference_zeta_eval(CurveData(g), e)
        assert got == want and str(got) == str(want), (g, e)


def test_sym_cxp_coeff_matches_the_full_convolution():
    for g in range(4):
        for n in range(1, 5):
            for ell in range(9):
                got = motive._sym_cxp_coeff(g, n, ell)
                want = reference_sym_cxp_coeff(g, n, ell)
                assert got == want and str(got) == str(want), (g, n, ell)


# ---------------------------------------------------------------------------
# specializations


def test_specialize_E_examples():
    R = ring(2)
    assert str(specialize_E(R.L)) == "u*v"
    e = specialize_E(R.C(1))
    assert e.num == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(-2),
        (0, 1): Fraction(-2),
        (1, 1): Fraction(1),
    }
    e1 = specialize_E(ring(1).Pic)
    assert e1.num == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(-1),
        (0, 1): Fraction(-1),
        (1, 1): Fraction(1),
    }


def test_specialize_E_rational_flag():
    R = ring(1)
    stack = R.Pic / (R.L - 1)
    e = specialize_E(stack)
    assert not e.is_polynomial


def test_specialize_E_divides_a_denominator_out():
    """A class outside the polynomial subring whose E-polynomial is one:
    L - 1 divides the image of its numerator, so the quotient is built."""
    R = ring(2)
    x = (4 * R.Pic - (R.one + R.L + R.C(1)) ** 2) / (R.L - 1) + R.L
    assert not x.is_polynomial()
    assert str(x) == "(-2 * L * C1 - 3 * L + 4 * Pic - C1^2 - 2 * C1 - 1) / ((L - 1))"
    assert str(specialize_E(x)) == "u*v"
    assert specialize_count(x, CurveData(2, 0, split_zeta_numerator(2, 2, 3)), 6) == 6
    # without the L term the class is in the kernel of the E-map: the
    # numerator's image is zero, and so is the quotient
    kernel = x - R.L
    assert not kernel.is_polynomial()
    e = specialize_E(kernel)
    assert e.is_polynomial and str(e) == "0"


def test_specialize_count_examples():
    curve = CurveData(1, 0, ZETA_G1)
    R = ring(1)
    # P(t) = 1 + 2t^2: point count q + 1 - a with a = 0, Jacobian order P(1)
    assert specialize_count(R.C(1), curve, 2) == 3
    assert specialize_count(R.Pic, curve, 2) == 3


def test_specialize_count_trivial():
    curve = CurveData(0, 0, (1,))
    assert specialize_count(ring(0).L + 1, curve, 3) == 4


def test_specialize_count_missing_zeta():
    with pytest.raises(MissingZetaData):
        specialize_count(ring(1).Pic, CurveData(1, 0), 2)


def test_specialize_count_functional_equation():
    with pytest.raises(InconsistentZeta):
        specialize_count(ring(1).Pic, CurveData(1, 0, (1, 1, 3)), 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_specializations_are_ring_homomorphisms(data):
    curve = CurveData(2, 0, ZETA_G2_Q2)
    elems = motive_elements(2)
    x = data.draw(elems)
    y = data.draw(elems)
    u, v = Fraction(3), Fraction(5)
    ex, ey, exy, exp_y = (
        specialize_E(x),
        specialize_E(y),
        specialize_E(x * y),
        specialize_E(x + y),
    )
    assert e_eval(exy, u, v) == e_eval(ex, u, v) * e_eval(ey, u, v)
    assert e_eval(exp_y, u, v) == e_eval(ex, u, v) + e_eval(ey, u, v)
    cx = specialize_count(x, curve, 2)
    cy = specialize_count(y, curve, 2)
    assert specialize_count(x * y, curve, 2) == cx * cy
    assert specialize_count(x + y, curve, 2) == cx + cy


def split_curve(g, a, b):
    """Zeta numerator (1-at)^g (1-bt)^g; it satisfies the functional
    equation at q = ab."""
    return CurveData(g, 0, split_zeta_numerator(g, a, b))


@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("g", range(5))
def test_E_polynomial_is_point_count_of_split_curve(g, a, b):
    """E(x) at (u, v) = (a, b) is the count at q = ab with P(t) = (1-at)^g (1-bt)^g."""
    R = ring(g)
    curve = split_curve(g, a, b)
    classes = [
        R.Pic * R.C(g - 1) / (R.L - 1),
        R.C(2 * g + 1) * R.L + R.Pic,
        bundle_stack_class(2, 0, CurveData(g, 0)),
        flag_class(3, (1, 1, 1), g),
    ]
    for x in classes:
        assert e_eval(specialize_E(x), a, b) == specialize_count(x, curve, a * b), x


def term_by_term_realize(x, q, P, nvars):
    """Test-only reference for the ring map of motive._realize on integer
    poly dicts in nvars variables, with each monomial of x.num evaluated on
    its own as a product of cached powers."""
    g = x.genus
    partial = [poly.p_const(1, nvars)]
    q_m = partial[0]
    for _ in range(max_atom(g)):
        q_m = poly.p_mul(q_m, q)
        partial.append(p_add(partial[-1], q_m))
    images = [q]
    if g >= 1:
        pic = {}
        for a in P:
            pic = p_add(pic, a)
        images.append(pic)
    for i in range(1, max_atom(g) + 1):
        sym = {}
        for j in range(i + 1):
            sym = p_add(sym, poly.p_mul(P[j], partial[i - j]))
        images.append(sym)

    pow_cache = {}
    out = {}
    for m, c in x.num.items():
        term = poly.p_const(c, nvars)
        for idx, e in enumerate(m):
            if e:
                if (idx, e) not in pow_cache:
                    pow_cache[idx, e] = poly.p_pow(images[idx], e, nvars)
                term = poly.p_mul(term, pow_cache[idx, e])
        out = p_add(out, term)
    return out


def reference_numerator(x):
    """The term-by-term map of x.num at q = uv and P(t) = (1-ut)^g (1-vt)^g,
    as a {(a, b): coefficient} dict for u^a v^b."""
    g = x.genus
    P = [
        {(a, j - a): comb(g, a) * comb(g, j - a) * (-1) ** j
         for a in range(max(0, j - g), min(g, j) + 1)}
        for j in range(2 * g + 1)
    ]
    return term_by_term_realize(x, {(1, 1): 1}, P, 2)


def reference_E(x):
    """specialize_E on (u, v) dicts: reference_numerator, then the exact
    division of each diagonal {u^i v^j : i - j = d} by the denominator read
    as a polynomial in uv."""
    num = reference_numerator(x)
    if x.is_polynomial():
        return motive.EPoly(num)
    den = motive._den_poly(x.den)
    quot = {}
    for d in {i - j for i, j in num}:
        lo = (max(d, 0), max(-d, 0))
        top = max(min(m) for m in num if m[0] - m[1] == d)
        diagonal = [num.get((k + lo[0], k + lo[1]), 0) for k in range(top + 1)]
        qd = poly.u_div_exact(tuple(diagonal), den)
        if qd is None:
            return motive.EPoly(num, {(e, e): c for e, c in enumerate(den) if c})
        quot.update({(k + lo[0], k + lo[1]): c for k, c in enumerate(qd) if c})
    return motive.EPoly(quot)


def reference_count(x, curve, q):
    """specialize_count through the term-by-term map on constant dicts."""
    P = [poly.p_const(a, 0) for a in curve.zeta_numerator]
    num = term_by_term_realize(x, poly.p_const(q, 0), P, 0)
    den = sum(c * q ** e for e, c in enumerate(motive._den_poly(x.den)))
    return Fraction(num.get((), 0), den)


def seeded_classes(seed):
    """Classes with 10-40 monomials (all 7 at genus 0), exponents up to 6 on
    every atom, genus 0-5, half of them over L^b (L^a1 - 1)(L^a2 - 1).

    Besides L, each monomial carries at most two atoms and a total exponent
    of at most 6 on them, which keeps the reference evaluation cheap.
    """
    rng = random.Random(seed)
    for i in range(24):
        g = i % 6
        nv = num_vars(g)
        num = {}
        size = min(rng.randint(10, 40), 7 ** nv)
        while len(num) < size:
            m = [rng.randint(0, 6)] + [0] * (nv - 1)
            budget = 6
            for idx in rng.sample(range(1, nv), min(rng.randint(0, 2), nv - 1)):
                m[idx] = rng.randint(1, budget)
                budget -= m[idx]
                if not budget:
                    break
            num[tuple(m)] = rng.choice([-3, -2, -1, 1, 2, 5])
        den = poly.U_ONE
        if i % 12 >= 6:
            den = (0,) * rng.randint(0, 2) + den
            for _ in range(rng.randint(1, 2)):
                den = poly.u_mul(den, poly.u_lpower_minus_one(rng.randint(1, 4)))
        yield MotiveClass(g, num, poly.u_factor_cyclotomic(den)[1:])


def packing_edge_classes(seed):
    """Classes at the edges of specialize_E's Kronecker packing, each at
    genus 0 (L only), 1 and 3: the zero class; c * L^3 for c = +-127, which
    fills an 8-bit digit, and c = +-128, which needs a wider one; Pic, whose
    E-polynomial (1 - u)^g (1 - v)^g has a negative digit right below a
    positive one (a borrow); and seeded classes whose coefficients reach
    2^64 and more of both signs, half of them over (L - 1)^2 or L (L^2 - 1).
    """
    rng = random.Random(seed)
    for g in (0, 1, 3):
        R = ring(g)
        yield R.zero
        for c in (127, -127, 128, -128):
            yield c * R.L ** 3
        yield R.Pic
        yield -R.Pic ** 2
        for i in range(4):
            num = {}
            for _ in range(rng.randint(2, 8)):
                m = [rng.randint(0, 4)] + [rng.randint(0, 2) for _ in range(num_vars(g) - 1)]
                num[tuple(m)] = rng.choice([-1, 1]) * rng.randint(2 ** 64, 2 ** 70)
            den = [motive.DEN_ONE, (0, ((1, 2),)), motive.DEN_ONE, (1, ((1, 1), (2, 1)))][i]
            yield MotiveClass(g, num, den)


def moduli_classes():
    """The (g,0,2) moduli classes at degree 1 for g = 0..10."""
    for g in range(11):
        curve = CurveData(g, 0)
        problem = HiggsProblem(curve, 2, 1, WeightDatum.empty(0))
        yield higgs_computation(problem).total


def assert_specializations_match_reference(classes):
    epolys = []
    for x in classes:
        curve = split_curve(x.genus, 2, 3)
        e, want = specialize_E(x), reference_E(x)
        assert e == want, x
        assert str(e) == str(want)
        assert specialize_count(x, curve, 6) == reference_count(x, curve, 6), x
        epolys.append(e)
    return epolys


def test_horner_realize_matches_term_by_term_on_seeded_classes():
    classes = list(seeded_classes(10))
    assert {x.genus for x in classes} == set(range(6))
    assert all(10 <= len(x.num) <= 40 or x.genus == 0 for x in classes)
    epolys = assert_specializations_match_reference(classes)
    # polynomial classes and flagged rational E-polynomials both occur
    assert any(x.is_polynomial() for x in classes)
    assert any(not e.is_polynomial for e in epolys)


def test_horner_realize_matches_term_by_term_at_the_packing_edges():
    classes = list(packing_edge_classes(10))
    epolys = assert_specializations_match_reference(classes)
    coeffs = [c for e in epolys for c in e.num.values()]
    # every edge is reached: a zero E-polynomial, a one-byte digit that is
    # full and one that overflows, coefficients of 2^64 and more of both
    # signs, and a negative digit right below a positive one
    assert any(not e.num for e in epolys)
    assert motive._packing(ring(0).L ** 3 * 127) == (1, 4, 0, 1)
    assert motive._packing(ring(0).L ** 3 * 128) == (2, 4, 0, 1)
    assert max(coeffs) >= 2 ** 64 and min(coeffs) <= -(2 ** 64)
    assert any(c < 0 and e.num.get((i, j + 1), 0) > 0
               for e in epolys for (i, j), c in e.num.items())
    assert any(not e.is_polynomial for e in epolys)


def test_horner_realize_matches_term_by_term_on_moduli_classes():
    assert_specializations_match_reference(moduli_classes())


@pytest.mark.parametrize("q", [1, 2, 2 ** 7, 2 ** 200, 3], ids=["1", "2", "2^7", "2^200", "3"])
def test_realize_matches_term_by_term_at_each_kind_of_q(q):
    """_realize shifts for q = 1, 2 and 2^k and multiplies for q = 3; both
    give the term-by-term image on the seeded classes, with integer zeta
    numerators of both signs."""
    rng = random.Random(q)
    for x in seeded_classes(q):
        P = [1] + [rng.randint(-9, 9) for _ in range(2 * x.genus)]
        want = term_by_term_realize(
            x, poly.p_const(q, 0), [poly.p_const(a, 0) for a in P], 0
        ).get((), 0)
        assert motive._realize(x, q, P) == want, x


def band_classes(seed):
    """Classes at genus 0-6 whose monomials carry L up to 4 and up to three
    other atoms, Pic and each C_i up to 3, with one in three over L^b times
    one or two (L^a - 1)."""
    rng = random.Random(seed)
    for i in range(21):
        g = i % 7
        nv = num_vars(g)
        num = {}
        for _ in range(rng.randint(3, 8)):
            m = [rng.randint(0, 4)] + [0] * (nv - 1)
            for idx in rng.sample(range(1, nv), min(rng.randint(1, 3), nv - 1)):
                m[idx] = rng.randint(1, 3)
            num[tuple(m)] = rng.choice([-4, -1, 1, 3])
        den = poly.U_ONE
        if i % 3 == 2:
            den = (0,) * rng.randint(0, 1) + den
            for _ in range(rng.randint(1, 2)):
                den = poly.u_mul(den, poly.u_lpower_minus_one(rng.randint(1, 3)))
        yield MotiveClass(g, num, poly.u_factor_cyclotomic(den)[1:])


def assert_in_band(x):
    """specialize_E(x) equals reference_E(x), and every term u^a v^b of the
    reference numerator has |a - b| <= K; returns _packing(x) and that
    numerator."""
    w, S, K, W = packing = motive._packing(x)
    e, want = specialize_E(x), reference_E(x)
    assert e == want, x
    assert str(e) == str(want)
    num = reference_numerator(x)
    assert all(abs(a - b) <= K for (a, b), c in num.items() if c), x
    return packing, num


def test_band_packing_on_seeded_classes():
    """The band |a - b| <= K of _packing holds every term of E(x) on classes
    with Pic and C_i powers up to 3, over denominators or not, and
    specialize_E reads each of them back."""
    classes = list(band_classes(30))
    assert {x.genus for x in classes} == set(range(7))
    assert any(not x.is_polynomial() for x in classes)
    assert any(max(m[1:], default=0) == 3 for x in classes for m in x.num)
    regimes = set()
    for x in classes:
        (w, S, K, W), _ = assert_in_band(x)
        regimes.add("band" if W == 2 * K < S else "square" if W == S else "K = 0")
    assert {"band", "square"} <= regimes


@pytest.mark.parametrize("g, k", [(1, 1), (1, 2), (2, 3), (3, 1), (4, 3), (6, 2)])
def test_band_is_reached_by_powers_of_pic(g, k):
    """Pic^k's E-polynomial ((1-u)(1-v))^(gk) has u^(gk) and v^(gk), so the
    band cannot be narrower than K = gk."""
    (w, S, K, W), num = assert_in_band(ring(g).Pic ** k)
    assert K == g * k
    assert max(abs(a - b) for a, b in num) == K
    assert num[K, 0] == num[0, K] == (-1) ** K


def test_band_stride_regimes():
    """W = 2K < S on the (g,0,2) moduli classes from genus 2 up, W = S where
    2K >= S (Pic^2 at genus 1), and W = 1 at K = 0: a genus-0 class and an
    L-only polynomial at genus 3."""
    for x in list(moduli_classes())[2:]:
        w, S, K, W = motive._packing(x)
        assert W == 2 * K < S, (x.genus, S, K)
    (w, S, K, W), _ = assert_in_band(ring(1).Pic ** 2)
    assert (S, K, W) == (3, 2, 3)
    R0, R3 = ring(0), ring(3)
    for x in (3 * R0.L ** 4 - R0.L + 7, (R0.L ** 2 - 5) / (R0.L - 1) ** 2,
              R3.L ** 3 - 2 * R3.L, R3.one, R3.zero):
        (w, S, K, W), num = assert_in_band(x)
        assert K == 0 and W == 1, x
        assert all(a == b for a, b in num)
    assert specialize_E(R3.L ** 3 - 2 * R3.L) == motive.EPoly({(3, 3): 1, (1, 1): -2})


def test_widest_benchmark_packing_is_pinned():
    """(10,0,2) at degree 1 is the widest packing the benchmark reaches:
    48-bit digits, degree bound 75 and band |a - b| <= 20 at stride 40, so
    the packed integer has 3,035 digits, far above the 640 decimal digits
    allowed here.  Its E-polynomial string is
    the one recorded before the packing, and no packed integer goes through
    a decimal string."""
    x = list(moduli_classes())[10]
    assert motive._packing(x) == (6, 75, 20, 40)
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # Python 3.10 has no limit on int <-> str conversion
        text = str(specialize_E(x))
    else:
        old = limit()
        sys.set_int_max_str_digits(640)
        try:
            text = str(specialize_E(x))
        finally:
            sys.set_int_max_str_digits(old)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3ec8dff7937c47e1312b8bd164b46332425301f425ea49210c6c3005cd365115"
    )


# ---------------------------------------------------------------------------
# text form


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parser_round_trip(data):
    for g in (0, 1, 3):
        x = data.draw(motive_elements(g))
        s = str(x)
        assert parse_class(s, g) == x
        assert str(parse_class(s, g)) == s


@pytest.mark.parametrize("seed", range(4))
def test_printed_divisors_parse_back(seed):
    """Every denominator the printer writes, (L^a - 1) bundles and leftover
    Phi_e alike, parses back to the same class through the certificate."""
    rnd = random.Random(seed)
    for g in (0, 2):
        R = ring(g)
        for _ in range(25):
            factors = {}
            for e in rnd.sample(range(1, 25), rnd.randint(1, 4)):
                factors[e] = rnd.randint(1, 2)
            den = (rnd.randint(0, 2), tuple(sorted(factors.items())))
            exps = [(rnd.randint(0, 4), rnd.randint(0, 2))[:R.nvars] for _ in range(3)]
            num = R.sum(R.monomial(rnd.randint(-3, 3), m) for m in exps).num
            x = MotiveClass(g, num, den)
            assert parse_class(str(x), g) == x, x


def test_parser_accepts_rewritten_atoms():
    # indices above g-1 are accepted on input and rewritten
    R = ring(2)
    assert parse_class("C2", 2) == R.Pic + R.L
    assert parse_class("(Pic) / ((L - 1))", 2) == R.Pic / (R.L - 1)


def test_factored_denominator_text():
    R = ring(0)
    L, one = R.L, R.one
    assert str(one / ((L ** 2 - 1) * (L - 1) ** 2)) == "(1) / ((L^2 - 1) * (L - 1)^2)"
    assert str(one / (L ** 2 + L + 1)) == "(1) / ((L^2 + L + 1))"
    assert str(R.L_pow(-3) / (L ** 3 - 1) ** 2) == "(1) / (L^3 * (L^3 - 1)^2)"
    assert str((L ** 6 - 1) / ((L ** 2 - 1) * (L - 1))) == "(L^4 + L^2 + 1) / ((L - 1))"
    assert str(1 / gl_class(3, 2)) == "(1) / (L^3 * (L^3 - 1) * (L^2 - 1) * (L - 1))"
    text = str(bundle_stack_class(3, 0, CurveData(2)))
    assert text.endswith(") / ((L^3 - 1) * (L^2 - 1)^2 * (L - 1)^2)")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "748fa992e35f3909"


@pytest.mark.parametrize("text", [
    "L^99999999999", "L^-99999999999", "C99999999999",
    "(L + Pic + C1)^100", "(L + Pic + C1)^1000", "(L^-1000)^1000",
])
def test_parser_rejects_huge_exponents_fast(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the bound"):
        parse_class(text, 2)
    assert time.perf_counter() - start < 1.0


def test_parser_accepts_exponents_at_the_bound():
    R = ring(2)
    assert parse_class("L^1000", 2) == R.L_pow(1000)
    assert parse_class("L^-1000", 2) == R.L_pow(-1000)


@pytest.mark.parametrize("text", ["1 / (L^999 + 2)", "1 / (L^200 + 2)"])
def test_parser_rejects_non_palindromic_divisors_fast(text):
    """Once L^b and the sign are removed, a monic divisor with a root off the
    unit circle is rejected by the root-squaring certificate, without any
    trial division."""
    start = time.perf_counter()
    with pytest.raises(DivisionOutsideRing):
        parse_class(text, 2)
    assert time.perf_counter() - start < 1.0


def test_cyclotomic_factoring_keeps_palindromic_products():
    assert poly.u_factor_cyclotomic((0, -1, 0, 1)) == (1, 1, ((1, 1), (2, 1)))
    assert poly.u_factor_cyclotomic((-1, 0, 0, -1)) == (-1, 0, ((2, 1), (6, 1)))
    assert poly.u_factor_cyclotomic((2, 0, 1)) is None
    assert poly.u_factor_cyclotomic((1, 0, 2)) is None
    assert poly.u_factor_cyclotomic((1, 3, 1)) is None


@pytest.mark.parametrize("text", ["1 / (L^200 + 3*L^100 + 1)", "1 / (L^500 + 3*L^250 + 1)"])
def test_parser_rejects_palindromic_non_cyclotomic_divisors_fast(text):
    """A monic palindromic divisor that is no cyclotomic product is decided
    by the root-squaring certificate before any division."""
    times = []
    for _ in range(3):
        poly.u_factor_cyclotomic.cache_clear()
        start = time.perf_counter()
        with pytest.raises(DivisionOutsideRing):
            parse_class(text, 2)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01


def test_cyclotomic_factoring_rejects_lehmers_polynomial():
    """Lehmer's polynomial is monic and palindromic, and its one root off the
    unit circle has modulus 1.176..., the smallest Mahler measure known."""
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert poly.u_factor_cyclotomic(lehmer) is None
    assert poly.u_factor_cyclotomic(poly.u_mul(lehmer, poly.cyclotomic(12))) is None


def scan_factor_cyclotomic(u):
    """The trial-division scan the certificate replaced: a monic
    +-palindromic u is divided by Phi_e for every e <= 2 d^2 + 2 whose
    phi(e) fits, and is a product of them when nothing is left."""
    u = poly.u_trim(u)
    if not u:
        return None
    b = next(i for i, c in enumerate(u) if c)
    u = u[b:]
    sign = 1 if u[-1] > 0 else -1
    if sign < 0:
        u = tuple(-c for c in u)
    if u[-1] != 1 or u[::-1] not in (u, tuple(-c for c in u)):
        return None
    factors = {}
    d0 = poly.u_deg(u)
    for e in range(1, 2 * d0 * d0 + 3):
        while len(u) > 1 and poly.euler_phi(e) <= poly.u_deg(u):
            q = poly.u_div_exact(u, poly.cyclotomic(e))
            if q is None:
                break
            u = q
            factors[e] = factors.get(e, 0) + 1
    if u != (1,):
        return None
    return sign, b, tuple(factors.items())


@pytest.mark.parametrize("seed", range(3))
def test_cyclotomic_factoring_matches_the_trial_division_scan(seed):
    """Seeded cyclotomic products, their +-palindromic perturbations and
    random monic polynomials factor as the trial-division scan factors them."""
    rnd = random.Random(seed)
    small = [e for e in range(1, 31) if poly.euler_phi(e) <= 8]
    cyclotomic_products = 0
    for _ in range(150):
        u = (1,)
        for e in rnd.sample(small, rnd.randint(0, 4)):
            u = poly.u_mul(u, poly.cyclotomic(e))
        d = poly.u_deg(u)
        kind = rnd.randrange(3)
        if kind == 1 and d >= 3:
            # move a coefficient pair i, d - i alike, or oppositely when u is
            # antipalindromic, so the +-palindrome stays
            anti = u[::-1] != u
            i = rnd.choice([i for i in range(1, d) if 2 * i != d])
            c = rnd.choice((-2, -1, 1, 2))
            u = list(u)
            u[i] += c
            u[d - i] += -c if anti else c
            u = tuple(u)
        elif kind == 2:
            u = tuple(rnd.randint(-3, 3) for _ in range(rnd.randint(1, 9))) + (1,)
        sign = rnd.choice((1, -1))
        u = (0,) * rnd.randint(0, 2) + tuple(sign * c for c in u)
        want = scan_factor_cyclotomic(u)
        cyclotomic_products += want is not None
        assert poly.u_factor_cyclotomic(u) == want
    assert 30 < cyclotomic_products < 150


def test_parser_rejects_products_above_the_bound_fast():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="product of degree 1998 exceeds the bound"):
        parse_class("(L - 1)^999 * (L - 1)^999", 2)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValueError, match="product of degree 1001 exceeds the bound"):
        parse_class("L^1000 * (L - 1)", 2)


def test_parser_bounds_the_expansions_of_a_sum():
    """A sum of large powers is charged against one budget per parse: eight
    addends of degree 999 fail before the second is expanded."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="expansions of total degree 1998 exceed the bound"):
        parse_class(" + ".join(["(L - 1)^999"] * 8), 2)
    assert time.perf_counter() - start < 1.5
    # within one term too, once the budget is spent
    text = " * ".join(["(L - 1)^400 / (L - 1)^400"] * 4)
    with pytest.raises(ValueError, match="exceed the bound 1000"):
        parse_class(text, 2)
    R = ring(2)
    assert parse_class("(L - 1)^500 + (L + 1)^500", 2) == (R.L - 1) ** 500 + (R.L + 1) ** 500


def test_parser_accepts_products_at_the_bound():
    R = ring(2)
    assert parse_class("(L - 1)^600 * L^400", 2) == (R.L - 1) ** 600 * R.L_pow(400)


@pytest.mark.parametrize("text", [
    "(" * 300 + "L" + ")" * 300, "-" * 3000 + "L", "(" * 100 + "L" + ")" * 100,
    "-" * 100 + "L", "(-" * 60 + "L" + ")" * 60,
], ids=["parens-300", "minus-3000", "parens-100", "minus-100", "both-60"])
def test_parser_rejects_deep_nesting(text):
    """Nesting in parentheses and leading minus signs is bounded well below
    the recursion limit, so deep text is a ValueError, not a RecursionError."""
    with pytest.raises(ValueError, match="nested deeper than 100"):
        parse_class(text, 2)


def test_parser_accepts_nesting_at_the_bound():
    R = ring(2)
    assert parse_class("(" * 99 + "L" + ")" * 99, 2) == R.L
    assert parse_class("-" * 99 + "L", 2) == -R.L
    assert parse_class("-" * 98 + "L", 2) == R.L
    # the bound is on the depth, not on the nesting summed over the text
    text = "(" * 99 + "L" + ")" * 99 + " * " + "-" * 99 + "Pic"
    assert parse_class(text, 2) == -R.L * R.Pic


def _random_expression(rng, g, depth=0):
    """A random text over the parser's grammar at genus g: integers (0
    included), L, Pic, C0 to C(g+2), powers (negative ones too), nested
    parentheses, chained * and /, and divisions by (L^a - 1) and by
    non-units."""
    def factor():
        kind = rng.random()
        if kind < 0.15 and depth < 3:
            text = f"({_random_expression(rng, g, depth + 1)})"
        elif kind < 0.25:
            text = f"(L^{rng.randint(1, 4)} - 1)"
        elif kind < 0.35:
            text = str(rng.randint(0, 5))
        else:
            text = rng.choice(["L", "L", "Pic", f"C{rng.randint(0, g + 2)}"])
        if rng.random() < 0.35:
            # a negative power of anything but L or (L^a - 1) mostly fails
            unit = text == "L" or text.startswith("(L^")
            e = rng.randint(0, 4)
            text += f"^{-e if rng.random() < (0.4 if unit else 0.05) else e}"
        return ("-" if rng.random() < 0.1 else "") + text

    def divisor():
        if rng.random() < 0.3:
            return factor()  # most often a non-unit
        return rng.choice(["L", f"L^{rng.randint(-2, 3)}", f"(L^{rng.randint(1, 4)} - 1)",
                           f"(L - 1)^{rng.randint(1, 2)}", "-1"])

    def term():
        text = factor()
        for _ in range(rng.randint(0, 3)):
            text += " * " + factor() if rng.random() < 0.7 else " / " + divisor()
        return text

    text = term()
    for _ in range(rng.randint(0, 3 - depth)):
        text += rng.choice([" + ", " - "]) + term()
    return text


def _parse_outcome(parse, text, g):
    """The class text, or the class of the exception raised."""
    try:
        return str(parse(text, g))
    except Exception as exc:  # the class is what is compared
        return type(exc)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_parser_matches_reference(g):
    """Monomial reading gives the class the one-operation-at-a-time parser
    gives, and fails with the same exception class where that one fails."""
    rng = random.Random(f"parser/{g}")
    texts = [_random_expression(rng, g) for _ in range(400)] + [
        "C1 / C4 / C2", "L^4 * L^-1", "L^-2 * L^2 * Pic", "-L^-2 * -3",
        "Pic^-1", "C1^-1", "0^-1", "2^-1", "1^-1", "0^0", "L^-0", "L / 0",
        "L / Pic", "3 * L / (L^2 - 1) * (L + 1)", "(L - 1)^-2 * L^3 - L",
    ]
    failures = 0
    for text in texts:
        want = _parse_outcome(parser_reference.parse_class, text, g)
        assert _parse_outcome(parse_class, text, g) == want, text
        failures += not isinstance(want, str)
    # the sample exercises both outcomes
    assert 0 < failures < len(texts) // 2


def test_dimension_weighting():
    R = ring(2)
    assert (R.L_pow(2) * R.Pic).dimension() == 4
    assert (R.Pic / (R.L - 1)).dimension() == 1
    assert R.C(1).dimension() == 1
