"""Univariate polynomial arithmetic in L used by the motive ring.

A polynomial is a tuple of ints, its coefficients in ascending degree, with
no trailing zero; () is zero.  The motive ring keeps each numerator as one
such tuple per monomial in the other atoms, and every denominator factored,
as L^b * prod Phi_e^{m_e} of L and cyclotomic factors; a tuple is its
expansion or a divisor that u_factor_cyclotomic factors, and numerators are
divided in integers, one factor at a time.  Everything is exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd as igcd
from operator import add


def u_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


U_ONE = (1,)


def u_deg(u):
    return len(u) - 1


def u_add(a, b):
    """a + b; the longer tuple's top coefficient survives the sum."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) > len(b):
        return tuple(map(add, a, b)) + a[len(b):]
    return u_trim(map(add, a, b))


def u_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    # trimmed nonzero factors have a trimmed product
    return tuple(out) if out and out[-1] else u_trim(out)


def u_content(a):
    g = 0
    for c in a:
        g = igcd(g, abs(c))
    return g


def u_primitive(a):
    g = u_content(a)
    if g in (0, 1):
        return a
    return tuple(c // g for c in a)


def u_divmod_frac(a, b):
    """Division with remainder over Q; returns (quot, rem) as Fraction tuples."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coeff = a[i + len(b) - 1] / lead
        if coeff:
            q[i] = coeff
            for j, bc in enumerate(b):
                a[i + j] -= coeff * bc
    while a and a[-1] == 0:
        a.pop()
    return tuple(q), tuple(a)


def u_div_exact(a, b):
    """Exact division over Z; returns None when b does not divide a."""
    if not a:
        return ()
    if not b:
        raise ZeroDivisionError
    lead = b[-1]
    a = list(a)
    nb = len(b)
    q = [0] * max(len(a) - nb + 1, 0)
    for i in range(len(a) - nb, -1, -1):
        c, r = divmod(a[i + nb - 1], lead)
        if r:
            return None
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    if any(a):
        return None
    return u_trim(q)


def u_gcd(a, b):
    """Primitive gcd over Z with positive leading coefficient."""
    a, b = u_trim(a), u_trim(b)
    if not a:
        g = u_primitive(b)
    elif not b:
        g = u_primitive(a)
    else:
        fa = tuple(Fraction(c) for c in a)
        fb = tuple(Fraction(c) for c in b)
        while fb:
            _, r = u_divmod_frac(fa, fb)
            fa, fb = fb, u_trim(r)
        den_lcm = 1
        for c in fa:
            den_lcm = den_lcm * c.denominator // igcd(den_lcm, c.denominator)
        g = u_primitive(tuple(int(c * den_lcm) for c in fa))
    if g and g[-1] < 0:
        g = tuple(-c for c in g)
    return g


def u_lpower_minus_one(a):
    """L^a - 1 as a univariate tuple."""
    c = [0] * (a + 1)
    c[0] = -1
    c[a] = 1
    return tuple(c)


@lru_cache(maxsize=None)
def cyclotomic(e):
    """e-th cyclotomic polynomial over Z."""
    num = u_lpower_minus_one(e)
    for d in range(1, e):
        if e % d == 0:
            num = u_div_exact(num, cyclotomic(d))
    return num


def euler_phi(e):
    result = e
    m = e
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def u_factor_cyclotomic(u):
    """Factor u as sign * L^b * prod Phi_e^{m_e}; None if not of that shape.

    Returns (sign, b, ((e, m_e), ...)) with e ascending; the result is cached
    and immutable.  Every product of Phi_e is monic, and once L^b and the
    sign are removed a monic u is decided by _only_roots_of_unity before any
    division.  Cyclotomic indices can exceed the degree
    (deg Phi_e = phi(e)), so the division runs while phi(e) fits the
    remaining degree.
    """
    u = u_trim(u)
    if not u:
        return None
    b = next(i for i, c in enumerate(u) if c)
    u = u[b:]
    sign = 1 if u[-1] > 0 else -1
    if sign < 0:
        u = tuple(-c for c in u)
    if u[-1] != 1 or not _only_roots_of_unity(u):
        return None
    factors = {}
    e = 1
    while len(u) > 1:
        if euler_phi(e) <= u_deg(u):
            phi = cyclotomic(e)
            q = u_div_exact(u, phi)
            while q is not None:
                u, q = q, u_div_exact(q, phi)
                factors[e] = factors.get(e, 0) + 1
        e += 1
    return sign, b, tuple(factors.items())


def _only_roots_of_unity(u):
    """Whether every root of u, monic with u(0) != 0, is a root of unity.

    A Graeffe step v(L^2) = (-1)^d u(L) u(-L) squares the roots.  One that
    returns its input leaves no root off the unit circle (none outside, so
    none inside as |u(0)| >= 1), so u is a product of Phi_e (Kronecker), and
    those reach it once every root has odd order.  A root outside makes some
    coefficient exceed comb(d, d // 2), the bound for roots in the unit disc,
    after enough steps (Bradford-Davenport, ISSAC 1988).
    """
    d = u_deg(u)
    bound = comb(d, d // 2)
    while all(abs(c) <= bound for c in u):
        w = u_mul(u, tuple(-c if i % 2 else c for i, c in enumerate(u)))
        v = w[::2] if d % 2 == 0 else tuple(-c for c in w[::2])
        if v == u:
            return True
        u = v
    return False


def bundle_cyclotomic(factors):
    """Regroup a Phi multiset into (L^a - 1) bundles, greedily from the top.

    Returns (bundles, leftover) where bundles maps a -> multiplicity and
    leftover holds Phi factors that complete no bundle.
    """
    pool = dict(factors)
    bundles = {}
    while pool:
        a = max(e for e, m in pool.items() if m > 0)
        divisors = [e for e in range(1, a + 1) if a % e == 0]
        if all(pool.get(e, 0) >= 1 for e in divisors):
            for e in divisors:
                pool[e] -= 1
                if pool[e] == 0:
                    del pool[e]
            bundles[a] = bundles.get(a, 0) + 1
        else:
            break
    return bundles, pool
