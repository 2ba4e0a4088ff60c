"""Independent validators: brute-force and closed-form reference values.

Nothing here imports the stack-class or chain-engine formula code; each oracle
recomputes its target along a different arithmetic path so the test suite can
compare engine output against it.  They ship in the library so the CLI can
expose verification runs.
"""

from __future__ import annotations

from fractions import Fraction

from .motive import ring
from .parabolic import frac


def gaussian_binomial(n, k, q):
    """q-binomial coefficient as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q ** i - 1
    assert num % den == 0
    return num // den


def gaussian_flag_count(n, r_vec, q):
    """Number of flags of the given type over a field with q elements."""
    r_vec = tuple(r_vec)
    assert sum(r_vec) == n
    total = 1
    remaining = n
    for r in r_vec:
        total *= gaussian_binomial(remaining, r, q)
        remaining -= r
    return total


def rank1_higgs_oracle(g, k=0, d=0):
    """Closed form for rank one: torsion-free residues force the extra field
    to be a plain differential, so the space is Pic x H^0(Omega)."""
    R = ring(g)
    return R.Pic * R.L_pow(g)


def rank11_chain_oracle(g, k, d0, d1, weights0, weights1, alpha):
    """Direct classification of rank-(1,1) chains of line bundles.

    A chain is (M0, M1, phi) with phi a strongly parabolic map M1 -> M0(D);
    at points where the upper weight is >= the lower one the map must vanish.
    Nonzero chains are determined by the divisor of phi, a zero map is never
    semistable for generic weights, and the only binding slope condition is
    that the low-index truncation not destabilize.
    """
    R = ring(g)
    w0 = [frac(w) for w in weights0]
    w1 = [frac(w) for w in weights1]
    if len(w0) != k or len(w1) != k:
        raise ValueError("need one weight per marked point and bundle")
    a0, a1 = (frac(a) for a in alpha)
    p0 = Fraction(d0) + sum(w0, Fraction(0))
    p1 = Fraction(d1) + sum(w1, Fraction(0))
    if p0 - p1 == a1 - a0:
        raise ValueError("parameter sits on the rank-(1,1) wall")
    if p0 - p1 > a1 - a0:
        return R.zero
    forced = sum(1 for x, y in zip(w1, w0) if x >= y)
    ell = d0 - d1 + k - forced
    if ell < 0:
        return R.zero
    return R.Pic / (R.L - R.one) * R.C(ell)


def rank111_chain_oracle(g, k, degrees, weights, alpha):
    """Direct classification of rank-(1,1,1) chains of line bundles.

    With some map zero the chain splits and needs an exact slope tie, which
    generic weights never provide; with both maps nonzero every sub-chain is
    dominated by one of the two low-index truncations, so the class is the
    line stack times a symmetric power for each modification divisor.
    """
    R = ring(g)
    w = [[frac(x) for x in ws] for ws in weights]
    if any(len(ws) != k for ws in w):
        raise ValueError("need one weight per marked point and bundle")
    a = [frac(x) for x in alpha]
    p = [Fraction(degrees[i]) + sum(w[i], Fraction(0)) for i in range(3)]
    shifted = [p[i] + a[i] for i in range(3)]
    mu = sum(shifted) / 3
    if shifted[0] == mu or (shifted[0] + shifted[1]) / 2 == mu:
        raise ValueError("parameter sits on a rank-(1,1,1) wall")
    if shifted[0] > mu or (shifted[0] + shifted[1]) / 2 > mu:
        return R.zero
    out = R.Pic / (R.L - R.one)
    for i in (1, 2):
        forced = sum(1 for x, y in zip(w[i], w[i - 1]) if x >= y)
        ell = degrees[i - 1] - degrees[i] + k - forced
        if ell < 0:
            return R.zero
        out = out * R.C(ell)
    return out


def bun2_stack_count(g, q, zeta_numerator):
    """Stacky point count of the rank-2 bundle stack, any degree."""
    P = [Fraction(c) for c in zeta_numerator]
    q = Fraction(q)
    pic = sum(P)
    z2 = sum(c * q ** (-2 * i) for i, c in enumerate(P)) / (
        (1 - q ** -2) * (1 - q ** -1)
    )
    return q ** (3 * (g - 1)) * pic / (q - 1) * z2


def bun2_hn_recursion_oracle(g, d, q, zeta_numerator, truncation=20):
    """Semistable rank-2 stacky count via the unstable-strata recursion.

    Unstable strata are indexed by the destabilizing line sub-bundle degree;
    each contributes q^{g-1-delta} (#Pic/(q-1))^2 with delta = 2 d1 - d > 0.
    At even degree the strictly semistable bundles (delta = 0) stay in.
    The tail past the truncation bound is summed in closed form, so the result
    is independent of the bound.
    """
    P = [Fraction(c) for c in zeta_numerator]
    qf = Fraction(q)
    pic = sum(P)
    line = pic / (qf - 1)
    total = bun2_stack_count(g, q, zeta_numerator)
    # delta runs over the positive integers of the parity of d
    head = Fraction(0)
    delta = 2 - d % 2
    terms = 0
    while terms < truncation:
        head += qf ** (g - 1 - delta)
        delta += 2
        terms += 1
    tail = qf ** (g - 1 - delta) / (1 - qf ** -2)
    return total - line ** 2 * (head + tail)


def split_zeta_numerator(g, a, b):
    """Coefficients of (1 - at)^g (1 - bt)^g, a zeta numerator that satisfies
    the functional equation at q = ab: the point count at q = ab with it is
    the E-polynomial at (u, v) = (a, b)."""
    P = [1]
    for root in (a,) * g + (b,) * g:
        P = [x - root * y for x, y in zip(P + [0], [0] + P)]
    return tuple(P)
