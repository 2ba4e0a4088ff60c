"""Numerators as monomial dicts, the test-side reference format.

A monomial dict maps exponent tuples (L, Pic, C1 .. C_{g-1}) to nonzero int
coefficients.  The library keeps a numerator as {tail: (c_0, c_1, ...)}
instead, the ascending L-coefficients of each monomial in the other atoms;
to_dict and from_dict map between the two, and the p_* helpers are dict
arithmetic written one monomial at a time, independent of the library's.
"""

from operator import add


def to_dict(num):
    """A library numerator as a monomial dict."""
    return {(i,) + tail: c for tail, coeffs in num.items() for i, c in enumerate(coeffs) if c}


def from_dict(monomials):
    """A monomial dict as a library numerator: per tail, its L-coefficients
    up to the top nonzero one; a tail with only zero coefficients is left
    out."""
    coeffs = {}
    for m, c in monomials.items():
        if c:
            row = coeffs.setdefault(m[1:], [])
            row += [0] * (m[0] + 1 - len(row))
            row[m[0]] = c
    return {tail: tuple(row) for tail, row in coeffs.items()}


def p_const(c, nvars):
    return {(0,) * nvars: c} if c else {}


def l_poly(coeffs, nvars):
    """The L-polynomial with these ascending coefficients as a monomial dict."""
    return {(i,) + (0,) * (nvars - 1): c for i, c in enumerate(coeffs) if c}


def p_add(a, b):
    """Sum of two monomial dicts, zero coefficients dropped."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if not out[m]:
            del out[m]
    return out


def p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def p_pow(a, n, nvars):
    """a^n as n products, one factor at a time."""
    out = p_const(1, nvars)
    for _ in range(n):
        out = p_mul(out, a)
    return out
