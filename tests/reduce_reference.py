"""The fraction reduction as it was before Phi_1 = L - 1 and Phi_2 = L + 1
were tested by evaluation at L = 1 and L = -1: every factor of the
denominator is tried by long division of every L-coefficient polynomial of
the numerator.  It is the independent reference for motive._reduce, which
must return the same numerator and factored denominator on every input.
"""

from parahiggs import poly
from parahiggs.motive import DEN_ONE
from parahiggs.poly import u_div_exact


def _reduce(num, den):
    if den == DEN_ONE:
        return num, den
    if not num:
        return {}, DEN_ONE
    # Cancel L, then each Phi_e, while it divides den and every L-coefficient
    # polynomial of num.  The factors are distinct irreducibles, so this
    # divides out exactly the gcd of den with those polynomials.
    b, factors = den
    groups = {}
    for m, c in num.items():
        groups.setdefault(m[1:], {})[m[0]] = c
    shift = min(b, min(min(terms) for terms in groups.values()))
    coeffs = {}
    for tail, terms in groups.items():
        coeff = [0] * (max(terms) + 1 - shift)
        for e, c in terms.items():
            coeff[e - shift] = c
        coeffs[tail] = coeff
    kept = []
    for e, mult in factors:
        phi = poly.cyclotomic(e)
        while mult:
            quots = {}
            for tail, coeff in coeffs.items():
                q = u_div_exact(coeff, phi)
                if q is None:
                    break
                quots[tail] = q
            else:
                coeffs = quots
                mult -= 1
                continue
            break
        if mult:
            kept.append((e, mult))
    kept = tuple(kept)
    if not shift and kept == factors:
        return num, den
    num = {(i,) + tail: c for tail, coeff in coeffs.items()
           for i, c in enumerate(coeff) if c}
    return num, (b - shift, kept)
