"""Exact arithmetic in the completed Grothendieck ring of varieties.

Elements live in the subring generated by L (the affine-line class), Pic
(the Jacobian class), and the symmetric-power classes of the curve, with
denominators restricted to products of (L^a - 1) factors and powers of L.
Such a denominator is L^b * prod Phi_e^{m_e}, Phi_e the e-th cyclotomic
polynomial, and is kept factored as the pair (b, ((e, m_e), ...)), e
ascending and every m_e >= 1, with (0, ()) for 1: sums, products and powers
combine exponents, and _den_poly alone expands a denominator, for the
numerator cofactors of Ring.sum and inverse and for the specializations.
A numerator is a dict {tail: (c_0, c_1, ...)}: the tail holds the exponents
of Pic, C1 .. C_{g-1}, the tuple that tail's ascending L-coefficients with
no trailing zero, and a tail whose coefficients cancel is dropped.
Fractions are kept in a canonical reduced form so equal ring elements compare
equal as Python objects: every MotiveClass is in lowest terms, which
MotiveClass(genus, num, den) establishes and the _reduced=True constructors
keep.  The product relies on it: for a/b and c/d in lowest terms,
gcd(ac, bd) = gcd(a, d) gcd(c, b).

Symmetric powers are not independent: the Abel-Jacobi stratification gives
    [C^(d)] = L^{d-g+1} [C^(2g-2-d)] + Pic * [P^{d-g}]   for d >= g,
so only C1..C_{g-1} are kept as atoms and higher powers are rewritten on
construction.  Without this quotient, equal ring elements reached along
different computation paths would not share a normal form.  At genus 0 the
atom set degenerates to {L} (Pic = 1); at genus 1 it is {L, Pic}.

Both specializations read a class through one ring map on plain integers,
_realize: the point count at its q, the E-polynomial at one Kronecker-packed
integer point from which its coefficients are read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul, neg, sub
from typing import Optional

from .errors import (
    DivisionOutsideRing,
    InconsistentZeta,
    MissingZetaData,
    NonConvergentEvaluation,
)
from . import poly
from .poly import (
    U_ONE,
    bundle_cyclotomic,
    euler_phi,
    u_add,
    u_div_exact,
    u_factor_cyclotomic,
    u_mul,
)

DEN_ONE = (0, ())


def max_atom(genus):
    """Largest independent symmetric-power index: g - 1."""
    return max(genus - 1, 0)


def num_vars(genus):
    """L, then Pic (g >= 1), then C1..C_{g-1} (g >= 2)."""
    if genus == 0:
        return 1
    return 2 + max_atom(genus)


def var_names(genus):
    names = ["L"]
    if genus >= 1:
        names.append("Pic")
    for i in range(1, max_atom(genus) + 1):
        names.append(f"C{i}")
    return names


class MotiveClass:
    """Canonical fraction num/den with num an L-tuple per tail and den a
    factored L^b * prod Phi_e^{m_e}."""

    __slots__ = ("genus", "num", "den")

    def __init__(self, genus, num, den=DEN_ONE, _reduced=False):
        self.genus = genus
        if _reduced:
            self.num = num
            self.den = den
        else:
            self.num, self.den = _reduce(num, den)

    # -- canonical identity --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self.genus == other.genus and self.num == other.num and self.den == other.den

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return self.den == DEN_ONE

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MotiveClass):
            if other.genus != self.genus:
                raise ValueError("mixed-genus arithmetic")
            return other
        if isinstance(other, int):
            return ring(self.genus).monomial(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ring(self.genus).sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        num = {t: tuple(map(neg, u)) for t, u in self.num.items()}
        return MotiveClass(self.genus, num, self.den, _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ring(self.genus).sum((self, -other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, d = _reduce(self.num, other.den)
        c, b = _reduce(other.num, self.den)
        return MotiveClass(self.genus, _mul(a, c), _den_merge(b, d, add), _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        inv = other.inverse()
        return self * inv

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        b, factors = self.den
        den = (n * b, tuple((e, n * m) for e, m in factors) if n else ())
        # L and each Phi_e are prime: a power of a class in lowest terms is one;
        # the numerator is squared once per bit after the leading one
        num = self.num if n else {(0,) * (num_vars(self.genus) - 1): U_ONE}
        for bit in bin(n)[3:]:
            num = _mul(num, num)
            if bit == "1":
                num = _mul(num, self.num)
        return MotiveClass(self.genus, num, den, _reduced=True)

    def inverse(self):
        """Invert; only unit multiples of admissible denominator factors allow it."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero motive class")
        (tail, uni), *rest = self.num.items()
        if rest or any(tail):
            raise DivisionOutsideRing(
                "divisor involves Pic or symmetric-power atoms; quotient leaves the ring"
            )
        fact = u_factor_cyclotomic(uni)
        if fact is None:
            raise DivisionOutsideRing(
                "divisor numerator is not a unit times L-powers and (L^a - 1) factors"
            )
        # self is in lowest terms, so no factor of uni divides self.den
        sign, b, factors = fact
        num = {tail: tuple(sign * c for c in _den_poly(self.den))}
        return MotiveClass(self.genus, num, (b, factors), _reduced=True)

    # -- inspection ----------------------------------------------------------

    def dimension(self):
        """Weighted top degree: L counts 1, Pic counts g, C^(i) counts i."""
        if self.is_zero():
            return None
        return _top_degree(self) - _den_degree(self.den)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return format_class(self)

    def __repr__(self):
        return f"MotiveClass({self})"


def _den_merge(a, b, op):
    """Two factored denominators combined exponent by exponent: op = add
    gives their product, max their lcm, sub the quotient a / b of a multiple
    a of b."""
    if b == DEN_ONE:
        return a
    mults = dict(a[1])
    for e, m in b[1]:
        mults[e] = op(mults.get(e, 0), m)
    return op(a[0], b[0]), tuple(sorted((e, m) for e, m in mults.items() if m))


def _top_degree(x, l_weight=1):
    """Largest weighted degree of a monomial of x.num, 0 for zero: L counts
    l_weight, Pic counts g, C^(i) counts i (at genus 0 the tails are empty)."""
    weights = [x.genus] + list(range(1, max_atom(x.genus) + 1))
    return max((l_weight * (len(u) - 1) + sum(map(mul, weights, t))
                for t, u in x.num.items()), default=0)


def _den_degree(den):
    b, factors = den
    return b + sum(m * euler_phi(e) for e, m in factors)


@lru_cache(maxsize=None)
def _den_poly(den):
    """L^b * prod Phi_e^{m_e} as a univariate tuple."""
    b, factors = den
    out = (0,) * b + U_ONE
    for e, m in factors:
        for _ in range(m):
            out = u_mul(out, poly.cyclotomic(e))
    return out


def _mul(a, b):
    """The product of two numerators: tails add and their tuples convolve,
    and a tail whose tuples cancel is dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for s, u in a.items():
        for t, v in b.items():
            m = tuple(map(add, s, t))
            w = u_mul(u, v)
            if m in out:
                w = u_add(out[m], w)
            if w:
                out[m] = w
            else:
                del out[m]
    return out


def _reduce(num, den):
    if den == DEN_ONE:
        return num, den
    if not num:
        return {}, DEN_ONE
    # Cancel L, then each Phi_e, while it divides den and every L-tuple of
    # num.  The factors are distinct irreducibles, so this divides out exactly
    # the gcd of den with those tuples.  Phi_1 and Phi_2 divide an integer
    # polynomial exactly when it vanishes at L = 1 and L = -1, which is
    # tested first: nothing is sliced or divided when nothing can cancel.
    b, factors = den
    shift = b
    for u in num.values():
        shift = next((i for i, c in enumerate(u[:shift]) if c), shift)
    if not shift and all(
        e <= 2 and any(_at_root(u, e) for u in num.values()) for e, _ in factors
    ):
        return num, den
    coeffs = {t: u[shift:] for t, u in num.items()} if shift else num
    kept = []
    for e, mult in factors:
        phi = poly.cyclotomic(e)
        while mult:
            if e <= 2 and any(_at_root(coeff, e) for coeff in coeffs.values()):
                break
            quots = {}
            for tail, coeff in coeffs.items():
                q = u_div_exact(coeff, phi)
                if q is None:
                    break
                quots[tail] = q
            if len(quots) < len(coeffs):
                break
            coeffs = quots
            mult -= 1
        if mult:
            kept.append((e, mult))
    kept = tuple(kept)
    if not shift and kept == factors:
        return num, den
    return coeffs, (b - shift, kept)


def _at_root(coeff, e):
    """coeff at L = 1 for e = 1, at L = -1 for e = 2: zero exactly when Phi_e
    divides it."""
    return sum(coeff) if e == 1 else sum(coeff[::2]) - sum(coeff[1::2])


# ---------------------------------------------------------------------------
# per-genus atom factory


class Ring:
    """Atom factory for a fixed genus.  The symmetric-power classes C(i)
    are built once per ring and shared, as no class is mutated in place."""

    def __init__(self, genus):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        self.genus = genus
        self.nvars = num_vars(genus)
        self.zero = self.monomial(0)
        self.one = self.monomial(1)
        self._C = {}

    def monomial(self, c, exps=()):
        """c times the atoms L, Pic, C1, ... to the exponents exps (missing
        ones 0), in lowest terms: a negative L exponent moves to the
        denominator, and c = 0 gives the zero class."""
        if not c:
            return MotiveClass(self.genus, {}, DEN_ONE, _reduced=True)
        m = list(exps) + [0] * (self.nvars - len(exps))
        b = max(-m[0], 0)
        num = {tuple(m[1:]): (0,) * (m[0] + b) + (c,)}
        return MotiveClass(self.genus, num, (b, ()), _reduced=True)

    def sum(self, classes):
        """The sum of classes of this genus, the one addition of the ring: over
        the lcm of their denominators, each numerator times its cofactor, and
        reduced once.  Zero terms are skipped, a lone nonzero term is returned
        as it is and an empty sum is zero."""
        terms, den = [], None
        for x in classes:
            if x.genus != self.genus:
                raise ValueError("mixed-genus arithmetic")
            if x.num:
                terms.append(x)
                if den is None:
                    den = x.den
                elif x.den != den:
                    den = _den_merge(den, x.den, max)
        if len(terms) < 2:
            return terms[0] if terms else self.zero
        num = {}
        for x in terms:
            cofactor = None if x.den == den else _den_poly(_den_merge(den, x.den, sub))
            for t, u in x.num.items():
                if cofactor:
                    u = u_mul(u, cofactor)
                if t in num:
                    u = u_add(num[t], u)
                if u:
                    num[t] = u
                else:
                    del num[t]
        return MotiveClass(self.genus, num, den)

    @property
    def L(self):
        return self.monomial(1, (1,))

    def L_pow(self, k):
        return self.monomial(1, (k,))

    @property
    def Pic(self):
        return self.monomial(1, (0, 1)) if self.genus else self.one

    def C(self, i):
        """Symmetric-power class, eagerly rewritten above index g-1.

        For i >= g the class splits along the Abel-Jacobi map as a projective
        bundle piece plus the Serre-dual symmetric power, which keeps every
        representation in the free basis {L, Pic, C1..C_{g-1}}.
        """
        if i == 0:
            return self.one
        if i < 0:
            return self.zero
        if i not in self._C:
            g = self.genus
            if i <= g - 1:
                cls = self.monomial(1, (0,) * (1 + i) + (1,))
            else:
                e = i - g + 1
                # [P^{e-1}] = 1 + L + ... + L^{e-1}
                proj = MotiveClass(g, {(0,) * (self.nvars - 1): (1,) * e}, _reduced=True)
                cls = self.L_pow(e) * self.C(2 * g - 2 - i) + self.Pic * proj
            self._C[i] = cls
        return self._C[i]

    def parse(self, text):
        return parse_class(text, self.genus)


@lru_cache(maxsize=None)
def ring(genus):
    return Ring(genus)


# ---------------------------------------------------------------------------
# curve data and zeta machinery


@dataclass(frozen=True)
class CurveData:
    """Genus, number of marked points, optional zeta numerator coefficients."""

    genus: int
    num_marked: int = 0
    zeta_numerator: Optional[tuple] = None

    def __post_init__(self):
        if self.genus < 0 or self.num_marked < 0:
            raise ValueError("genus and marked-point count must be nonnegative")
        if self.zeta_numerator is not None:
            zn = tuple(self.zeta_numerator)
            object.__setattr__(self, "zeta_numerator", zn)
            if len(zn) != 2 * self.genus + 1:
                raise InconsistentZeta("zeta numerator must have degree exactly 2g")
            if zn[0] != 1:
                raise InconsistentZeta("zeta numerator must have constant term 1")

    def check_functional_equation(self, q):
        if self.zeta_numerator is None:
            raise MissingZetaData("point-count specialization needs a zeta numerator")
        g = self.genus
        a = self.zeta_numerator
        for i in range(0, 2 * g + 1):
            if Fraction(a[2 * g - i]) != Fraction(q) ** (g - i) * a[i]:
                raise InconsistentZeta(
                    f"functional equation fails at q={q}, index {i}"
                )


def _zeta_numerator_classes(curve):
    """Coefficients a_j of P(t) = (1-t)(1-Lt) Z(C,t) as ring elements.

    Only a_0 .. a_g are expanded from the symmetric powers; the rest follow
    from the functional equation a_{2g-j} = L^{g-j} a_j of the motivic zeta
    function."""
    g = curve.genus
    R = ring(g)
    coeffs = [R.C(j) - (R.one + R.L) * R.C(j - 1) + R.L * R.C(j - 2)
              for j in range(g + 1)]
    return coeffs + [R.L_pow(j - g) * coeffs[2 * g - j] for j in range(g + 1, 2 * g + 1)]


def zeta_eval(curve, arg_exponent):
    """Closed form of Z(C, L^e); convergent only for e <= -2.

    The numerator P(L^e) = sum_j a_j L^{je} is L^{2ge} times the polynomial
    sum_j a_j L^{(j-2g)e}, whose L exponents are all nonnegative for e < 0,
    so it is one Ring.sum of the shifted polynomials a_j and one power of L."""
    if arg_exponent >= -1:
        raise NonConvergentEvaluation(
            "Z(C, L^e) is evaluated only for e <= -2 in the completed ring"
        )
    g = curve.genus
    R = ring(g)
    e = arg_exponent
    shifted = R.sum(
        MotiveClass(g, {t: (0,) * ((j - 2 * g) * e) + u for t, u in a.num.items()},
                    _reduced=True)
        for j, a in enumerate(_zeta_numerator_classes(curve))
    )
    p_val = MotiveClass(g, shifted.num, (-2 * g * e, ()))
    den = (R.one - R.L_pow(e)) * (R.one - R.L_pow(e + 1))
    return p_val / den


def sym_cxp_coeff(curve, n, ell):
    """t^ell coefficient of prod_{j<n} Z(C, L^j t): symmetric powers of C x P^{n-1}."""
    if n < 1 or ell < 0:
        raise ValueError("need n >= 1 and ell >= 0")
    return _sym_cxp_coeff(curve.genus, n, ell)


@lru_cache(maxsize=None)
def _sym_cxp_coeff(g, n, ell):
    """sym_cxp_coeff, which depends on the curve only through its genus.

    The series starts as the first factor Z(C, t) = sum_i C^(i) t^i, each
    middle factor Z(C, L^j t) is convolved in up to t^ell, and of the last
    one only the t^ell coefficient of the product is formed."""
    R = ring(g)
    series = [R.C(i) for i in range(ell + 1)]
    for j in range(1, n - 1):
        factor = [R.C(i) * R.L_pow(j * i) for i in range(ell + 1)]
        series = [R.sum(series[a] * factor[k - a] for a in range(k + 1))
                  for k in range(ell + 1)]
    if n == 1:
        return series[ell]
    return R.sum(series[a] * (R.C(ell - a) * R.L_pow((n - 1) * (ell - a)))
                 for a in range(ell + 1))


# ---------------------------------------------------------------------------
# specializations


class EPoly:
    """Bivariate polynomial (or flagged rational function) in (u, v) over Z."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den

    @property
    def is_polynomial(self):
        return self.den is None

    def __eq__(self, other):
        return (
            isinstance(other, EPoly)
            and self.num == other.num
            and self.den == other.den
        )

    def u_degree(self):
        if not self.num:
            return None
        return max(i for i, _ in self.num)

    def __str__(self):
        body = _format_uv(self.num)
        if self.den is None:
            return body
        return f"({body}) / ({_format_uv(self.den)})"


def _format_uv(terms):
    return _format_terms(sorted(terms.items(), reverse=True), ((0, "u"), (1, "v")), "*")


def _realize(x, q, P):
    """Image of x.num under L -> q, Pic -> P(1), C^(i) -> [t^i] P(t)/((1-t)(1-qt)).

    q, the zeta-numerator coefficients P[0..2g] and the result are integers:
    specialize_count passes its own, specialize_E their Kronecker packings.

    The map is evaluated in Horner form over the variables in the order
    Pic, C1 .. C_{g-1}, L.  Pic and the C^(i) have the largest images, so
    they go outermost, where each of their powers multiplies a sum once
    instead of once per monomial.  L goes innermost because its image q is
    small for the point count and a power of two (the packed uv) for the
    E-polynomial, so the many products at that level are cheap.  Every
    power of q, in the C^(i) images, the Horner walk and the final q^k,
    goes through times_q, which shifts when q is a power of two (the packed
    uv, a count at q = 2^k, q = 1 for _packing) and multiplies otherwise.
    """
    if q > 0 and not q & (q - 1):
        shift = q.bit_length() - 1

        def times_q(v, e):
            return v << shift * e
    else:
        def times_q(v, e):
            return v * q ** e

    g = x.genus
    images = [q]
    if g >= 1:
        images.append(sum(P))
    # [t^i] P(t)/((1-t)(1-qt)) = q [t^(i-1)] P(t)/((1-t)(1-qt)) + [t^i] P(t)/(1-t)
    head = sym = P[0]
    for i in range(1, max_atom(g) + 1):
        head += P[i]
        sym = times_q(sym, 1) + head
        images.append(sym)

    if not x.num:
        return 0
    # x.num is L^k times a class with no common L factor; q^k multiplies the
    # finished sum once instead of each tuple before the larger images do
    k = min(next(i for i, c in enumerate(u) if c) for u in x.num.values())
    pow_cache = {}

    def times(idx, v, e):
        # v times images[idx]^e, idx >= 1
        if (idx, e) not in pow_cache:
            pow_cache[idx, e] = images[idx] ** e
        return v * pow_cache[idx, e]

    def horner(items, depth):
        # items: the (tail, tuple) pairs that agree on tail[:depth]; the tail
        # holds the exponents of images[1:], the tuple those of L
        if depth == len(images) - 1:
            ((_, u),) = items
            out, prev = 0, len(u) - 1
            for e in range(prev, k - 1, -1):
                if u[e]:
                    out, prev = times_q(out, prev - e) + u[e], e
            return times_q(out, prev - k)
        groups = {}
        for item in items:
            groups.setdefault(item[0][depth], []).append(item)
        out, prev = 0, 0
        for e in sorted(groups, reverse=True):
            if out:  # 0 before the first group; 0 * image^gap = 0
                out = times(depth + 1, out, prev - e)
            out += horner(groups[e], depth + 1)
            prev = e
        if out and prev:
            out = times(depth + 1, out, prev)
        return out

    return times_q(horner(list(x.num.items()), 0), k)


def _packing(x):
    """Byte width w, degree bound S, band half-width K and stride W of
    specialize_E's packing of x.

    A coefficient of E(x) is at most sum |c_m| prod ||img_i||_1^e_i, which is
    _realize of x with |c_m| for c_m at q = 1 and P_j = ||P_j||_1 = C(2g, j);
    its degree in u and in v is below S, one more than x's weighted top
    degree.  An atom image moves |a - b| of a term u^a v^b by at most the
    atom's weight with L counted 0 (uv by 0, P(1) = (1-u)^g (1-v)^g by g, the
    image of C^(i) by i), so E(x) lies in the band |a - b| <= K, K that
    weighted top degree.  u^a v^b -> aW + b, W = min(S, 2K) and at least 1,
    is one-to-one there: with d = b - a, (W + 1)(a - a') = d' - d and
    |d' - d| <= 2K forces a = a' once W >= 2K, and W = S is one-to-one on
    the whole S x S square.
    """
    g = x.genus
    plus = MotiveClass(g, {t: tuple(map(abs, u)) for t, u in x.num.items()}, _reduced=True)
    bound = _realize(plus, 1, [comb(2 * g, j) for j in range(2 * g + 1)])
    S, K = _top_degree(x) + 1, _top_degree(x, 0)
    # bound < 2^(8w - 1), so every coefficient is a signed 8w-bit digit
    return bound.bit_length() // 8 + 1, S, K, max(min(S, 2 * K), 1)


def specialize_E(x):
    """Hodge specialization: L -> uv and zeta numerator (1-ut)^g (1-vt)^g.

    The numerator is evaluated once, at the Kronecker packing
    u^a v^b -> 2^(B(aW + b)), B = 8w, with (w, S, K, W) from _packing, and
    each coefficient in the band |a - b| <= K is read back, row by row, from
    the bytes of that integer plus 2^(B-1) in every digit, which makes every
    digit nonnegative.
    """
    g = x.genus
    w, S, K, W = _packing(x)
    B = 8 * w
    P = [
        sum(comb(g, a) * comb(g, j - a) * (-1) ** j << B * (a * W + j - a)
            for a in range(max(0, j - g), min(g, j) + 1))
        for j in range(2 * g + 1)
    ]
    packed = _realize(x, 1 << B * (W + 1), P)
    half = 1 << (B - 1)
    zero = half.to_bytes(w, "little")
    # u^(S-1) v^(S-1) is the last digit
    digits = (S - 1) * (W + 1) + 1
    raw = (packed + int.from_bytes(zero * digits, "little")).to_bytes(w * digits, "little")
    num = {}
    for a in range(S):
        lo, hi = max(0, a - K), min(S, a + K + 1)
        row = raw[(a * W + lo) * w : (a * W + hi) * w]
        if row != zero * (hi - lo):
            for b in range(lo, hi):
                chunk = row[(b - lo) * w : (b - lo + 1) * w]
                if chunk != zero:
                    num[a, b] = int.from_bytes(chunk, "little") - half
    if x.is_polynomial():
        return EPoly(num)
    # the denominator is a polynomial in uv, so it divides num iff it divides
    # each diagonal {u^i v^j : i - j = d}, read as a polynomial in uv
    den = _den_poly(x.den)
    diagonals = {}
    for (i, j), c in num.items():  # min(i, j) ascends along each diagonal
        coeffs = diagonals.setdefault(i - j, [])
        coeffs += [0] * (min(i, j) - len(coeffs)) + [c]
    quot = {}
    for d, coeffs in diagonals.items():
        qd = u_div_exact(coeffs, den)
        if qd is None:
            return EPoly(num, {(e, e): c for e, c in enumerate(den) if c})
        for k, c in enumerate(qd):
            if c:
                quot[(k + max(d, 0), k + max(-d, 0))] = c
    return EPoly(quot)


def specialize_count(x, curve, q):
    """Point-count specialization at q; exact rational output."""
    curve.check_functional_equation(q)
    if x.genus != curve.genus:
        raise ValueError("class genus does not match curve")
    num = _realize(x, q, curve.zeta_numerator)
    den = sum(c * q ** e for e, c in enumerate(_den_poly(x.den)))
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at this q")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# canonical text form and parser


def _format_terms(items, fields, sep):
    """Signed sum of (exponents, coefficient) items, in their order: each term
    is its coefficient unless +-1, then name^e for each (index, name) of
    fields with a nonzero exponent e, joined by sep."""
    parts = []
    for m, c in items:
        factors = [] if c in (1, -1) else [str(abs(c))]
        for i, name in fields:
            e = m[i]
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        term = sep.join(factors) or "1"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


def _format_poly(num, genus):
    # exchange format lists L, then symmetric powers, then Pic
    names = var_names(genus)
    order = [0] + list(range(2, len(names))) + ([1] if genus >= 1 else [])
    terms = (((i,) + t, c) for t, u in num.items() for i, c in enumerate(u) if c)
    return _format_terms(sorted(terms, reverse=True), [(i, names[i]) for i in order], " * ")


def _format_den(den):
    b, factors = den
    bundles, leftover = bundle_cyclotomic(factors)
    parts = []
    if b == 1:
        parts.append("L")
    elif b > 1:
        parts.append(f"L^{b}")
    for a in sorted(bundles, reverse=True):
        base = f"(L^{a} - 1)" if a > 1 else "(L - 1)"
        m = bundles[a]
        parts.append(base if m == 1 else f"{base}^{m}")
    for e in sorted(leftover, reverse=True):
        body = _format_poly({(): poly.cyclotomic(e)}, 0)
        m = leftover[e]
        parts.append(f"({body})" if m == 1 else f"({body})^{m}")
    return " * ".join(parts)


def format_class(x):
    num = _format_poly(x.num, x.genus)
    if x.is_polynomial():
        return num
    return f"({num}) / ({_format_den(x.den)})"


PARSE_BOUND = 1000
PARSE_DEPTH = 100


def _parse_degree(x):
    """The larger of the total degrees of x's numerator and denominator."""
    return max(_den_degree(x.den),
               max((len(u) - 1 + sum(t) for t, u in x.num.items()), default=0))


class _Parser:
    """Exponents and C indices above PARSE_BOUND raise ValueError, and so do
    a power whose expansion could have more than PARSE_BOUND terms and a
    power or product whose _parse_degree could exceed PARSE_BOUND, so a
    corrupt record fails fast.  So do factors nested more than PARSE_DEPTH deep
    in parentheses and leading minus signs, each level of which costs up to
    four stack frames, so that deep nesting never reaches the interpreter's
    recursion limit.  Every power and product is also charged its
    _parse_degree against one budget of PARSE_BOUND per parse, and raises
    when the budget is already spent or when its degree does not fit in what
    was left when its term began: a sum of large powers fails before it
    expands the second.

    A bare atom (an integer, L, Pic or C_i with 1 <= i <= g - 1, to a power
    that only L takes negative) is read as a triple (coefficient, index,
    exponent), index None for an integer.  A run of them joined by * in one
    product accumulates into one coefficient and one exponent vector, and
    the terms of a sum are added by one Ring.sum; every other factor goes
    through MotiveClass arithmetic."""

    def __init__(self, text, genus):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.spent = 0  # the budget charged so far
        self.floor = 0  # the part of it charged before the current term
        self.R = ring(genus)

    def error(self, msg):
        raise ValueError(f"parse error at {self.pos}: {msg} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            minus = self.text[self.pos] == "-"
            self.pos += 1
            terms.append(-self.term() if minus else self.term())
        return self.R.sum(terms)

    def term(self):
        floor, self.floor = self.floor, self.spent
        c, exps, node = 1, [0] * self.R.nvars, None
        op = "*"
        while True:
            f = self.factor()
            if op == "*" and type(f) is tuple:
                c *= f[0]
                if f[1] is not None:
                    exps[f[1]] += f[2]
            else:
                if type(f) is tuple:
                    f = self.R.monomial(f[0], () if f[1] is None else (0,) * f[1] + (f[2],))
                if op == "/":
                    f = f.inverse()
                node = f if node is None else self.product(node, f)
            op = self.peek()
            if op not in ("*", "/"):
                break
            self.pos += 1
        if node is None:
            node = self.R.monomial(c, exps)
        elif c != 1 or any(exps):
            node = self.product(node, self.R.monomial(c, exps))
        self.floor = floor
        return node

    def product(self, a, b):
        degree = _parse_degree(a) + _parse_degree(b)
        if degree > PARSE_BOUND:
            self.error(f"a product of degree {degree} exceeds the bound {PARSE_BOUND}")
        self.charge(degree)
        return a * b

    def charge(self, degree):
        """Charge an expansion of this degree to the parse's budget."""
        if self.spent > PARSE_BOUND or self.floor + degree > PARSE_BOUND:
            self.error(f"expansions of total degree {self.spent + degree} exceed "
                       f"the bound {PARSE_BOUND}")
        self.spent += degree

    def factor(self):
        self.depth += 1
        if self.depth > PARSE_DEPTH:
            self.error(f"factors nested deeper than {PARSE_DEPTH}")
        if self.peek() == "-":
            self.pos += 1
            node = self.factor()
            node = (-node[0],) + node[1:] if type(node) is tuple else -node
            self.depth -= 1
            return node
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            e = self.integer(PARSE_BOUND)
            if type(node) is tuple:
                c, idx, e1 = node
                if sign > 0 or idx == 0 or not e:
                    self.depth -= 1
                    return c ** e, idx, sign * e
                node = self.R.monomial(c, () if idx is None else (0,) * idx + (e1,))
            # the power of a k-term sum has up to comb(k + e - 1, e) terms,
            # and e times the degree of its base
            k = sum(len(u) - u.count(0) for u in node.num.values())
            degree = _parse_degree(node)
            if (k >= 2 and comb(k + e - 1, e) > PARSE_BOUND) or e * degree > PARSE_BOUND:
                self.error(f"the power {e} of a {k}-term class of degree {degree} "
                           f"exceeds the bound {PARSE_BOUND} on its terms and degree")
            self.charge(e * degree)
            node = node ** (sign * e)
        self.depth -= 1
        return node

    def integer(self, bound=None):
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        n = int(self.text[start : self.pos])
        if bound is not None and n > bound:
            self.error(f"{n} exceeds the bound {bound}")
        return n

    def atom(self):
        """A MotiveClass, or a bare atom as (coefficient, index, exponent)."""
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit():
            return self.integer(), None, 0
        if self.text.startswith("Pic", self.pos):
            self.pos += 3
            return (1, 1, 1) if self.R.genus else (1, None, 0)
        if ch == "C":
            self.pos += 1
            i = self.integer(PARSE_BOUND)
            return (1, 1 + i, 1) if 1 <= i < self.R.genus else self.R.C(i)
        if ch == "L":
            self.pos += 1
            return 1, 0, 1
        self.error(f"unexpected character {ch!r}")


def parse_class(text, genus):
    p = _Parser(text, genus)
    node = p.expr()
    p.skip()
    if p.pos != len(p.text):
        p.error("trailing input")
    return node
