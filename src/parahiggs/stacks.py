"""Closed-form classes of the building-block stacks.

GL_n, partial flag varieties, the stack of rank-n bundles, parabolic bundle
stacks, and parabolic Hecke-modification stacks.  All functions are pure and
memoized; results are canonical MotiveClass values.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidFlagType
from .motive import CurveData, ring, sym_cxp_coeff, zeta_eval


@lru_cache(maxsize=None)
def gl_class(n, genus=0):
    """[GL_n] = prod_{i<n} (L^n - L^i); invertible in the completed ring."""
    if n < 1:
        raise ValueError("rank must be positive")
    R = ring(genus)
    out = R.one
    Ln = R.L ** n
    for i in range(n):
        out = out * (Ln - R.L ** i)
    return out


@lru_cache(maxsize=None)
def flag_class(n, r_vec, genus=0):
    """Partial flag variety with successive quotient dimensions r_vec."""
    r_vec = tuple(int(r) for r in r_vec)
    if sum(r_vec) != n or any(r < 1 for r in r_vec):
        raise InvalidFlagType(f"flag type {r_vec} incompatible with rank {n}")
    R = ring(genus)
    den = R.one
    for r in r_vec:
        den = den * gl_class(r, genus)
    shift = sum(
        r_vec[i] * r_vec[j]
        for i in range(len(r_vec))
        for j in range(i + 1, len(r_vec))
    )
    return gl_class(n, genus) / (den * R.L_pow(shift))


def bundle_stack_class(n, d, curve: CurveData):
    """Stack of rank-n degree-d bundles; depends only on n and the genus."""
    return _bundle_stack_class(n, curve.genus)


@lru_cache(maxsize=None)
def _bundle_stack_class(n, g):
    if n < 1:
        raise ValueError("rank must be positive")
    R = ring(g)
    out = R.L_pow((n * n - 1) * (g - 1)) * R.Pic / (R.L - R.one)
    for i in range(2, n + 1):
        out = out * zeta_eval(CurveData(g), -i)
    return out


def pbundle_stack_class(n, d, datum, curve: CurveData):
    """Parabolic bundle stack: bundle stack times one flag variety per point."""
    if datum.points and datum.rank != n:
        raise InvalidFlagType("weight datum rank does not match n")
    return _times_flags(bundle_stack_class(n, d, curve), n, datum, curve.genus)


def phecke_class(base, ell, n, target_flag, curve: CurveData):
    """Stack of length-ell modifications with prescribed flag type on the sub."""
    if ell < 0:
        raise ValueError("modification length must be nonnegative")
    out = base * sym_cxp_coeff(curve, n, ell)
    return _times_flags(out, n, target_flag, curve.genus)


def _times_flags(out, n, datum, genus):
    """out times the rank-n flag variety of datum's flag type at each point."""
    for p in range(datum.num_points):
        out = out * flag_class(n, datum.flag_type(p), genus)
    return out
