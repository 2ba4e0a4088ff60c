"""Ray selection, wall location and the crossing walk.

A ray alpha_t = alpha + t*delta has non-decreasing integer direction so the
gap hypothesis never degrades along it.  Walls are parameters where some
proper sub-type reaches the ambient slope.  The sub-types, by rank profile
and weight sum, come from one engine table, ChainEngine.subtypes;
equal_slope_pins states the equal-slope pin on their degree totals along a
ray, equal_slope_subtypes reads it at one parameter, for the on-wall test
and the filtration types, and wall_positions solves it for the totals whose
crossing t lies in a window, for the walk and for chamber_point.  The class
is constant between walls, so chamber_point gives one point per chamber: the
midpoint between consecutive walls of a type along a ray, read from a table
built once per (type, ray).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Tuple

from .errors import WallHit
from .parabolic import Param, frac, par_slope


@dataclass(frozen=True)
class Ray:
    """alpha_t = base + t * delta with delta non-decreasing; t is the one
    quantity kept as a Fraction."""

    base: Param
    delta: Tuple[int, ...]
    t_max: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Param.of(self.base))
        object.__setattr__(self, "delta", tuple(int(d) for d in self.delta))
        object.__setattr__(self, "t_max", frac(self.t_max))
        if any(
            self.delta[i] < self.delta[i - 1] for i in range(1, len(self.delta))
        ):
            raise ValueError("ray direction must be non-decreasing")

    def at(self, t):
        t = frac(t)
        tn, td = t.numerator, t.denominator
        D = self.base.den
        return Param(
            [b * td + tn * d * D for b, d in zip(self.base.nums, self.delta)],
            D * td,
        )


def hecke_shortfall(tau, alpha):
    """max_i (d_{i-1} - d_i + 2nk - (alpha_i - alpha_{i-1})), -1 at length 0: a
    constant-rank type is in the Hecke regime iff this is negative."""
    alpha = Param.of(alpha)
    a, D = alpha.nums, alpha.den
    two_nk = 2 * tau.ranks[0] * tau.num_points
    gaps = (
        (tau.degrees[i - 1] - tau.degrees[i] + two_nk) * D - (a[i] - a[i - 1])
        for i in range(1, tau.length + 1)
    )
    return Fraction(max(gaps, default=-D), D)


def choose_ray(tau, alpha):
    """Direction and traversal bound reaching a terminal regime.

    Constant rank: delta_i = i until the Hecke-regime inequality holds.
    Otherwise the trailing equal-rank block is pushed to +/- infinity until a
    rank-dip or rank-rise condition must fail, so the locus empties out: the
    block's slope passes (P_kk - P_{kk+1} + n_kk k)/(n_kk - n_{kk+1}) plus
    alpha_kk for a dip, alpha_{kk+1} for a rise, P the parabolic degrees.
    """
    alpha = Param.of(alpha)
    r = tau.length
    n = tau.ranks
    if len(set(n)) == 1:
        t_max = max(hecke_shortfall(tau, alpha), Fraction(0)) + 1
        return Ray(alpha, tuple(range(r + 1)), t_max)

    kk = max(i for i in range(r) if n[i] != n[r])
    Q, D = tau.Q, alpha.den
    mu_num = par_slope(tau, alpha)[0]  # over n_tot Q D
    if n[r] < n[kk]:
        delta = tuple(0 if i <= kk else 1 for i in range(r + 1))
        a_bound = alpha.nums[kk]
    else:
        delta = tuple(-1 if i <= kk else 0 for i in range(r + 1))
        a_bound = alpha.nums[kk + 1]
    m = n[kk] - n[kk + 1]
    P_kk, P_next = (
        Q * tau.degrees[i] + tau.weight_nums[i] for i in (kk, kk + 1)
    )
    # the bound is bound_num / (Q D m); the ambient slope moves by rate / n_tot
    bound_num = (P_kk - P_next + n[kk] * tau.num_points * Q) * D + a_bound * Q * m
    rate = sum(d * ni for d, ni in zip(delta, n))
    t_star = Fraction(bound_num * tau.total_rank - mu_num * m, Q * D * m * rate)
    return Ray(alpha, delta, max(t_star, Fraction(0)) + 1)


# ---------------------------------------------------------------------------
# wall candidates


def equal_slope_pins(engine, tau, base, delta):
    """The equal-slope pin of each proper sub-type of tau along base + t delta.

    A sub-type of rank profile p, size s, weight sum W/Q and degree total T
    has tau's slope at base + t delta iff N T = K + t rate, with N = n_tot Q D
    and, mu_num / N being tau's slope at base and a, e the profile's shares of
    base.nums and delta, K = s mu_num - n_tot (Q a + D W) and rate =
    Q D (s sum_i n_i delta_i - n_tot e).  A profile taking each index whole
    or not at all carries tau's degrees there, so its T is pinned to their
    sum, whole; whole is None for any other profile.  Yields (profile, N, K,
    rate, whole, splits) for each weight sum of engine.subtypes(tau), splits
    being its (sub-type, quotient) weight splits.
    """
    Q, D = tau.Q, base.den
    n_tot = tau.total_rank
    mu_num, N = par_slope(tau, base)
    mu_rate = sum(map(mul, delta, tau.ranks))
    for profile, size, groups in engine.subtypes(tau):
        level = size * mu_num - n_tot * Q * sum(map(mul, profile, base.nums))
        rate = Q * D * (size * mu_rate - n_tot * sum(map(mul, profile, delta)))
        whole = (sum(d for p, d in zip(profile, tau.degrees) if p)
                 if all(p in (0, n) for p, n in zip(profile, tau.ranks)) else None)
        for W, splits in groups:
            yield profile, N, level - n_tot * D * W, rate, whole, splits


def equal_slope_subtypes(engine, tau, alpha):
    """The proper sub-types of tau that can take its slope at alpha: the pins
    of equal_slope_pins at t = 0 that admit an integer degree total T, as
    (profile, T, splits)."""
    alpha = Param.of(alpha)
    pins = equal_slope_pins(engine, tau, alpha, (0,) * len(alpha))
    for profile, N, K, _, whole, splits in pins:
        T, off = divmod(K, N)
        if not off and whole in (None, T):
            yield profile, T, splits


def wall_positions(engine, tau, ray, lo, hi):
    """All candidate wall parameters in (lo, hi] for the given type.

    Exhaustive over the pins of equal_slope_pins along the ray: multiplied
    by the sign of rate, the degree totals T with t in (lo, hi] form a
    range.  A pin with rate 0 never moves, so it has no wall.
    """
    lo, hi = frac(lo), frac(hi)
    walls = set()
    pins = equal_slope_pins(engine, tau, ray.base, ray.delta)
    for _, N, K, rate, whole, _ in pins:
        if rate == 0:
            continue
        # N s T runs over (s K + lo |rate|, s K + hi |rate|]
        s = -1 if rate < 0 else 1
        K, rate = s * K, s * rate
        sT_lo = (K * lo.denominator + lo.numerator * rate) // (N * lo.denominator)
        sT_hi = (K * hi.denominator + hi.numerator * rate) // (N * hi.denominator)
        for sT in range(sT_lo + 1, sT_hi + 1):
            if whole in (None, s * sT):
                walls.add(Fraction(N * sT - K, rate))
    return sorted(walls)


def is_on_wall(engine, tau, alpha):
    """True when some proper sub-type can take tau's slope at alpha."""
    return next(equal_slope_subtypes(engine, tau, alpha), None) is not None


def require_off_wall(engine, tau, alpha):
    """Raise WallHit when alpha lies on a wall for tau."""
    if is_on_wall(engine, tau, alpha):
        raise WallHit(f"stability parameter {alpha} lies on a wall for type {tau}")


def chamber_point(engine, tau, ray, t, side):
    """The midpoint of tau's chamber along the ray beside t on the given side
    (+1 above, -1 below).

    The chambers are cut by the candidates of wall_positions(engine, tau,
    ray, 0, t_max + 1) and end at the window's ends 0 and t_max + 1; a t
    that is a candidate is the end of the chamber on that side.  So every t
    in one chamber, and both sides of a t that is no candidate, give one
    point, which lies on no wall of tau.  The sorted ends are kept in
    engine.tables once per (type, ray), keyed like ChainEngine.subtypes by
    the plain function.  ValueError when t lies outside the window or at
    its end on the given side.
    """
    key = (chamber_point, (tau, ray))
    ends = engine.tables.get(key)
    if ends is None:
        top = ray.t_max + 1
        ends = engine.tables[key] = sorted(
            {Fraction(0), top, *wall_positions(engine, tau, ray, 0, top)})
    i = (bisect_right if side > 0 else bisect_left)(ends, frac(t))
    if not 0 < i < len(ends):
        raise ValueError(f"no chamber of the window [0, {ends[-1]}] lies on side "
                         f"{side} of ray parameter {t}")
    return (ends[i - 1] + ends[i]) / 2


# ---------------------------------------------------------------------------
# crossing walk


def cross_ray(engine, tau, ray):
    """Class at the ray base, walked down from the terminal regime.

    Within chambers the class is constant; at each wall the semistable locus
    at the wall equals the one just above plus the equal-slope filtration
    strata, and dropping below removes the other side's strata.  The walk
    starts at t_max, or in the chamber above it when t_max is a wall.  Each
    wall's filtration types are enumerated once, by one strata_at_wall call
    that sorts them into the two sides.
    """
    require_off_wall(engine, tau, ray.base)
    walls = wall_positions(engine, tau, ray, Fraction(0), ray.t_max)
    anchor = ray.t_max
    if walls and walls[-1] == anchor:
        anchor = chamber_point(engine, tau, ray, anchor, +1)
    cls = engine.chain_class(tau, ray.at(anchor))
    for t_c in reversed(walls):
        (plus, minus), count = engine.strata_at_wall(tau, ray, t_c)
        cls = engine.R.sum((cls, plus, -minus))
        engine.record_wall(tau, t_c, count, cls)
    return cls
