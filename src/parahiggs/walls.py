"""Ray selection, wall location and the crossing walk.

A ray alpha_t = alpha + t*delta has non-decreasing integer direction so the
gap hypothesis never degrades along it.  Walls are parameters where some
proper sub-type reaches the ambient slope; candidates are exhaustively
enumerated from the linear slope equations (the sub-type's degree total is
pinned into a bounded interval by t lying in the traversal window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Tuple

from .errors import EngineError, RankMismatch, UnboundedCandidates, WallHit
from .parabolic import Param, frac, par_slope
from .chains import proper_subprofiles


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


def subtype_weight_sums(ranks, weights):
    """Per proper sub-rank-profile, its size and the distinct weight sums of
    its sub-types as sorted integers over Q, the lcm of the weight
    denominators (the Q of a type with these weights).

    An index taken whole adds its datum's weight sum; a partial one adds, at
    each point, the sum of any m of that point's weights.
    """
    for datum in weights:
        if any(m != 1 for point in datum.points for _, m in point):
            raise RankMismatch("weight splitting requires multiplicity-one data")
    Q = math.lcm(*(datum.den for datum in weights))
    table = []
    for profile in proper_subprofiles(ranks):
        sums = {0}
        for m, n, datum in zip(profile, ranks, weights):
            scale = Q // datum.den
            if m == n:
                sums = {s + datum.weight_num * scale for s in sums}
                continue
            for point in datum.nums:
                picks = {sum(c) * scale for c in combinations([w for w, _ in point], m)}
                sums = {s + p for s in sums for p in picks}
        table.append((profile, sum(profile), tuple(sorted(sums))))
    return tuple(table)


def wall_positions(engine, tau, ray, lo, hi):
    """All candidate wall parameters in (lo, hi] for the given type.

    Exhaustive over proper sub-rank-profiles, weight subsets and the integer
    degree totals compatible with a crossing inside the window.  A sub-type
    of weight sum W/Q and degree total T has the ambient slope at t iff
    N T = K + t rate, with N = n_tot Q D and K, rate the integers below;
    multiplied by the sign of rate, the T with t in (lo, hi] form a range.
    """
    lo, hi = frac(lo), frac(hi)
    base, delta = ray.base, ray.delta
    Q, D = tau.Q, base.den
    n_tot = tau.total_rank
    N = n_tot * Q * D
    mu_num = par_slope(tau, base)[0]
    mu_rate = sum(d * n for d, n in zip(delta, tau.ranks))
    walls = set()
    for profile, size, sums in engine.subtype_sums(tau):
        a0 = sum(p * a for p, a in zip(profile, base.nums))
        d0 = sum(p * d for p, d in zip(profile, delta))
        rate = Q * D * (size * mu_rate - n_tot * d0)
        K0 = size * mu_num - n_tot * Q * a0
        s, rate = (-1, -rate) if rate < 0 else (1, rate)
        for W in sums:
            K = s * (K0 - n_tot * D * W)
            if rate == 0:
                # parallel slopes: the gap is constant in t, so either no wall
                # or a degenerate everywhere-wall (excluded by genericity)
                if K % N == 0:
                    raise UnboundedCandidates(
                        "degenerate wall family: sub-type slope parallel and equal"
                    )
                continue
            # K is s K here and rate |rate|: N s T runs over (K + lo rate, K + hi rate]
            sT_lo = (K * lo.denominator + lo.numerator * rate) // (N * lo.denominator)
            sT_hi = (K * hi.denominator + hi.numerator * rate) // (N * hi.denominator)
            for sT in range(sT_lo + 1, sT_hi + 1):
                walls.add(Fraction(N * sT - K, rate))
    return sorted(walls)


def is_on_wall(engine, tau, alpha):
    """Exact slope-equality test against every candidate proper sub-type."""
    alpha = Param.of(alpha)
    Q, D = tau.Q, alpha.den
    n_tot = tau.total_rank
    N = n_tot * Q * D
    mu_num = par_slope(tau, alpha)[0]
    for profile, size, sums in engine.subtype_sums(tau):
        K0 = size * mu_num - n_tot * Q * sum(p * a for p, a in zip(profile, alpha.nums))
        if any((K0 - n_tot * D * W) % N == 0 for W in sums):
            return True
    return False


def require_off_wall(engine, tau, alpha):
    """Raise WallHit when alpha lies on a wall for tau."""
    if is_on_wall(engine, tau, alpha):
        raise WallHit(f"stability parameter {alpha} lies on a wall for type {tau}")


# ---------------------------------------------------------------------------
# crossing walk


def cross_ray(engine, tau, ray):
    """Class at the ray base, walked down from the terminal regime.

    Within chambers the class is constant; at each wall the semistable locus
    at the wall equals the one just above plus the equal-slope filtration
    strata, and dropping below removes the other side's strata.  Each wall's
    filtration types are enumerated once, by one strata_at_wall call that
    sorts them into the two sides.
    """
    require_off_wall(engine, tau, ray.base)
    anchor = ray.t_max
    for _ in range(64):
        walls = wall_positions(engine, tau, ray, Fraction(0), anchor)
        if not walls or walls[-1] < anchor:
            break
        anchor = anchor + Fraction(1, 2)
    else:
        raise EngineError("could not find an off-wall anchor on the ray")

    cls = engine.chain_class(tau, ray.at(anchor))
    for t_c in reversed(walls):
        (plus, minus), count = engine.strata_at_wall(tau, ray, t_c)
        cls = cls + plus - minus
        engine.record_wall(tau, t_c, count, cls)
    return cls
