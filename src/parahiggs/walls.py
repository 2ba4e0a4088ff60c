"""Ray selection, wall location and the crossing walk.

A ray alpha_t = alpha + t*delta has non-decreasing integer direction so the
gap hypothesis never degrades along it.  Walls are parameters where some
proper sub-type reaches the ambient slope; candidates are exhaustively
enumerated from the linear slope equations (the sub-type's degree total is
pinned into a bounded interval by t lying in the traversal window).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Tuple

from .errors import EngineError, RankMismatch, UnboundedCandidates, WallHit
from .parabolic import frac, par_slope_alpha
from .chains import _alpha_fracs, proper_subprofiles


@dataclass(frozen=True)
class Ray:
    """alpha_t = base + t * delta with delta non-decreasing."""

    base: Tuple[Fraction, ...]
    delta: Tuple[int, ...]
    t_max: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", _alpha_fracs(self.base))
        object.__setattr__(self, "delta", tuple(int(d) for d in self.delta))
        object.__setattr__(self, "t_max", frac(self.t_max))
        if any(
            self.delta[i] < self.delta[i - 1] for i in range(1, len(self.delta))
        ):
            raise ValueError("ray direction must be non-decreasing")

    def at(self, t):
        t = frac(t)
        return tuple(a + t * d for a, d in zip(self.base, self.delta))


def hecke_shortfall(tau, alpha):
    """max_i (d_{i-1} - d_i + 2nk - (alpha_i - alpha_{i-1})), -1 at length 0: a
    constant-rank type is in the Hecke regime iff this is negative."""
    two_nk = 2 * tau.ranks[0] * tau.num_points
    gaps = (
        tau.degrees[i - 1] - tau.degrees[i] + two_nk - (alpha[i] - alpha[i - 1])
        for i in range(1, tau.length + 1)
    )
    return max(gaps, default=Fraction(-1))


def choose_ray(tau, alpha):
    """Direction and traversal bound reaching a terminal regime.

    Constant rank: delta_i = i until the Hecke-regime inequality holds.
    Otherwise the trailing equal-rank block is pushed to +/- infinity until a
    rank-dip or rank-rise condition must fail, so the locus empties out.
    """
    alpha = _alpha_fracs(alpha)
    r = tau.length
    n = tau.ranks
    k = tau.num_points
    P = tau.pardegs()
    if len(set(n)) == 1:
        t_max = max(hecke_shortfall(tau, alpha), Fraction(0)) + 1
        return Ray(alpha, tuple(range(r + 1)), t_max)

    kk = max(i for i in range(r) if n[i] != n[r])
    mu0 = par_slope_alpha(tau, alpha)
    n_tot = tau.total_rank
    if n[r] < n[kk]:
        delta = tuple(0 if i <= kk else 1 for i in range(r + 1))
        slope_rate = Fraction(sum(d * m for d, m in zip(delta, n)), n_tot)
        rhs = Fraction(P[kk] - P[kk + 1] + n[kk] * k, n[kk] - n[kk + 1]) + alpha[kk]
        t_star = (rhs - mu0) / slope_rate
    else:
        delta = tuple(-1 if i <= kk else 0 for i in range(r + 1))
        slope_rate = Fraction(sum(d * m for d, m in zip(delta, n)), n_tot)
        lhs = (
            Fraction(P[kk + 1] - P[kk] - n[kk] * k, n[kk + 1] - n[kk])
            + alpha[kk + 1]
        )
        t_star = (lhs - mu0) / slope_rate
    return Ray(alpha, delta, max(t_star, Fraction(0)) + 1)


# ---------------------------------------------------------------------------
# wall candidates


def _subtype_weight_sums(tau):
    """Distinct (rank profile, weight sum) pairs of tau's proper sub-types.

    An index taken whole adds its datum's weight sum; a partial one adds, at
    each point, the sum of any m of that point's weights.
    """
    for datum in tau.weights:
        if any(m != 1 for point in datum.points for _, m in point):
            raise RankMismatch("weight splitting requires multiplicity-one data")
    for profile in proper_subprofiles(tau.ranks):
        sums = {Fraction(0)}
        for m, n, datum in zip(profile, tau.ranks, tau.weights):
            if m == n:
                sums = {s + datum.weight_sum() for s in sums}
                continue
            for point in datum.points:
                picks = {sum(c) for c in combinations([w for w, _ in point], m)}
                sums = {s + p for s in sums for p in picks}
        for wsum in sums:
            yield profile, wsum


def _slope_linear(tau, ray):
    """mu(t) = value + t * rate for the ambient type."""
    value = par_slope_alpha(tau, ray.base)
    rate = Fraction(
        sum(d * m for d, m in zip(ray.delta, tau.ranks)), tau.total_rank
    )
    return value, rate


def wall_positions(tau, ray, lo, hi):
    """All candidate wall parameters in (lo, hi] for the given type.

    Exhaustive over proper sub-rank-profiles, weight subsets and the integer
    degree totals compatible with a crossing inside the window.
    """
    lo, hi = frac(lo), frac(hi)
    mu0, mu_rate = _slope_linear(tau, ray)
    walls = set()
    for profile, wsum in _subtype_weight_sums(tau):
        size = sum(profile)
        a0 = sum(p * a for p, a in zip(profile, ray.base))
        d_rate = sum(p * d for p, d in zip(profile, ray.delta))
        sub_rate = Fraction(d_rate, size)
        if sub_rate == mu_rate:
            # parallel slopes: the gap is constant in t, so either no wall
            # or a degenerate everywhere-wall (excluded by genericity)
            t_needed = size * mu0 - wsum - a0
            if t_needed.denominator == 1:
                raise UnboundedCandidates(
                    "degenerate wall family: sub-type slope parallel and equal"
                )
            continue
        # T'(t) = size*mu(t) - wsum - a0 - t*d_rate
        t_lo_val = size * (mu0 + lo * mu_rate) - wsum - a0 - lo * d_rate
        t_hi_val = size * (mu0 + hi * mu_rate) - wsum - a0 - hi * d_rate
        t_min, t_max_ = min(t_lo_val, t_hi_val), max(t_lo_val, t_hi_val)
        T_lo = int(t_min.__ceil__())
        T_hi = int(t_max_.__floor__())
        denom = sub_rate - mu_rate
        for T in range(T_lo, T_hi + 1):
            t_star = (mu0 - Fraction(T + wsum + a0, size)) / denom
            if lo < t_star <= hi:
                walls.add(t_star)
    return sorted(walls)


def is_on_wall(tau, alpha):
    """Exact slope-equality test against every candidate proper sub-type."""
    alpha = _alpha_fracs(alpha)
    mu = par_slope_alpha(tau, alpha)
    for profile, wsum in _subtype_weight_sums(tau):
        t_needed = sum(profile) * mu - wsum - sum(
            p * a for p, a in zip(profile, alpha)
        )
        if t_needed.denominator == 1:
            return True
    return False


def require_off_wall(tau, alpha):
    """Raise WallHit when alpha lies on a wall for tau."""
    if is_on_wall(tau, alpha):
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
    require_off_wall(tau, ray.base)
    anchor = ray.t_max
    for _ in range(64):
        walls = wall_positions(tau, ray, Fraction(0), anchor)
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
