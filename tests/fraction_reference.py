"""Reference statements in Fraction arithmetic, for the integer-lattice tests.

These are the existence-condition rows, Fourier-Motzkin degree boxes and wall
location written over exact rationals, one weight sum and one slope at a
time, as independent references for the library's integer versions.
"""

import itertools
from fractions import Fraction
from itertools import combinations

from parahiggs.chains import proper_subprofiles
from parahiggs.errors import RankMismatch, UnboundedSearch


def fracs(alpha):
    """A stability parameter (a Param or a sequence of rationals) as Fractions."""
    if hasattr(alpha, "nums"):
        return tuple(Fraction(a, alpha.den) for a in alpha.nums)
    return tuple(Fraction(a) for a in alpha)


def weight_sum(datum):
    return sum(datum.all_weights(), Fraction(0))


def pardegs(tau):
    return tuple(d + weight_sum(w) for d, w in zip(tau.degrees, tau.weights))


def slope(tau, alpha):
    """Rank-weighted average of the shifted parabolic slopes."""
    alpha = fracs(alpha)
    total = sum(p + n * a for p, n, a in zip(pardegs(tau), tau.ranks, alpha))
    return total / tau.total_rank


# ---------------------------------------------------------------------------
# existence conditions and degree boxes


def condition_rows(ranks, alpha, k):
    """Choices of rows (coeffs, rhs), sum coeffs_i x_i <= rhs over the
    parabolic degrees x_i; a type passes iff every row of some choice holds."""
    r = len(ranks) - 1
    n = ranks
    n_tot = sum(n)
    A = [n[i] * alpha[i] for i in range(r + 1)]
    A_tot = sum(A)

    def slope_row(c, const, m):
        coeffs = tuple(
            Fraction(c.get(i, 0), m) - Fraction(1, n_tot) for i in range(r + 1)
        )
        return coeffs, Fraction(A_tot, n_tot) - Fraction(const, m)

    def truncation(indices):
        return slope_row(
            {i: 1 for i in indices},
            sum(A[i] for i in indices),
            sum(n[i] for i in indices),
        )

    def printed_gap(j):
        coeffs = [Fraction(0)] * (r + 1)
        coeffs[j], coeffs[j - 1] = Fraction(1), Fraction(-1)
        return tuple(coeffs), Fraction(n[j] * k)

    prefixes = [truncation(range(j + 1)) for j in range(r)]
    sites = [j for j in range(1, r + 1) if n[j] == n[j - 1]]
    if not all(a < b for a, b in zip(alpha, alpha[1:])):
        return [
            prefixes + list(picks)
            for picks in itertools.product(
                *[(printed_gap(j), truncation(range(j, r + 1))) for j in sites]
            )
        ]
    rows = prefixes + [printed_gap(j) for j in sites]
    for j in range(1, r + 1):
        for kk in range(j):
            if n[j] < min(n[kk:j]):
                width = j - kk + 1
                outside = [i for i in range(r + 1) if not kk <= i <= j]
                c = {i: 1 for i in outside}
                c[j] = width
                const = sum(A[i] for i in outside) + n[j] * (
                    sum(alpha[kk : j + 1]) - Fraction(width * (width - 1), 2) * k
                )
                m = sum(n[i] for i in outside) + width * n[j]
                rows.append(slope_row(c, const, m))
            if n[kk] < min(n[kk + 1 : j + 1]):
                span = range(kk + 1, j + 1)
                c = {i: 1 for i in span}
                c[kk] = -len(span)
                const = sum(
                    alpha[i] * (n[i] - n[kk]) - n[kk] * (i - kk) * k for i in span
                )
                rows.append(slope_row(c, const, sum(n[i] - n[kk] for i in span)))
    return [rows]


def holds(rows, x):
    return all(sum(c * xi for c, xi in zip(coeffs, x)) <= rhs for coeffs, rhs in rows)


def necessary_conditions(tau, alpha):
    choices = condition_rows(tau.ranks, fracs(alpha), tau.num_points)
    return any(holds(rows, pardegs(tau)) for rows in choices)


def _fm_eliminate(constraints, var):
    uppers, lowers, keep = [], [], []
    for coeffs, rhs in constraints:
        c = coeffs[var]
        if c > 0:
            uppers.append((coeffs, rhs))
        elif c < 0:
            lowers.append((coeffs, rhs))
        else:
            keep.append((coeffs, rhs))
    for cu, ru in uppers:
        for cl, rl in lowers:
            scale_u, scale_l = -cl[var], cu[var]
            keep.append((
                tuple(cu[i] * scale_u + cl[i] * scale_l for i in range(len(cu))),
                ru * scale_u + rl * scale_l,
            ))
    out = []
    seen = set()
    for coeffs, rhs in keep:
        if all(c == 0 for c in coeffs):
            if rhs < 0:
                return None
            continue
        if (coeffs, rhs) not in seen:
            seen.add((coeffs, rhs))
            out.append((coeffs, rhs))
    return out


def _fm_var_bounds(constraints, nvars, var):
    cons = constraints
    for v in range(nvars):
        if v != var:
            cons = _fm_eliminate(cons, v)
            if cons is None:
                return None
    lo, hi = None, None
    for coeffs, rhs in cons:
        c = coeffs[var]
        if c > 0:
            hi = rhs / c if hi is None else min(hi, rhs / c)
        elif c < 0:
            lo = rhs / c if lo is None else max(lo, rhs / c)
    return lo, hi


def degree_box(n_vec, alpha, weight_data, pinned, value):
    """Degree vectors passing the conditions whose pinned degrees sum to
    value, in lexicographic order, boxed and filtered over the rationals."""
    alpha = fracs(alpha)
    wsums = [weight_sum(w) for w in weight_data]
    nvars = len(n_vec)
    choices = condition_rows(n_vec, alpha, weight_data[0].num_points)
    pin = tuple(Fraction(int(i in pinned)) for i in range(nvars))
    pin_value = value + sum((wsums[i] for i in pinned), Fraction(0))
    pin_rows = [(pin, pin_value), (tuple(-c for c in pin), -pin_value)]
    solved = pinned[-1]
    free = [i for i in range(nvars) if i != solved]
    box = None
    for rows in choices:
        bounds = [_fm_var_bounds(rows + pin_rows, nvars, var) for var in free]
        if None in bounds:
            continue
        if any(b is None for bound in bounds for b in bound):
            raise UnboundedSearch("unbounded")
        if box is not None:
            bounds = [
                (min(lo, blo), max(hi, bhi)) for (lo, hi), (blo, bhi) in zip(bounds, box)
            ]
        box = bounds
    if box is None:
        return []
    ranges = [
        range((lo - wsums[i]).__ceil__(), (hi - wsums[i]).__floor__() + 1)
        for i, (lo, hi) in zip(free, box)
    ]
    out = []
    for head in itertools.product(*ranges):
        last = value - sum(head[i] for i in pinned[:-1])
        dvec = head[:solved] + (last,) + head[solved:]
        x = [d + w for d, w in zip(dvec, wsums)]
        if any(holds(rows, x) for rows in choices):
            out.append(dvec)
    return out


# ---------------------------------------------------------------------------
# wall location


def subtype_weight_sums(tau):
    """Distinct (rank profile, weight sum) pairs of tau's proper sub-types."""
    for datum in tau.weights:
        if any(m != 1 for point in datum.points for _, m in point):
            raise RankMismatch("weight splitting requires multiplicity-one data")
    for profile in proper_subprofiles(tau.ranks):
        sums = {Fraction(0)}
        for m, n, datum in zip(profile, tau.ranks, tau.weights):
            if m == n:
                sums = {s + weight_sum(datum) for s in sums}
                continue
            for point in datum.points:
                picks = {sum(c) for c in combinations([w for w, _ in point], m)}
                sums = {s + p for s in sums for p in picks}
        for wsum in sums:
            yield profile, wsum


def pinned_total(tau, profile, T):
    """T is a degree total a sub-type of this profile can have: an integer,
    and the sum of tau's degrees over the profile's support when the profile
    takes every index either whole or not at all (the sub-type then carries
    tau's bundles, and their degrees, at those indices)."""
    if T.denominator != 1:
        return False
    if all(p == n or p == 0 for p, n in zip(profile, tau.ranks)):
        return T == sum(d for p, d in zip(profile, tau.degrees) if p)
    return True


def wall_positions(tau, ray, lo, hi):
    """Candidate wall parameters in (lo, hi], solved one slope at a time."""
    lo, hi = Fraction(lo), Fraction(hi)
    base = fracs(ray.base)
    mu0 = slope(tau, base)
    mu_rate = Fraction(sum(d * m for d, m in zip(ray.delta, tau.ranks)), tau.total_rank)
    walls = set()
    for profile, wsum in subtype_weight_sums(tau):
        size = sum(profile)
        a0 = sum(p * a for p, a in zip(profile, base))
        d_rate = sum(p * d for p, d in zip(profile, ray.delta))
        sub_rate = Fraction(d_rate, size)
        if sub_rate == mu_rate:
            continue
        t_lo_val = size * (mu0 + lo * mu_rate) - wsum - a0 - lo * d_rate
        t_hi_val = size * (mu0 + hi * mu_rate) - wsum - a0 - hi * d_rate
        denom = sub_rate - mu_rate
        for T in range(min(t_lo_val, t_hi_val).__ceil__(),
                       max(t_lo_val, t_hi_val).__floor__() + 1):
            t_star = (mu0 - Fraction(T + wsum + a0, size)) / denom
            if lo < t_star <= hi and pinned_total(tau, profile, Fraction(T)):
                walls.add(t_star)
    return sorted(walls)


def is_on_wall(tau, alpha):
    alpha = fracs(alpha)
    mu = slope(tau, alpha)
    return any(
        pinned_total(
            tau, profile,
            sum(profile) * mu - wsum - sum(p * a for p, a in zip(profile, alpha)),
        )
        for profile, wsum in subtype_weight_sums(tau)
    )
