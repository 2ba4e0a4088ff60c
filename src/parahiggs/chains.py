"""Euler characteristics, existence conditions, degree boxes and sub-type splits.

The sign convention is pinned by chi(O_C) = 1 - g: for bundles E, F on the
curve, chi(Hom(E,F)) = rk(E) deg(F) - rk(F) deg(E) + rk(E) rk(F) (1 - g).
Parabolic and strongly parabolic Hom sheaves subtract skyscraper counts from
the weight comparisons at the marked points.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul

from .errors import RankMismatch, UnboundedSearch
from .parabolic import Param, par_slope


# ---------------------------------------------------------------------------
# Euler characteristics


def chi_hom_rr(n_e, d_e, n_f, d_f, g):
    """chi(Hom(E,F)) by Riemann-Roch; zero when either side has rank zero."""
    if n_e == 0 or n_f == 0:
        return 0
    return n_e * d_f - n_f * d_e + n_e * n_f * (1 - g)


def chi_skyscrapers(datum_e, datum_f, strict):
    """Weight-comparison counts at the marked points.

    strict=True counts pairs with w_E > w_F (parabolic Hom correction);
    strict=False counts pairs with w_E >= w_F (strongly parabolic correction).
    """
    if datum_e.num_points != datum_f.num_points:
        raise RankMismatch("marked-point sets differ")
    de, df = datum_e.den, datum_f.den
    total = 0
    for pe, pf in zip(datum_e.nums, datum_f.nums):
        for we, me in pe:
            for wf, mf in pf:
                if (we * df > wf * de) if strict else (we * df >= wf * de):
                    total += me * mf
    return total


def chi_par(n_e, d_e, datum_e, n_f, d_f, datum_f, g):
    if n_e == 0 or n_f == 0:
        return 0
    return chi_hom_rr(n_e, d_e, n_f, d_f, g) - chi_skyscrapers(datum_e, datum_f, True)


def chi_spar(n_e, d_e, datum_e, n_f, d_f, datum_f, g):
    if n_e == 0 or n_f == 0:
        return 0
    return chi_hom_rr(n_e, d_e, n_f, d_f, g) - chi_skyscrapers(datum_e, datum_f, False)


def chi_ext_fiber(upper, lower, g, k):
    """Affine fiber dimension of the forgetful map from iterated extensions.

    upper is the quotient side, lower the sub side.  Equals minus the Euler
    characteristic of the two-term complex ParHom(upper_i, lower_i) ->
    SParHom(upper_i, lower_{i-1}(D)).
    """
    if upper.length != lower.length:
        raise RankMismatch("chain lengths differ")
    total = 0
    for i in range(upper.length + 1):
        total += chi_par(
            upper.ranks[i], upper.degrees[i], upper.weights[i],
            lower.ranks[i], lower.degrees[i], lower.weights[i], g,
        )
    for i in range(1, upper.length + 1):
        total -= chi_spar(
            upper.ranks[i], upper.degrees[i], upper.weights[i],
            lower.ranks[i - 1], lower.degrees[i - 1] + lower.ranks[i - 1] * k,
            lower.weights[i - 1], g,
        )
    return -total


def ext_exponent(parts, g, k):
    """Affine fiber dimension of the iterated extensions of the given parts:
    chi_ext_fiber of each later part (quotient side) over each earlier one."""
    return sum(
        chi_ext_fiber(parts[jj], parts[ii], g, k)
        for ii in range(len(parts))
        for jj in range(ii + 1, len(parts))
    )


# ---------------------------------------------------------------------------
# existence conditions for semistable chains of a given type


@functools.lru_cache(maxsize=None)
def _condition_rows(ranks, increasing):
    """The existence conditions for semistable chains of the given ranks.

    Returns one tuple of rows (coeffs, form) per choice of gap condition; a
    type passes iff every row of some choice holds.  A row reads sum coeffs_i
    x_i <= form . y over the parabolic degrees x_i, form being an integer
    linear form over y = (alpha_0, ..., alpha_r, k); _fold evaluates it.
    Low-index truncations are sub-chains for every parameter.  Rank dips and
    rises are used only for strictly increasing parameters (their derivation
    needs it); there the equal-rank gap is the printed one.  Otherwise the
    map to the lower index at an equal-rank site may vanish, making the
    high-index truncation a sub-chain, so each site takes either the printed
    gap or that suffix truncation.
    """
    r = len(ranks) - 1
    n = ranks
    n_tot = sum(n)

    def slope_row(c, const, m):
        """(sum_i c_i x_i + const . y)/m <= (sum_i x_i + sum_i n_i alpha_i)
        /n_tot, times m n_tot; const is a dict over the indices of y."""
        coeffs = tuple(c.get(i, 0) * n_tot - m for i in range(r + 1))
        form = tuple(m * v - n_tot * const.get(i, 0) for i, v in enumerate(n + (0,)))
        return coeffs, form

    def truncation(indices):
        return slope_row(
            {i: 1 for i in indices},
            {i: n[i] for i in indices},
            sum(n[i] for i in indices),
        )

    def printed_gap(j):
        """x_j - x_{j-1} <= n_j k."""
        coeffs = [0] * (r + 1)
        coeffs[j], coeffs[j - 1] = 1, -1
        return tuple(coeffs), (0,) * (r + 1) + (n[j],)

    prefixes = tuple(truncation(range(j + 1)) for j in range(r))
    sites = [j for j in range(1, r + 1) if n[j] == n[j - 1]]
    if not increasing:
        return tuple(
            prefixes + picks
            for picks in itertools.product(
                *[(printed_gap(j), truncation(range(j, r + 1))) for j in sites]
            )
        )
    rows = list(prefixes) + [printed_gap(j) for j in sites]
    for j in range(1, r + 1):
        for kk in range(j):
            # rank dip: replace the window [kk, j] by twists of the j-th bundle
            if n[j] < min(n[kk:j]):
                width = j - kk + 1
                outside = [i for i in range(r + 1) if not kk <= i <= j]
                c = {i: 1 for i in outside}
                c[j] = width
                const = {i: n[j] if kk <= i <= j else n[i] for i in range(r + 1)}
                const[r + 1] = -n[j] * (width * (width - 1) // 2)
                m = sum(n[i] for i in outside) + width * n[j]
                rows.append(slope_row(c, const, m))
            # rank rise: the dual replacement, a quotient-side condition
            if n[kk] < min(n[kk + 1 : j + 1]):
                span = range(kk + 1, j + 1)
                c = {i: 1 for i in span}
                c[kk] = -len(span)
                const = {i: n[i] - n[kk] for i in span}
                const[r + 1] = -n[kk] * sum(i - kk for i in span)
                rows.append(slope_row(c, const, sum(n[i] - n[kk] for i in span)))
    return (tuple(rows),)


def _fold(ranks, alpha, k, Q, weight_nums):
    """The choices of _condition_rows at alpha with k points, as integer rows
    sum coeffs_i d_i <= b over the degrees of parabolic degrees d_i + W_i/Q:
    b is the form at y = (a_0, ..., a_r, k D) less the weight part, rounded
    down once, which keeps exactly the integer points.  The only place the
    parameter, the points and the weights enter a row."""
    a, D = alpha.nums, alpha.den
    y = a + (k * D,)
    for rows in _condition_rows(ranks, all(x < z for x, z in zip(a, a[1:]))):
        yield [
            (c, (sum(map(mul, form, y)) * Q - D * sum(map(mul, c, weight_nums)))
             // (D * Q))
            for c, form in rows
        ]


def _holds(rows, d):
    """Every integer row (coeffs, b), read sum coeffs_i d_i <= b, holds at d."""
    return all(sum(map(mul, coeffs, d)) <= b for coeffs, b in rows)


def necessary_conditions(tau, alpha):
    """Existence test for semistable chains of type tau at the given parameter:
    some choice of the folded condition rows holds at tau's degrees."""
    if any(n == 0 for n in tau.ranks):
        raise ValueError("necessary_conditions expects full-support types")
    return any(
        _holds(rows, tau.degrees)
        for rows in _fold(tau.ranks, Param.of(alpha), tau.num_points, tau.Q,
                          tau.weight_nums)
    )


# ---------------------------------------------------------------------------
# Fourier-Motzkin degree boxes


def _fm_eliminate(constraints, var):
    """Eliminate one variable from a list of integer (coeffs, rhs) <= rows."""
    uppers, lowers, keep = [], [], []
    for coeffs, rhs in constraints:
        c = coeffs[var]
        if c > 0:
            uppers.append((coeffs, rhs))
        elif c < 0:
            lowers.append((coeffs, rhs))
        else:
            keep.append((coeffs, rhs))
    for (cu, ru) in uppers:
        for (cl, rl) in lowers:
            scale_u = -cl[var]
            scale_l = cu[var]
            coeffs = tuple(
                cu[i] * scale_u + cl[i] * scale_l for i in range(len(cu))
            )
            rhs = ru * scale_u + rl * scale_l
            keep.append((coeffs, rhs))
    # drop duplicates and trivial rows
    out = []
    seen = set()
    for coeffs, rhs in keep:
        if all(c == 0 for c in coeffs):
            if rhs < 0:
                return None  # infeasible
            continue
        key = (coeffs, rhs)
        if key not in seen:
            seen.add(key)
            out.append((coeffs, rhs))
    return out


def _fm_var_bounds(constraints, nvars, var):
    """Integer bounds (lo, hi) for one variable of integer rows sum c_i d_i <=
    b after eliminating all others (a side is None when unbounded), or None
    when the constraints are infeasible."""
    cons = constraints
    for v in range(nvars):
        if v == var:
            continue
        cons = _fm_eliminate(cons, v)
        if cons is None:
            return None
    lo, hi = None, None
    for coeffs, rhs in cons:
        c = coeffs[var]
        if c > 0:
            hi = rhs // c if hi is None else min(hi, rhs // c)
        elif c < 0:
            lo = -(rhs // -c) if lo is None else max(lo, -(rhs // -c))
    return lo, hi


def _degree_box(n_vec, alpha, weight_data, pinned, value):
    """Degree vectors passing the existence conditions whose degrees at the
    pinned indices sum to value, as a list in lexicographic order.

    The conditions are folded into integer rows over the degrees, and the
    last pinned degree, solved from the pin, is substituted into each row.
    The other, free degrees are boxed by the hull of the Fourier-Motzkin
    projections of the choices of rows (UnboundedSearch when one is
    unbounded), and the box is filtered exactly by the same rows.
    """
    if any(n <= 0 for n in n_vec):
        raise ValueError("degree enumeration expects positive ranks")
    Q = math.lcm(*(w.den for w in weight_data))
    weight_nums = [w.weight_num * (Q // w.den) for w in weight_data]
    solved = pinned[-1]
    free = [i for i in range(len(n_vec)) if i != solved]
    choices = [
        [
            (tuple(c[i] - c[solved] * (i in pinned) for i in free),
             b - c[solved] * value)
            for c, b in rows
        ]
        for rows in _fold(n_vec, alpha, weight_data[0].num_points, Q, weight_nums)
    ]
    box = None
    for rows in choices:
        bounds = [_fm_var_bounds(rows, len(free), var) for var in range(len(free))]
        if None in bounds:
            continue  # infeasible choice
        if any(b is None for bound in bounds for b in bound):
            raise UnboundedSearch(
                f"degree bounds unbounded for rank vector {n_vec} at {alpha}"
            )
        if box is not None:
            bounds = [
                (min(lo, blo), max(hi, bhi))
                for (lo, hi), (blo, bhi) in zip(bounds, box)
            ]
        box = bounds
    if box is None:
        return []
    out = []
    for head in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        if any(_holds(rows, head) for rows in choices):
            last = value - sum(head[i] for i in pinned[:-1])
            out.append(head[:solved] + (last,) + head[solved:])
    return out


def enumerate_degree_vectors(n_vec, total_d, alpha, weight_data):
    """All degree vectors with the given total passing the existence
    conditions, as a fresh list in lexicographic order."""
    n_vec = tuple(int(x) for x in n_vec)
    return _degree_box(n_vec, Param.of(alpha), tuple(weight_data),
                       tuple(range(len(n_vec))), total_d)


def enumerate_gap_profiles(n_vec, alpha, weight_data):
    """Degree vectors normalized to d_0 = 0 passing the existence conditions.

    Used for constant-rank filtration pieces, whose conditions do not pin the
    total degree; only the prefix and equal-rank gap conditions apply, and both
    are invariant under a common shift of all degrees.
    """
    if len(set(n_vec)) != 1:
        raise ValueError("gap profiles are defined for constant rank vectors")
    return _degree_box(tuple(int(x) for x in n_vec), Param.of(alpha),
                       tuple(weight_data), (0,), 0)


# ---------------------------------------------------------------------------
# filtration types


def compositions(n):
    """Ordered compositions of n into positive parts, in lexicographic order."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, n + 1)
        for rest in compositions(n - first)
    ]


def proper_subprofiles(ranks):
    """Rank vectors componentwise at most ranks, other than 0 and ranks: the
    rank profiles of proper sub-types, in lexicographic order."""
    ranks = tuple(ranks)
    for cand in itertools.product(*[range(v + 1) for v in ranks]):
        if any(cand) and cand != ranks:
            yield cand


def _has_interval_support(profile):
    supp = [i for i, v in enumerate(profile) if v]
    return supp[-1] - supp[0] + 1 == len(supp)


def index_weight_splits(per_index):
    """Weight splits of a chain datum from the splits of its indices.

    per_index holds, per chain index, that index's splits as
    enumerate_weight_splits gives them (one WeightDatum per part); yields,
    for each choice of one split per index, the per-part weight tuples, each
    a tuple of WeightDatum indexed by chain slot.
    """
    for combo in itertools.product(*per_index):
        yield tuple(zip(*combo))


def slopes_decrease(parts, alpha):
    """True when the parts' slopes at alpha strictly decrease (HN order)."""
    alpha = Param.of(alpha)
    slopes = [par_slope(p, alpha) for p in parts]
    return all(
        a * d > c * b for (a, b), (c, d) in zip(slopes, slopes[1:])
    )
