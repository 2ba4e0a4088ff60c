"""Euler characteristics, existence conditions, degree boxes and filtration types.

The sign convention is pinned by chi(O_C) = 1 - g: for bundles E, F on the
curve, chi(Hom(E,F)) = rk(E) deg(F) - rk(F) deg(E) + rk(E) rk(F) (1 - g).
Parabolic and strongly parabolic Hom sheaves subtract skyscraper counts from
the weight comparisons at the marked points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import RankMismatch, UnboundedSearch
from .parabolic import ChainType, frac, par_slope_alpha


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
    total = 0
    for pe, pf in zip(datum_e.points, datum_f.points):
        for we, me in pe:
            for wf, mf in pf:
                if (we > wf) if strict else (we >= wf):
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
# necessary conditions for semistable chains of a given type


def _alpha_fracs(alpha):
    return tuple(frac(a) for a in alpha)


def _is_strictly_increasing(alpha):
    return all(alpha[i] > alpha[i - 1] for i in range(1, len(alpha)))


def necessary_conditions(tau, alpha, k=None):
    """Existence test for semistable chains of type tau at the given parameter.

    Conditions on rank dips and rises are applied only for strictly increasing
    parameters (their derivation needs it); the truncation conditions hold for
    any parameter.
    """
    if any(n == 0 for n in tau.ranks):
        raise ValueError("necessary_conditions expects full-support types")
    alpha = _alpha_fracs(alpha)
    if k is None:
        k = tau.num_points
    r = tau.length
    n = tau.ranks
    P = tau.pardegs()
    shifted = [P[i] + n[i] * alpha[i] for i in range(r + 1)]
    n_tot = sum(n)
    mu = Fraction(sum(shifted), n_tot)
    increasing = _is_strictly_increasing(alpha)

    # (1) low-index truncations are sub-chains for every parameter
    for j in range(r):
        nj = sum(n[: j + 1])
        if Fraction(sum(shifted[: j + 1]), nj) > mu:
            return False

    # (2) equal-rank degree gap; for non-monotone parameters the map to the
    # lower index may vanish, in which case the high-index truncation is a
    # sub-chain, so the disjunction below is the honest necessary condition.
    for j in range(1, r + 1):
        if n[j] != n[j - 1]:
            continue
        printed = P[j] - n[j] * k <= P[j - 1]
        if increasing:
            if not printed:
                return False
        else:
            mj = sum(n[j:])
            suffix = Fraction(sum(shifted[j:]), mj) <= mu
            if not (printed or suffix):
                return False

    if not increasing:
        return True

    # (3) rank dips: replace the window [kk, j] by twists of the j-th bundle
    for j in range(1, r + 1):
        for kk in range(j):
            if not n[j] < min(n[kk:j]):
                continue
            width = j - kk + 1
            m_den = sum(n[i] for i in range(r + 1) if not kk <= i <= j) + width * n[j]
            num = sum(shifted[i] for i in range(r + 1) if not kk <= i <= j)
            num += width * P[j]
            num += (
                sum(alpha[kk : j + 1]) - Fraction(width * (width - 1), 2) * k
            ) * n[j]
            if Fraction(num, 1) / m_den > mu:
                return False

    # (4) rank rises: the dual replacement, a quotient-side condition
    for j in range(1, r + 1):
        for kk in range(j):
            if not n[kk] < min(n[kk + 1 : j + 1]):
                continue
            m_den = sum(n[i] - n[kk] for i in range(kk + 1, j + 1))
            num = sum(
                P[i] - P[kk] - n[kk] * (i - kk) * k + alpha[i] * (n[i] - n[kk])
                for i in range(kk + 1, j + 1)
            )
            if Fraction(num, 1) / m_den > mu:
                return False

    return True


# ---------------------------------------------------------------------------
# Fourier-Motzkin degree boxes


def _fm_eliminate(constraints, var):
    """Eliminate one variable from a list of (coeffs, rhs) <= constraints."""
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
    """Bounds (lo, hi) for one variable after eliminating all others."""
    cons = constraints
    for v in range(nvars):
        if v == var:
            continue
        cons = _fm_eliminate(cons, v)
        if cons is None:
            return "infeasible"
    lo, hi = None, None
    for coeffs, rhs in cons:
        c = coeffs[var]
        if c > 0:
            bound = rhs / c
            hi = bound if hi is None else min(hi, bound)
        elif c < 0:
            bound = rhs / c
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def _condition_constraints(ranks, alpha, k, gap_condition_modes=None):
    """Linear relaxation of the necessary conditions, shift-free difference form.

    Variables are the parabolic degrees x_i.  gap_condition_modes optionally
    replaces the printed equal-rank gap condition at index j by the suffix
    truncation condition ('suffix'), needed for non-monotone parameters.
    """
    r = len(ranks) - 1
    n = ranks
    n_tot = sum(n)
    a = alpha
    increasing = _is_strictly_increasing(a)
    A = [n[i] * a[i] for i in range(r + 1)]
    A_tot = sum(A)
    cons = []

    def diff_prefix(indices, m_den):
        """(sum over indices of (x_i + A_i))/m_den <= mu, in difference form."""
        coeffs = [Fraction(0)] * (r + 1)
        rhs = Fraction(A_tot, n_tot)
        for i in range(r + 1):
            coeffs[i] -= Fraction(1, n_tot)
        for i in indices:
            coeffs[i] += Fraction(1, m_den)
            rhs -= Fraction(A[i], m_den)
        cons.append((tuple(coeffs), rhs))

    for j in range(r):
        diff_prefix(range(j + 1), sum(n[: j + 1]))

    for j in range(1, r + 1):
        if n[j] != n[j - 1]:
            continue
        mode = (gap_condition_modes or {}).get(j, "printed")
        if mode == "printed":
            coeffs = [Fraction(0)] * (r + 1)
            coeffs[j] = Fraction(1)
            coeffs[j - 1] = Fraction(-1)
            cons.append((tuple(coeffs), Fraction(n[j] * k)))
        elif mode == "suffix":
            diff_prefix(range(j, r + 1), sum(n[j:]))
        else:
            raise ValueError(mode)

    if increasing:
        for j in range(1, r + 1):
            for kk in range(j):
                if n[j] < min(n[kk:j]):
                    width = j - kk + 1
                    m_den = (
                        sum(n[i] for i in range(r + 1) if not kk <= i <= j)
                        + width * n[j]
                    )
                    outside = [i for i in range(r + 1) if not kk <= i <= j]
                    rhs_extra = -(
                        sum(a[kk : j + 1]) - Fraction(width * (width - 1), 2) * k
                    ) * n[j]
                    coeffs = [Fraction(0)] * (r + 1)
                    rhs = Fraction(A_tot, n_tot)
                    for i in range(r + 1):
                        coeffs[i] -= Fraction(1, n_tot)
                    for i in outside:
                        coeffs[i] += Fraction(1, m_den)
                        rhs -= Fraction(A[i], m_den)
                    coeffs[j] += Fraction(width, m_den)
                    rhs += Fraction(rhs_extra, m_den)
                    cons.append((tuple(coeffs), rhs))
                if n[kk] < min(n[kk + 1 : j + 1]):
                    m_den = sum(n[i] - n[kk] for i in range(kk + 1, j + 1))
                    coeffs = [Fraction(0)] * (r + 1)
                    rhs = Fraction(A_tot, n_tot)
                    for i in range(r + 1):
                        coeffs[i] -= Fraction(1, n_tot)
                    accum_rhs = Fraction(0)
                    for i in range(kk + 1, j + 1):
                        coeffs[i] += Fraction(1, m_den)
                        coeffs[kk] -= Fraction(1, m_den)
                        accum_rhs += -n[kk] * (i - kk) * k + a[i] * (n[i] - n[kk])
                    rhs -= Fraction(accum_rhs, m_den)
                    cons.append((tuple(coeffs), rhs))
    return cons


def _gap_condition_mode_sets(ranks, alpha):
    """Which disjunct combinations to take the hull over for the degree box."""
    if _is_strictly_increasing(alpha):
        return [None]
    eq_sites = [
        j for j in range(1, len(ranks)) if ranks[j] == ranks[j - 1]
    ]
    combos = []
    for modes in itertools.product(("printed", "suffix"), repeat=len(eq_sites)):
        combos.append(dict(zip(eq_sites, modes)))
    return combos or [None]


def enumerate_degree_vectors(n_vec, total_d, alpha, weight_data, k=None):
    """All degree vectors with the given total passing the necessary conditions.

    A Fourier-Motzkin relaxation of the conditions yields finite per-index
    bounds (else UnboundedSearch); the box is then filtered exactly.
    """
    n_vec = tuple(int(x) for x in n_vec)
    alpha = _alpha_fracs(alpha)
    weight_data = tuple(weight_data)
    if k is None:
        k = weight_data[0].num_points if weight_data else 0
    r = len(n_vec) - 1
    if any(n <= 0 for n in n_vec):
        raise ValueError("degree enumeration expects positive ranks")
    wsums = [w.weight_sum() for w in weight_data]
    total_pardeg = Fraction(total_d) + sum(wsums, Fraction(0))
    if r == 0:
        tau = ChainType(n_vec, (total_d,), weight_data)
        return [(total_d,)] if necessary_conditions(tau, alpha, k) else []

    lo = [None] * (r + 1)
    hi = [None] * (r + 1)
    for modes in _gap_condition_mode_sets(n_vec, alpha):
        cons = _condition_constraints(n_vec, alpha, k, modes)
        # fix the total: sum x_i = total_pardeg
        ones = tuple(Fraction(1) for _ in range(r + 1))
        cons_fixed = cons + [
            (ones, total_pardeg),
            (tuple(-c for c in ones), -total_pardeg),
        ]
        for var in range(r + 1):
            bounds = _fm_var_bounds(cons_fixed, r + 1, var)
            if bounds == "infeasible":
                lo_v, hi_v = Fraction(1), Fraction(0)  # empty marker
            else:
                lo_v, hi_v = bounds
            if lo_v is None or hi_v is None:
                raise UnboundedSearch(
                    f"degree bounds unbounded for rank vector {n_vec} at {alpha}"
                )
            lo[var] = lo_v if lo[var] is None else min(lo[var], lo_v)
            hi[var] = hi_v if hi[var] is None else max(hi[var], hi_v)

    d_lo = [int((lo[i] - wsums[i]).__ceil__()) for i in range(r + 1)]
    d_hi = [int((hi[i] - wsums[i]).__floor__()) for i in range(r + 1)]
    out = []
    ranges = [range(d_lo[i], d_hi[i] + 1) for i in range(r)]
    for head in itertools.product(*ranges):
        last = total_d - sum(head)
        if not d_lo[r] <= last <= d_hi[r]:
            continue
        dvec = head + (last,)
        tau = ChainType(n_vec, dvec, weight_data)
        if necessary_conditions(tau, alpha, k):
            out.append(dvec)
    out.sort()
    return out


def enumerate_gap_profiles(n_vec, alpha, weight_data, k=None):
    """Degree vectors normalized to d_0 = 0 passing the shift-invariant conditions.

    Used for constant-rank filtration pieces, whose conditions do not pin the
    total degree; only the prefix and equal-rank gap conditions apply, and both
    are invariant under a common shift of all degrees.
    """
    n_vec = tuple(int(x) for x in n_vec)
    if len(set(n_vec)) != 1:
        raise ValueError("gap profiles are defined for constant rank vectors")
    alpha = _alpha_fracs(alpha)
    weight_data = tuple(weight_data)
    if k is None:
        k = weight_data[0].num_points if weight_data else 0
    r = len(n_vec) - 1
    if r == 0:
        return [(0,)]
    wsums = [w.weight_sum() for w in weight_data]
    lo = [None] * (r + 1)
    hi = [None] * (r + 1)
    for modes in _gap_condition_mode_sets(n_vec, alpha):
        cons = _condition_constraints(n_vec, alpha, k, modes)
        # gauge: x_0 = wsums[0]  (i.e. d_0 = 0)
        gauge = [Fraction(0)] * (r + 1)
        gauge[0] = Fraction(1)
        cons_fixed = cons + [
            (tuple(gauge), wsums[0]),
            (tuple(-c for c in gauge), -wsums[0]),
        ]
        for var in range(1, r + 1):
            bounds = _fm_var_bounds(cons_fixed, r + 1, var)
            if bounds == "infeasible":
                lo_v, hi_v = Fraction(1), Fraction(0)
            else:
                lo_v, hi_v = bounds
            if lo_v is None or hi_v is None:
                raise UnboundedSearch(
                    f"gap bounds unbounded for rank vector {n_vec} at {alpha}"
                )
            lo[var] = lo_v if lo[var] is None else min(lo[var], lo_v)
            hi[var] = hi_v if hi[var] is None else max(hi[var], hi_v)
    d_lo = [int((lo[i] - wsums[i]).__ceil__()) for i in range(1, r + 1)]
    d_hi = [int((hi[i] - wsums[i]).__floor__()) for i in range(1, r + 1)]
    out = []
    for tail in itertools.product(
        *[range(d_lo[i], d_hi[i] + 1) for i in range(r)]
    ):
        dvec = (0,) + tail
        tau = ChainType(n_vec, dvec, weight_data)
        if necessary_conditions(tau, alpha, k):
            out.append(dvec)
    out.sort()
    return out


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


def vector_compositions(ranks):
    """Rank profiles of proper filtrations: ordered tuples of at least two
    nonzero interval-support vectors componentwise summing to ranks."""
    ranks = tuple(ranks)
    out = []

    def is_interval(vec):
        supp = [i for i, v in enumerate(vec) if v]
        return bool(supp) and supp[-1] - supp[0] + 1 == len(supp)

    def rec(remaining, acc):
        if all(v == 0 for v in remaining):
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for cand in itertools.product(*[range(v + 1) for v in remaining]):
            if is_interval(cand):
                rec(tuple(v - c for v, c in zip(remaining, cand)), acc + [cand])

    rec(ranks, [])
    return out


def index_weight_splits(weight_data, profiles):
    """Per-index weight splits of a chain datum into the given rank profiles.

    profiles is a tuple of rank vectors (one per part); yields tuples of
    per-part weight tuples, each a tuple of WeightDatum indexed by chain slot.
    """
    from .parabolic import enumerate_weight_splits

    r = len(weight_data) - 1
    per_index = []
    for i in range(r + 1):
        sizes = tuple(prof[i] for prof in profiles)
        per_index.append(enumerate_weight_splits(weight_data[i], sizes))
    for combo in itertools.product(*per_index):
        yield tuple(
            tuple(combo[i][j] for i in range(r + 1)) for j in range(len(profiles))
        )


def filtration_types(tau, alpha, window=None):
    """Filtration types of tau: tuples of parts whose degrees sum to tau's.

    Parts range over interval-support rank profiles, then per-index weight
    splits, then the degree vectors that enumerate_degree_vectors boxes at
    alpha.  With no window each part's degree total is pinned by equal slope
    at alpha, the wall case; with a window the totals run over
    [-window, window].  No slope order is imposed: callers filter the tuples
    with slopes_decrease at the parameter they need.
    """
    alpha = _alpha_fracs(alpha)
    k = tau.num_points
    mu = par_slope_alpha(tau, alpha)
    for profiles in vector_compositions(tau.ranks):
        for weight_parts in index_weight_splits(tau.weights, profiles):
            choices = []
            for prof, wparts in zip(profiles, weight_parts):
                if window is None:
                    wsum = sum((w.weight_sum() for w in wparts), Fraction(0))
                    total = (
                        mu * sum(prof)
                        - sum(n * a for n, a in zip(prof, alpha))
                        - wsum
                    )
                    if total.denominator != 1:
                        break
                    totals = [int(total)]
                else:
                    totals = range(-window, window + 1)
                block = [i for i, v in enumerate(prof) if v]
                cands = []
                for t in totals:
                    for dvec in enumerate_degree_vectors(
                        tuple(prof[i] for i in block),
                        t,
                        tuple(alpha[i] for i in block),
                        tuple(wparts[i] for i in block),
                        k,
                    ):
                        degrees = [0] * (tau.length + 1)
                        for i, d in zip(block, dvec):
                            degrees[i] = d
                        cands.append(ChainType(prof, tuple(degrees), wparts))
                if not cands:
                    break
                choices.append(cands)
            else:
                for parts in itertools.product(*choices):
                    if all(
                        sum(p.degrees[i] for p in parts) == d
                        for i, d in enumerate(tau.degrees)
                    ):
                        yield parts


def slopes_decrease(parts, alpha):
    """True when the parts' slopes at alpha strictly decrease (HN order)."""
    slopes = [par_slope_alpha(p, alpha) for p in parts]
    return all(slopes[j] > slopes[j + 1] for j in range(len(slopes) - 1))
