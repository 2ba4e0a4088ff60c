"""Euler characteristics, existence conditions, degree boxes, filtration types."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import fracs, pardegs, slope, weight_sum
from parahiggs import chains
from parahiggs.engine import ChainEngine
from parahiggs.errors import UnboundedSearch
from parahiggs.higgs import HiggsProblem, higgs_computation
from parahiggs.motive import CurveData
from parahiggs.parabolic import (
    ChainType,
    WeightDatum,
    enumerate_weight_splits,
    generate_generic_weights,
)
from parahiggs.chains import (
    chi_ext_fiber,
    chi_hom_rr,
    chi_par,
    chi_skyscrapers,
    chi_spar,
    enumerate_degree_vectors,
    enumerate_gap_profiles,
    index_weight_splits,
    necessary_conditions,
    slopes_decrease,
)


def index_splits(weights, profiles):
    """index_weight_splits of the chain datum weights into the rank
    profiles, each index split afresh."""
    return index_weight_splits([
        enumerate_weight_splits(datum, sizes)
        for datum, sizes in zip(weights, zip(*profiles))
    ])


def full_flag(ws):
    return WeightDatum.full_flags([list(point) for point in ws])


def random_datum(rng, n, k):
    choices = rng.sample(range(1, 40), n * k)
    pts = []
    for p in range(k):
        pts.append(sorted(Fraction(c, 41) for c in choices[p * n : (p + 1) * n]))
    return full_flag(pts)


# ---------------------------------------------------------------------------
# Euler characteristics


def test_chi_structure_sheaf():
    assert chi_hom_rr(1, 0, 1, 0, 2) == -1


def test_chi_twisted_line_p1():
    assert chi_hom_rr(1, 0, 1, 3, 0) == 4


@settings(max_examples=50, deadline=None)
@given(
    ne=st.integers(1, 4),
    de=st.integers(-5, 5),
    nf=st.integers(1, 4),
    df=st.integers(-5, 5),
    g=st.integers(0, 3),
)
def test_chi_antisymmetry(ne, de, nf, df, g):
    total = chi_hom_rr(ne, de, nf, df, g) + chi_hom_rr(nf, df, ne, de, g)
    assert total == 2 * ne * nf * (1 - g)


def test_skyscraper_equal_weights():
    d1 = WeightDatum((((Fraction(1, 2), 2),),))
    d2 = WeightDatum((((Fraction(1, 2), 3),),))
    assert chi_skyscrapers(d1, d2, strict=False) == 6
    assert chi_skyscrapers(d1, d2, strict=True) == 0


def test_skyscraper_enumeration():
    de = WeightDatum((((Fraction(1, 4), 1), (Fraction(3, 4), 1)),))
    df = WeightDatum((((Fraction(1, 2), 2),),))
    assert chi_skyscrapers(de, df, strict=True) == 2
    assert chi_skyscrapers(de, df, strict=False) == 2


def test_skyscraper_no_points():
    e = WeightDatum.empty(0)
    assert chi_skyscrapers(e, e, strict=True) == 0


def test_ext_fiber_line_bundles():
    e = WeightDatum.empty(0)
    upper = ChainType((1,), (0,), (e,))
    lower = ChainType((1,), (0,), (e,))
    assert chi_ext_fiber(upper, lower, 2, 0) == 1


def test_ext_fiber_length_one():
    # tied zero weights force vanishing at the point, so the strongly
    # parabolic twisted term is chi(Hom) - 1 = 1 and the fiber is -1
    e1 = WeightDatum.trivial_flags(1, 1)
    upper = ChainType((1, 1), (0, 0), (e1, e1))
    lower = ChainType((1, 1), (0, 0), (e1, e1))
    assert chi_ext_fiber(upper, lower, 0, 1) == -1
    # with untied generic weights (upper below lower) nothing is forced and
    # the plain Riemann-Roch arithmetic -(1 + 1 - 2) = 0 applies
    lo = WeightDatum.full_flags([[Fraction(2, 5)]])
    up = WeightDatum.full_flags([[Fraction(1, 5)]])
    upper = ChainType((1, 1), (0, 0), (up, up))
    lower = ChainType((1, 1), (0, 0), (lo, lo))
    assert chi_ext_fiber(upper, lower, 0, 1) == 0


def test_ext_fiber_degree_linearity():
    """Bumping one upper degree moves chi by the lower rank at that index."""
    rng = random.Random(5)
    e = WeightDatum.empty(0)
    for _ in range(10):
        d = [rng.randrange(-4, 5) for _ in range(4)]
        g = rng.randrange(0, 4)
        upper = ChainType((1, 1), (d[0], d[1]), (e, e))
        lower = ChainType((1, 1), (d[2], d[3]), (e, e))
        base = chi_ext_fiber(upper, lower, g, 0)
        for step in (1, 7):
            bumped = ChainType((1, 1), (d[0] + step, d[1]), (e, e))
            assert chi_ext_fiber(bumped, lower, g, 0) - base == step


def test_serre_duality_identity_500():
    """chi_par(E',E) = -chi_spar(E, E' twisted by 2g-2+k), 500 random configs."""
    rng = random.Random(20240810)
    for _ in range(500):
        g = rng.randrange(0, 4)
        k = rng.randrange(1, 3)
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 4)
        d1 = rng.randrange(-6, 7)
        d2 = rng.randrange(-6, 7)
        de = random_datum(rng, n1, k)
        df = random_datum(rng, n2, k)
        lhs = chi_par(n1, d1, de, n2, d2, df, g)
        rhs = -chi_spar(n2, d2, df, n1, d1 + n1 * (2 * g - 2 + k), de, g)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the dual chi identity must be read with the twist applied to the source of
# the strongly parabolic side: chi_spar(E, E'(omega(D))) with E' twisted.


def test_serre_duality_identity_direction():
    g, k = 2, 1
    de = full_flag([[Fraction(1, 5)]])
    df = full_flag([[Fraction(2, 5), Fraction(3, 5)]])
    lhs = chi_par(1, 3, de, 2, -1, df, g)
    rhs = -chi_spar(2, -1, df, 1, 3 + 1 * (2 * g - 2 + k), de, g)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# necessary conditions


def alpha_f(*vals):
    return tuple(Fraction(v) for v in vals)


def scalar_conditions(tau, alpha):
    """Reference statement of the existence conditions as scalar slope
    inequalities, independent of the condition rows the library boxes with.

    Conditions on rank dips and rises are applied only for strictly increasing
    parameters; the truncation conditions hold for any parameter.
    """
    alpha = fracs(alpha)
    k = tau.num_points
    r = tau.length
    n = tau.ranks
    P = pardegs(tau)
    shifted = [P[i] + n[i] * alpha[i] for i in range(r + 1)]
    mu = Fraction(sum(shifted), sum(n))
    increasing = all(alpha[i] > alpha[i - 1] for i in range(1, r + 1))

    # (1) low-index truncations are sub-chains for every parameter
    for j in range(r):
        if Fraction(sum(shifted[: j + 1]), sum(n[: j + 1])) > mu:
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
        elif not (printed or Fraction(sum(shifted[j:]), sum(n[j:])) <= mu):
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


def test_conditions_rank0():
    tau = ChainType((2,), (5,), (WeightDatum.empty(0),))
    assert necessary_conditions(tau, alpha_f(0)) is True


def test_conditions_gap_violation():
    e = WeightDatum.trivial_flags(1, 1)
    tau = ChainType((1, 1), (0, 2), (e, e))
    assert necessary_conditions(tau, alpha_f(0, 2)) is False


def test_conditions_hold():
    e = WeightDatum.trivial_flags(1, 1)
    tau = ChainType((1, 1), (0, 0), (e, e))
    assert necessary_conditions(tau, alpha_f(0, 2)) is True


def test_condition_rows_built_once_per_rank_profile(monkeypatch):
    """One solve of (2,1,3) at d = 1 asks for the existence rows at many
    parameters and builds them once per rank profile and ordering."""
    asked = Counter()
    build = chains._condition_rows

    def counting(ranks, increasing):
        asked[ranks, increasing] += 1
        return build(ranks, increasing)

    monkeypatch.setattr(chains, "_condition_rows", counting)
    build.cache_clear()
    datum = WeightDatum.full_flags([generate_generic_weights(3, 3)])
    higgs_computation(HiggsProblem(CurveData(2, 1), 3, 1, datum))
    assert sum(asked.values()) > len(asked)
    assert build.cache_info().misses == len(asked)


def random_condition_input(rng):
    """Ranks, weights, parameter and degrees over lengths 0-3, ranks 1-3,
    0-2 points and denominators 7-101; half the parameters increase."""
    r = rng.randint(0, 3)
    ranks = tuple(rng.randint(1, 3) for _ in range(r + 1))
    k = rng.randint(0, 2)
    den = rng.randint(7, 101)

    def datum(n):
        if not k:
            return WeightDatum.empty(0)
        return full_flag(
            [sorted(Fraction(c, den) for c in rng.sample(range(1, den), n)) for _ in range(k)]
        )

    weights = tuple(datum(n) for n in ranks)
    if rng.random() < 0.5:
        alpha = [Fraction(0)]
        for _ in range(r):
            alpha.append(alpha[-1] + Fraction(rng.randint(1, 12), rng.randint(1, 3)))
    else:
        alpha = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(r + 1)]
    degrees = tuple(rng.randint(-6, 6) for _ in range(r + 1))
    return ChainType(ranks, degrees, weights), tuple(alpha)


def test_conditions_match_scalar_reference():
    rng = random.Random(20260)
    verdicts = set()
    for _ in range(3000):
        tau, alpha = random_condition_input(rng)
        got = necessary_conditions(tau, alpha)
        assert got == scalar_conditions(tau, alpha), (tau, alpha)
        verdicts.add((got, all(b > a for a, b in zip(alpha, alpha[1:]))))
    assert len(verdicts) == 4  # both answers, increasing or not


# ---------------------------------------------------------------------------
# degree boxes vs brute force


def brute_force_window(n_vec, total, alpha, weights, window=8):
    out = []
    r = len(n_vec) - 1
    for head in itertools.product(range(-window, window + 1), repeat=r):
        last = total - sum(head)
        if abs(last) > window:
            continue
        dvec = tuple(head) + (last,)
        tau = ChainType(n_vec, dvec, weights)
        if scalar_conditions(tau, alpha):
            out.append(dvec)
    return sorted(out)


def box_cases():
    ws4 = generate_generic_weights(4, 4)
    cases = []
    e1 = WeightDatum.trivial_flags(1, 1)
    cases.append(((1, 1), 0, alpha_f(0, 2), (e1, e1)))
    cases.append(((1, 1), 1, alpha_f(0, 3), (e1, e1)))
    d1 = full_flag([[ws4[0]]])
    d2 = full_flag([[ws4[1]]])
    cases.append(((1, 1), 0, alpha_f(0, 2), (d1, d2)))
    d12 = full_flag([[ws4[0], ws4[2]]])
    cases.append(((2, 1), 1, alpha_f(0, 2), (d12, d2)))
    cases.append(((1, 2), -1, alpha_f(0, 4), (d2, d12)))
    e2 = WeightDatum.trivial_flags(1, 2)
    cases.append(((1, 1, 1), 0, alpha_f(0, 2, 4), (e2, e2, e2)))
    dd1 = full_flag([[ws4[0]], [ws4[1]]])
    dd2 = full_flag([[ws4[2]], [ws4[3]]])
    cases.append(((1, 1), 0, alpha_f(0, 1), (dd1, dd2)))
    return cases


def test_box_matches_brute_force():
    for n_vec, total, alpha, weights in box_cases():
        got = enumerate_degree_vectors(n_vec, total, alpha, weights)
        want = brute_force_window(n_vec, total, alpha, weights)
        assert sorted(got) == want, (n_vec, total)
        assert all(max(abs(x) for x in v) <= 8 for v in got)


def test_box_rank0():
    tau_weights = (WeightDatum.empty(0),)
    assert enumerate_degree_vectors((2,), 5, alpha_f(0), tau_weights) == [(5,)]


def test_box_example_contents():
    e1 = WeightDatum.trivial_flags(1, 1)
    got = enumerate_degree_vectors((1, 1), 0, alpha_f(0, 2), (e1, e1))
    assert (0, 0) in got
    assert (1, -1) in got
    assert (-2, 2) not in got  # fails the equal-rank gap condition


def test_box_returns_fresh_list():
    e1 = WeightDatum.trivial_flags(1, 1)
    got = enumerate_degree_vectors((1, 1), 0, alpha_f(0, 2), (e1, e1))
    want = list(got)
    got.append((99, -99))
    assert enumerate_degree_vectors([1, 1], 0, alpha_f(0, 2), [e1, e1]) == want
    profiles = enumerate_gap_profiles((1, 1), alpha_f(0, 2), (e1, e1))
    want = list(profiles)
    profiles.clear()
    assert enumerate_gap_profiles((1, 1), alpha_f(0, 2), (e1, e1)) == want


def test_box_unbounded_for_degenerate_parameter():
    # two equal stability entries at genus >= 2 leave the box unbounded
    e1 = WeightDatum.trivial_flags(1, 1)
    with pytest.raises(UnboundedSearch):
        enumerate_degree_vectors((1, 2), 0, alpha_f(0, 0), (e1, full_flag1()))


def full_flag1():
    ws = generate_generic_weights(2, 2)
    return full_flag([[ws[0], ws[1]]])


def test_gap_profiles_shift_invariant():
    ws = generate_generic_weights(2, 2)
    d1 = full_flag([[ws[0]]])
    d2 = full_flag([[ws[1]]])
    profiles = enumerate_gap_profiles((1, 1), alpha_f(0, 2), (d1, d2))
    assert profiles
    assert all(p[0] == 0 for p in profiles)
    # profiles plus a constant shift pass the conditions at any total
    for p in profiles:
        for c in (-3, 0, 5):
            tau = ChainType((1, 1), (p[0] + c, p[1] + c), (d1, d2))
            assert necessary_conditions(tau, alpha_f(0, 2))


# ---------------------------------------------------------------------------
# filtration-type enumeration


def product_filtration_types(tau, alpha, window=None):
    """Reference enumeration of filtration types: every ordered tuple of at
    least two interval-support rank profiles summing to tau's ranks, every
    weight split, then the product of the parts' boxed degree vectors, kept
    when the degrees sum to tau's."""
    alpha = fracs(alpha)
    mu = slope(tau, alpha)

    def profile_tuples(remaining):
        if not any(remaining):
            yield ()
            return
        for cand in itertools.product(*[range(v + 1) for v in remaining]):
            supp = [i for i, v in enumerate(cand) if v]
            if supp and supp[-1] - supp[0] + 1 == len(supp):
                rest = tuple(v - c for v, c in zip(remaining, cand))
                for tail in profile_tuples(rest):
                    yield (cand,) + tail

    for profiles in profile_tuples(tau.ranks):
        if len(profiles) < 2:
            continue
        for weight_parts in index_splits(tau.weights, profiles):
            choices = []
            for prof, wparts in zip(profiles, weight_parts):
                if window is None:
                    total = (
                        mu * sum(prof)
                        - sum(n * a for n, a in zip(prof, alpha))
                        - sum(weight_sum(w) for w in wparts)
                    )
                    totals = [int(total)] if total.denominator == 1 else []
                else:
                    totals = range(-window, window + 1)
                block = [i for i, v in enumerate(prof) if v]
                cands = []
                for t in totals:
                    for dvec in enumerate_degree_vectors(
                        [prof[i] for i in block], t,
                        [alpha[i] for i in block], [wparts[i] for i in block],
                    ):
                        degrees = [0] * len(prof)
                        for i, d in zip(block, dvec):
                            degrees[i] = d
                        cands.append(ChainType(prof, degrees, wparts))
                choices.append(cands)
            for parts in itertools.product(*choices):
                if all(
                    sum(p.degrees[i] for p in parts) == d
                    for i, d in enumerate(tau.degrees)
                ):
                    yield parts


def random_filtration_input(rng):
    """A type of length 0-2 and total rank 1-3, possibly zero-padded, at 0-2
    marked points with generic weights, and a strictly increasing parameter."""
    r = rng.randint(0, 2)
    while True:
        ranks = [rng.randint(0, 3) for _ in range(r + 1)]
        if 1 <= sum(ranks) <= 3:
            break
    k = rng.randint(0, 2)
    flat = generate_generic_weights(sum(ranks) * k, sum(ranks)) if k else []
    weights, offset = [], 0
    for n in ranks:
        points = [
            sorted(flat[p * sum(ranks) + offset : p * sum(ranks) + offset + n])
            for p in range(k)
        ]
        weights.append(full_flag(points))
        offset += n
    degrees = [rng.randint(-3, 3) if n else 0 for n in ranks]
    tau = ChainType(ranks, degrees, weights)
    alpha, a = [], 0
    for _ in ranks:
        alpha.append(Fraction(a))
        a += rng.randint(1, 4) + Fraction(rng.randint(0, 3), 4)
    return tau, tuple(alpha)


def test_filtration_types_match_product_reference():
    from parahiggs.walls import choose_ray, wall_positions

    rng = random.Random(20260)
    engine = ChainEngine(CurveData(0, 0))
    seen = Counter()  # number of parts over the reference's types
    for _ in range(120):
        tau, alpha = random_filtration_input(rng)
        if tau.length == 0 or 0 in tau.ranks:
            params = [alpha]
        else:
            ray = choose_ray(tau, alpha)
            walls = wall_positions(engine, tau, ray, Fraction(0), ray.t_max)
            params = [ray.at(t) for t in walls[:6]]
        for at in params:
            got = Counter(engine.filtration_types(tau, at))
            want = Counter(product_filtration_types(tau, at))
            assert got == want, (tau, at)
            for parts, n in want.items():
                seen[len(parts)] += n
    assert seen[2] and seen[3]


def hn_types(tau, alpha, window=None, order_at=None):
    """Filtration types with strictly decreasing slopes at order_at."""
    order_at = alpha if order_at is None else order_at
    return [
        parts
        for parts in product_filtration_types(tau, alpha, window)
        if slopes_decrease(parts, order_at)
    ]


def test_hn_types_rank_one_empty():
    e = WeightDatum.empty(0)
    tau = ChainType((1,), (0,), (e,))
    assert hn_types(tau, alpha_f(0), window=4) == []


def test_hn_types_bun2_classical():
    e = WeightDatum.empty(0)
    tau = ChainType((2,), (1,), (e,))
    types = hn_types(tau, alpha_f(0), window=5)
    # classical strata: line-bundle pairs (d1, d2), d1 + d2 = 1, d1 > 1/2
    seen = sorted(t[0].degrees[0] for t in types)
    assert seen == [1, 2, 3, 4, 5]
    for t in types:
        assert len(t) == 2
        assert t[0].degrees[0] + t[1].degrees[0] == 1
        assert t[0].degrees[0] > Fraction(1, 2)


def test_hn_types_wall_filter():
    ws = generate_generic_weights(2, 2)
    a, b = ws
    d1 = full_flag([[a]])
    d2 = full_flag([[b]])
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    alpha = alpha_f(0, 2)
    from parahiggs.walls import Ray, wall_positions

    ray = Ray(alpha, (0, 1), Fraction(6))
    eng = ChainEngine(CurveData(2, 1))
    walls = wall_positions(eng, tau, ray, Fraction(0), Fraction(6))
    # genuine wall: the index-0 truncation sub-line reaches the total slope
    t_true = Fraction(3) + a - b - 2
    assert t_true in walls
    on_wall = hn_types(tau, ray.at(t_true), order_at=ray.at(t_true + 1))
    assert on_wall
    off_wall = hn_types(
        tau, ray.at(t_true + Fraction(1, 7)), order_at=ray.at(t_true + 1)
    )
    assert off_wall == []
    for parts in on_wall:
        slopes = [slope(p, ray.at(t_true)) for p in parts]
        assert len(set(slopes)) == 1
        ordered = [slope(p, ray.at(t_true + 1)) for p in parts]
        assert ordered == sorted(ordered, reverse=True)
