"""Weight data, slopes, duality, genericity and weight splitting."""

import itertools
import math
import operator
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs import parabolic
from parahiggs.errors import BudgetExceeded, InvalidFlagType, RankMismatch
from parahiggs.parabolic import (
    GENERICITY_BUDGET,
    ChainType,
    WeightDatum,
    dual_weight_datum,
    enumerate_weight_splits,
    generate_generic_weights,
    genericity_check,
    par_slope,
    pardeg,
    require_full_flags,
)


def datum(*points):
    return WeightDatum(tuple(tuple(point) for point in points))


def test_pardeg_no_points():
    assert Fraction(*pardeg(3, WeightDatum.empty(0))) == 3


def test_pardeg_one_point():
    d = datum([(Fraction(1, 4), 1), (Fraction(3, 4), 1)])
    assert Fraction(*pardeg(0, d)) == 1


def test_pardeg_two_points_multiplicity():
    d = datum([(Fraction(1, 5), 2)], [(Fraction(1, 5), 2)])
    assert Fraction(*pardeg(-2, d)) == Fraction(-6, 5)


def test_weight_validation():
    with pytest.raises(ValueError):
        datum([(Fraction(3, 2), 1)])
    with pytest.raises(ValueError):
        datum([(Fraction(1, 2), 1), (Fraction(1, 2), 1)])
    with pytest.raises(RankMismatch):
        datum([(Fraction(1, 2), 1)], [(Fraction(1, 3), 2)])


def test_slope_rank_one():
    tau = ChainType((1,), (5,), (WeightDatum.empty(0),))
    assert Fraction(*par_slope(tau, (0,))) == 5


def test_slope_two_steps():
    tau = ChainType((1, 1), (0, 0), (WeightDatum.empty(0), WeightDatum.empty(0)))
    assert Fraction(*par_slope(tau, (0, 2))) == 1


@settings(max_examples=50, deadline=None)
@given(
    n1=st.integers(1, 3),
    n2=st.integers(1, 3),
    d1=st.integers(-5, 5),
    d2=st.integers(-5, 5),
    a=st.integers(-2, 2),
)
def test_slope_convexity(n1, n2, d1, d2, a):
    """Concatenation slope is the rank-weighted convex combination."""
    alpha = (Fraction(0), Fraction(a))
    e = WeightDatum.empty(0)
    t1 = ChainType((n1, n2), (d1, d2), (e, e))
    sub = ChainType((n1, 0), (d1, 0), (e, e))
    quot = ChainType((0, n2), (0, d2), (e, e))
    mu = Fraction(*par_slope(t1, alpha))
    mu1 = Fraction(*par_slope(sub, alpha))
    mu2 = Fraction(*par_slope(quot, alpha))
    assert mu == (n1 * mu1 + n2 * mu2) / (n1 + n2)


def test_dual_symmetric_pair():
    d = datum([(Fraction(1, 4), 1), (Fraction(3, 4), 1)])
    assert dual_weight_datum(d) == d


def test_dual_single():
    d = datum([(Fraction(1, 3), 2)])
    assert dual_weight_datum(d) == datum([(Fraction(2, 3), 2)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_involution_and_multiset(data):
    k = data.draw(st.integers(1, 2))
    count = data.draw(st.integers(1, 3))
    points = []
    for _ in range(k):
        ws = sorted(
            data.draw(
                st.sets(
                    st.fractions(
                        min_value=0, max_value=Fraction(19, 20), max_denominator=20
                    ),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        points.append([(w, 1) for w in ws])
    d = datum(*points)
    dd = dual_weight_datum(dual_weight_datum(d))
    assert dd == d
    for point, dual_point in zip(d.points, dual_weight_datum(d).points):
        assert sum(m for _, m in point) == sum(m for _, m in dual_point)
        orig = sorted(w for w, _ in point)
        dual = sorted(
            (1 - w) if w != 0 else Fraction(0) for w, _ in point
        )
        assert sorted(w for w, _ in dual_point) == dual
        assert len(orig) == len(dual)


def test_genericity_half():
    assert genericity_check([Fraction(1, 2)], 2) is False


def test_genericity_small_relations():
    # -2*(1/7) + 1*(2/7) = 0 is already an integral relation within the bound
    assert genericity_check([Fraction(1, 7), Fraction(2, 7)], 2) is False
    assert genericity_check([Fraction(1, 7), Fraction(2, 7)], 3) is False
    # base-3 digits over a large prime admit no bounded relation
    assert genericity_check([Fraction(3, 29), Fraction(9, 29)], 2) is True


def test_genericity_budget():
    # 14 weights at N = 6 need a table of 13^7 > GENERICITY_BUDGET residues
    assert 13 ** 7 > GENERICITY_BUDGET
    with pytest.raises(BudgetExceeded):
        genericity_check([Fraction(1, 101)] * 14, 6)


def test_genericity_twelve_weights_within_budget():
    # the table holds 5^6 residues, where brute force would need 5^12 vectors
    ws = generate_generic_weights(12, 2)
    assert genericity_check(ws, 2) is True
    # the relation w_0 + (1 - w_0) = 1 spans both halves
    assert genericity_check(ws[:11] + [1 - ws[0]], 2) is False


def brute_force_generic(ws, N):
    """Every nonzero vector in [-N, N]^count, summed over the product of the
    denominators."""
    D = prod(w.denominator for w in ws)
    nums = [w.numerator * (D // w.denominator) for w in ws]
    for combo in itertools.product(range(-N, N + 1), repeat=len(ws)):
        if any(combo) and sum(map(operator.mul, combo, nums)) % D == 0:
            return False
    return True


def test_genericity_matches_brute_force():
    rng = random.Random(7)
    denominators = [1, 2, 3, 7, 12, 29, 101, 2**31 - 1]
    answers = set()
    for _ in range(600):
        count, N = rng.randint(1, 6), rng.randint(1, 3)
        ws = [Fraction(rng.randrange(q), q) for q in rng.choices(denominators, k=count)]
        if rng.random() < 0.3:
            ws = [rng.choice(ws) for _ in ws]
        answer = genericity_check(ws, N)
        assert answer is brute_force_generic(ws, N), (ws, N)
        answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("right", [
    (Fraction(1, 3), Fraction(2, 3)),     # needs the last weight
    (Fraction(1, 2), Fraction(1, 1009)),  # 2 * (1/2) = 1, without it
    (Fraction(1, 1009), Fraction(1, 2)),  # the last weight alone
])
def test_genericity_finds_a_relation_only_the_right_half_reaches(right):
    """The right half is streamed against the left table, not tabulated
    whole: a relation among the right-half weights alone is found, with no
    relation in the left half and none through a nonzero left vector."""
    ws = [Fraction(1, 101), Fraction(10, 101), *right]
    assert brute_force_generic(ws[:2], 2)
    assert all(
        sum(map(operator.mul, combo, ws)).denominator != 1
        for combo in itertools.product(range(-2, 3), repeat=4)
        if any(combo[:2])
    )
    assert genericity_check(ws, 2) is brute_force_generic(ws, 2) is False


def test_genericity_streamed_right_half_matches_brute_force():
    """Random weights over a large prime with, in some draws, a planted
    relation w + (1 - w) = 1 between two right-half weights, the last one
    or not; the check agrees with brute force."""
    rng = random.Random(2027)
    P = 2**31 - 1
    answers = set()
    for _ in range(120):
        count, N = rng.randint(2, 6), rng.randint(1, 2)
        ws = [Fraction(rng.randrange(1, P), P) for _ in range(count)]
        half = (count + 1) // 2
        if count - half >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(half, count), 2)
            ws[j] = 1 - ws[i]
        answer = genericity_check(ws, N)
        assert answer is brute_force_generic(ws, N), (ws, N)
        answers.add(answer)
    assert answers == {True, False}


def superincreasing(rng, count, N):
    """count values, each above N times the sum of the ones before it."""
    rs, total = [], 0
    for _ in range(count):
        rs.append(N * total + 1 + rng.randrange(3))
        total += rs[-1]
    return rs


def test_balanced_digit_certificate_matches_brute_force():
    """Every input the linear certificate accepts is generic by brute force,
    and genericity_check answers as brute force does either way.  Drawn:
    superincreasing residues on random sides of Q/2, with N times their sum
    below Q (accepted) or reaching it; the same with a zero or a repeated
    residue put in; and random residues, generic or not."""
    rng = random.Random(31)
    seen = {"accepted": 0, "declined generic": 0, "declined relation": 0}
    for _ in range(400):
        count, N = rng.randint(1, 5), rng.randint(1, 3)
        rs = superincreasing(rng, count, N)
        kind = rng.randrange(4)
        if kind == 0:
            Q = N * sum(rs) + 1 + rng.randrange(50)
        elif kind == 1:
            Q = rng.randint(max(rs) + 1, max(max(rs) + 1, N * sum(rs)))
        elif kind == 2:
            Q = N * sum(rs) + 1 + rng.randrange(50)
            rs[rng.randrange(count)] = rng.choice([0, rs[0]])
        else:
            Q = rng.choice([29, 101, 2**31 - 1])
            rs = [rng.randrange(1, Q) for _ in rs]
        residues = [r if rng.random() < 0.5 else (Q - r) % Q for r in rs]
        rng.shuffle(residues)
        ws = [Fraction(a, Q) for a in residues]
        generic = brute_force_generic(ws, N)
        accepted = parabolic._balanced_digits(residues, N, Q)
        if accepted:
            assert generic, (residues, N, Q)
            seen["accepted"] += 1
        else:
            seen["declined generic" if generic else "declined relation"] += 1
        assert genericity_check(ws, N) is generic, (residues, N, Q)
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("residues, N, Q", [
    ([0, 3, 9], 2, 29),           # a zero weight
    ([3, 3, 9], 2, 29),           # a repeated residue
    ([3, 26, 9], 2, 29),          # 3 and 29 - 3 share r = 3
    ([5, 9, 31], 2, 101),         # 9 <= 2 * 5: not superincreasing
    ([1, 3, 9, 27], 2, 79),       # 2 * (1 + 3 + 9 + 27) = 80 >= 79
])
def test_balanced_digit_certificate_declines(residues, N, Q):
    assert parabolic._balanced_digits(residues, N, Q) is False
    ws = [Fraction(a, Q) for a in residues]
    assert genericity_check(ws, N) is brute_force_generic(ws, N)


def test_generated_weights_certified_by_balanced_digits():
    """generate_generic_weights draws B^j over a prime above N * sum B^j
    with B = N + 1, so 20 weights at bound 2 are certified without the
    5^10-residue table that the budget forbids."""
    ws = generate_generic_weights(20, 2)
    Q = ws[0].denominator
    assert parabolic._balanced_digits([w.numerator for w in ws], 2, Q)
    assert 5 ** 10 > GENERICITY_BUDGET
    assert genericity_check(ws, 2) is True
    with pytest.raises(BudgetExceeded):
        genericity_check(ws[:19] + [1 - ws[0]], 2)


def test_genericity_inherited_by_sub_multisets():
    """Weights generic at bound N stay generic on every sub-multiset at every
    bound N' <= N, so one certificate at the entry covers every sub-type."""
    rng = random.Random(11)
    denominators = [5, 7, 12, 29, 101, 2**31 - 1]
    certified = 0
    for _ in range(150):
        count, N = rng.randint(1, 4), rng.randint(1, 2)
        ws = [Fraction(rng.randrange(q), q) for q in rng.choices(denominators, k=count)]
        if not brute_force_generic(ws, N):
            continue
        certified += 1
        for size in range(1, count + 1):
            for sub in itertools.combinations(ws, size):
                for bound in range(1, N + 1):
                    assert brute_force_generic(list(sub), bound), (sub, bound)
                    assert genericity_check(list(sub), bound) is True, (sub, bound)
    assert certified >= 50


def trial_division_next_prime(n):
    """The least prime above n, by trial division up to its square root."""
    candidate = max(n + 1, 2)
    while any(candidate % p == 0 for p in range(2, math.isqrt(candidate) + 1)):
        candidate += 1
    return candidate


def test_next_prime_matches_trial_division():
    """Every n below 10,000 and every generate_generic_weights prime search
    below 2^32 finds the prime trial division finds."""
    generated = (
        N * sum((N + 1) ** j for j in range(1, count + 1))
        for N in range(1, 6)
        for count in range(1, 40)
    )
    for n in itertools.chain(range(-2, 10_000), (m for m in generated if m < 2 ** 32)):
        assert parabolic._next_prime(n) == trial_division_next_prime(n), n


def test_strong_pseudoprimes_to_leading_bases_are_composite():
    """Strong pseudoprimes to the bases 2..7, 2..23 and 2..37 are rejected
    by a later base."""
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not parabolic._is_prime(n)


def test_generate_generic_weights_examples():
    assert generate_generic_weights(1, 2) == [Fraction(3, 7)]
    assert generate_generic_weights(2, 2) == [Fraction(3, 29), Fraction(9, 29)]


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 4), bound=st.integers(1, 3))
def test_generated_weights_pass_their_bound(count, bound):
    ws = generate_generic_weights(count, bound)
    assert ws == sorted(ws)
    assert all(0 < w < 1 for w in ws)
    assert genericity_check(ws, bound)


def test_split_rank_two():
    a, b = Fraction(1, 5), Fraction(2, 5)
    d = datum([(a, 1), (b, 1)])
    splits = enumerate_weight_splits(d, (1, 1))
    assert len(splits) == 2
    parts = {tuple(p.points[0] for p in split) for split in splits}
    assert parts == {(((a, 1),), ((b, 1),)), (((b, 1),), ((a, 1),))}


def test_split_identity():
    d = datum([(Fraction(1, 5), 1), (Fraction(2, 5), 1)])
    splits = enumerate_weight_splits(d, (2,))
    assert splits == [(d,)]


def test_split_parts_are_built_once_per_call():
    ws = generate_generic_weights(3, 3)
    d = datum([(w, 1) for w in ws])
    splits = enumerate_weight_splits(d, (0, 3))
    assert [split[1] for split in splits] == [d] and splits[0][1] is d
    parts = [part for split in enumerate_weight_splits(d, (1, 1, 1)) for part in split]
    assert len(parts) == 18 and len({id(part) for part in parts}) == len(set(parts)) == 3


@pytest.mark.parametrize("part_ranks", [(1, 2), (2, 1), (1, 1, 1), (0, 3), (3,)])
def test_position_keyed_parts_equal_parts_built_from_their_weights(part_ranks):
    """Parts are built from weight positions; each equals, and hashes as,
    the WeightDatum built from fresh copies of its weights, the common
    denominator of a part being its own, not the datum's."""
    d = datum(
        [(Fraction(1, 6), 1), (Fraction(1, 3), 1), (Fraction(1, 2), 1)],
        [(Fraction(1, 10), 1), (Fraction(1, 5), 1), (Fraction(7, 10), 1)],
    )
    for split in enumerate_weight_splits(d, part_ranks):
        for part in split:
            copy = datum(*[
                [(Fraction(w.numerator, w.denominator), m) for w, m in point]
                for point in part.points
            ])
            assert part == copy and hash(part) == hash(copy)
            assert (part.den, part.nums, part.weight_num) == (
                copy.den, copy.nums, copy.weight_num)


def test_full_flag_check_names_the_point():
    a, b, c = Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)
    full = datum([(a, 1), (b, 1), (c, 1)])
    require_full_flags([full, WeightDatum.empty(1)])
    with pytest.raises(InvalidFlagType, match=r"point 1 has flag type \(1, 2\)"):
        require_full_flags([full, datum([(a, 1), (b, 1), (c, 1)], [(a, 1), (b, 2)])])


def test_split_multinomial_count():
    ws = generate_generic_weights(3, 3)
    d = datum([(w, 1) for w in ws])
    assert len(enumerate_weight_splits(d, (1, 2))) == 3
    two_points = datum([(w, 1) for w in ws], [(w, 1) for w in ws])
    # independent choices at each point
    assert len(enumerate_weight_splits(two_points, (1, 2))) == 9
    assert len(enumerate_weight_splits(d, (1, 1, 1))) == factorial(3)



def reference_splits(d, part_ranks):
    """Per point, the permutations of its entries cut into blocks of the part
    ranks, kept when each block increases; lexicographic in the permutation
    order, then a product over the points."""
    cuts = list(itertools.accumulate(part_ranks, initial=0))
    per_point = []
    for point in d.points:
        cut = [tuple(perm[a:b] for a, b in zip(cuts, cuts[1:]))
               for perm in itertools.permutations(point)]
        per_point.append([blocks for blocks in cut
                          if all(list(b) == sorted(b) for b in blocks)])
    return [
        tuple(WeightDatum(tuple(split[j] for split in combo))
              for j in range(len(part_ranks)))
        for combo in itertools.product(*per_point)
    ]


@pytest.mark.parametrize("part_ranks", [(1, 2), (2, 1), (1, 1, 1), (0, 3)])
def test_splits_match_an_itertools_reference_in_order(part_ranks):
    ws = generate_generic_weights(6, 2)
    d = datum([(w, 1) for w in ws[:3]], [(w, 1) for w in ws[3:]])
    assert enumerate_weight_splits(d, part_ranks) == reference_splits(d, part_ranks)

@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_invariants(data):
    count = data.draw(st.integers(2, 4))
    ws = generate_generic_weights(count, 2)
    d = datum([(w, 1) for w in ws])
    split_sizes = []
    left = count
    while left > 0:
        s = data.draw(st.integers(1, left))
        split_sizes.append(s)
        left -= s
    splits = enumerate_weight_splits(d, tuple(split_sizes))
    total = Fraction(*pardeg(0, d))
    for split in splits:
        # each part is a valid datum of its rank, and pardeg is additive
        assert [p.rank for p in split] == split_sizes
        assert sum(Fraction(*pardeg(0, p)) for p in split) == total


def test_split_returns_fresh_list():
    ws = generate_generic_weights(3, 3)
    d = datum([(w, 1) for w in ws])
    first = enumerate_weight_splits(d, (1, 2))
    want = list(first)
    first.append("extra")
    first[0] = None
    assert enumerate_weight_splits(d, [1, 2]) == want


def test_split_rank_mismatch():
    d = datum([(Fraction(1, 3), 1)])
    with pytest.raises(RankMismatch):
        enumerate_weight_splits(d, (1, 1))


def test_pardeg_strict_bounds():
    """d < pardeg < d + n|D| when every point carries positive weights."""
    ws = generate_generic_weights(4, 2)
    d = datum([(w, 1) for w in ws[:2]], [(w, 1) for w in ws[2:]])
    val = Fraction(*pardeg(7, d))
    assert 7 < val < 7 + 2 * 2


def test_chain_type_zero_rank_entries():
    e = WeightDatum.empty(1)
    tau = ChainType((1, 0), (3, 0), (datum([(Fraction(1, 3), 1)]), e))
    assert tau.support_blocks() == [(0,)]
    with pytest.raises(ValueError):
        ChainType((1, 0), (3, 1), (datum([(Fraction(1, 3), 1)]), e))
