"""Engine dispatch: memo purity, stratification bookkeeping, support blocks."""

import random
from fractions import Fraction
from math import gcd

import pytest

from parahiggs import engine as engine_module
from parahiggs.errors import EngineError, WallHit
from parahiggs.higgs import HiggsProblem, higgs_computation
from parahiggs.motive import CurveData, ring, specialize_count
from parahiggs.parabolic import (
    ChainType,
    WeightDatum,
    generate_generic_weights,
)
from parahiggs.engine import ChainEngine, chain_key_str
from parahiggs.stacks import pbundle_stack_class
from parahiggs.chains import (
    compositions,
    ext_exponent,
    slopes_decrease,
)

from fraction_reference import weight_sum
from test_chains import index_splits, product_filtration_types


ZETA = (1, 0, 0, 0, 4)


def gen_pair():
    ws = generate_generic_weights(2, 2)
    return ws, WeightDatum.full_flags([[ws[0]]]), WeightDatum.full_flags([[ws[1]]])


def test_rank1_chain_every_alpha():
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    R = ring(2)
    d1 = WeightDatum.full_flags([[Fraction(2, 3)]])
    tau = ChainType((1,), (4,), (d1,))
    for a in (Fraction(0), Fraction(5, 3), Fraction(-7)):
        assert eng.chain_class(tau, (a,)) == R.Pic / (R.L - 1)


def test_rank1_hecke_base_case():
    """Length-one rank-one chains count a modification divisor on the curve."""
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    R = ring(2)
    ws, d1, d2 = gen_pair()
    a, b = ws
    # upper weight below lower: no forced vanishing, length d0 - d1 + 1
    tau = ChainType((1, 1), (0, -2), (d2, d1))  # weights b > a reversed: w1 = a < w0 = b
    cls = eng.chain_class(tau, (Fraction(0), Fraction(4)))
    assert cls == R.Pic / (R.L - 1) * R.C(3)
    # upper weight above lower: one forced vanishing point
    tau2 = ChainType((1, 1), (0, -2), (d1, d2))
    cls2 = eng.chain_class(tau2, (Fraction(0), Fraction(4)))
    assert cls2 == R.Pic / (R.L - 1) * R.C(2)


def test_memo_purity_across_orders():
    curve = CurveData(2, 1)
    ws, d1, d2 = gen_pair()
    alpha = (Fraction(0), Fraction(2))
    grid = [(d0, dd) for d0 in range(-2, 3) for dd in range(-2, 3)]
    eng1 = ChainEngine(curve)
    first = {
        pair: eng1.chain_class(ChainType((1, 1), pair, (d1, d2)), alpha)
        for pair in grid
    }
    eng2 = ChainEngine(curve)
    second = {
        pair: eng2.chain_class(ChainType((1, 1), pair, (d1, d2)), alpha)
        for pair in reversed(grid)
    }
    assert first == second
    # recomputation with a warm memo is identical
    for pair in grid:
        assert eng1.chain_class(ChainType((1, 1), pair, (d1, d2)), alpha) == first[pair]


def test_alpha_shift_invariance():
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    tau = ChainType((1, 1), (1, 0), (d1, d2))
    one = eng.chain_class(tau, (Fraction(0), Fraction(2)))
    two = eng.chain_class(tau, (Fraction(7), Fraction(9)))
    assert one == two
    assert eng.stats["memo_hits"] >= 1


def test_stratification_identity_rank2():
    """Ambient stack equals semistable part plus all filtration strata.

    Checked in the counting realization where the unstable tail is summed
    term by term far past the truncation scale.
    """
    curve = CurveData(2, 1, ZETA)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    full = WeightDatum.full_flags([[ws[0], ws[1]]])
    tau = ChainType((2,), (1,), (full,))
    alpha = (Fraction(0),)
    ss = eng.chain_class(tau, alpha)
    ambient = pbundle_stack_class(2, 1, full, curve)
    total = specialize_count(ss, curve, 2)
    for parts in product_filtration_types(tau, alpha, window=40):
        if not slopes_decrease(parts, alpha):
            continue
        stratum = eng.R.L_pow(ext_exponent(parts, 2, 1))
        for p in parts:
            stratum = stratum * eng.chain_class(p, alpha)
        total += specialize_count(stratum, curve, 2)
    want = specialize_count(ambient, curve, 2)
    assert abs(total - want) < Fraction(1, 10 ** 8)


def test_zero_padded_single_block():
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    R = ring(2)
    padded = ChainType((0, 1), (0, 3), (WeightDatum.empty(1), d1))
    assert eng.chain_class(padded, (Fraction(0), Fraction(2))) == R.Pic / (R.L - 1)


def test_zero_padded_disconnected_blocks():
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    R = ring(2)
    e = WeightDatum.empty(1)
    tau = ChainType((1, 0, 1), (0, 0, 0), (d1, e, d2))
    alpha = (Fraction(0), Fraction(2), Fraction(4))
    # generic: the two line bundles cannot share the shifted slope
    assert eng.chain_class(tau, alpha).is_zero()
    # on the block wall the product of the line stacks survives
    a, b = ws
    wall_alpha = (Fraction(0), Fraction(2), a - b)
    assert eng.chain_class(tau, wall_alpha) == (R.Pic / (R.L - 1)) ** 2


def test_wall_hit_at_even_degree_no_points():
    curve = CurveData(2, 0, ZETA)
    eng = ChainEngine(curve)
    empty = WeightDatum.empty(0)
    tau = ChainType((1, 1), (2, 0), (empty, empty))
    with pytest.raises(WallHit):
        eng.chain_class(tau, (Fraction(0), Fraction(2)))


def test_cache_key_round_trip():
    curve = CurveData(2, 1, ZETA)
    ws, d1, d2 = gen_pair()
    tau = ChainType((1, 1), (1, 0), (d1, d2))
    alpha = (Fraction(0), Fraction(2))
    eng = ChainEngine(curve)
    val = eng.chain_class(tau, alpha)
    entries = dict(eng.new_cache_entries)
    assert entries
    # a fresh engine seeded with the dumped cache returns identical classes
    eng2 = ChainEngine(curve, seed_cache=entries)
    assert eng2.chain_class(tau, alpha) == val
    key = chain_key_str(tau, alpha, curve)
    assert key in entries


def test_new_cache_entries_hold_computed_classes_only():
    """Cache records are the memo entries the engine computed: a class read
    from the seed cache is not written back, one recomputed over a corrupt
    record is."""
    curve = CurveData(2, 1)
    datum = WeightDatum.full_flags([[Fraction(2, 3)]])
    taus = [ChainType((1,), (d,), (datum,)) for d in (0, 1, 2)]
    alpha = (Fraction(0),)
    keys = [chain_key_str(tau, alpha, curve) for tau in taus]
    cold = ChainEngine(curve)
    vals = [str(cold.chain_class(tau, alpha)) for tau in taus]
    assert cold.new_cache_entries == dict(zip(keys, vals))
    seeded = ChainEngine(curve, seed_cache={keys[0]: vals[0], keys[2]: "Pic +* L"})
    for tau in taus:
        seeded.chain_class(tau, alpha)
    assert seeded.stats["seed_cache_hits"] == 1
    assert seeded.stats["cache_records_skipped"] == 1
    assert seeded.new_cache_entries == {keys[1]: vals[1], keys[2]: vals[2]}


def test_cache_key_bytes_pinned():
    """Memo-cache keys print the weights and the shifted parameter as
    rationals, so caches written before the integer lattice stay valid."""
    curve = CurveData(2, 1)
    data = tuple(
        WeightDatum.full_flags([[w]])
        for w in (Fraction(1, 7), Fraction(3, 11), Fraction(5, 13))
    )
    tau = ChainType((1, 1, 1), (2, 0, -1), data)
    key = "g=2#k=1#n=1,1,1#d=2,0,-1#w=1/7:1;3/11:1;5/13:1#a=0,5/2,17/3"
    assert chain_key_str(tau, (0, Fraction(5, 2), Fraction(17, 3)), curve) == key
    eng = ChainEngine(curve)
    val = eng.chain_class(tau, (Fraction(1, 2), Fraction(3), Fraction(37, 6)))
    assert key in eng.new_cache_entries
    seeded = ChainEngine(curve, seed_cache={key: str(val)})
    assert seeded.chain_class(tau, (0, Fraction(5, 2), Fraction(17, 3))) == val
    assert seeded.stats["seed_cache_hits"] == 1


def test_resummation_twist_periodicity_validated():
    """The resummation's premise: a part class equals the class of its twist
    by the period, here for the rank-one parts of a rank-2, one-point type."""
    curve = CurveData(2, 1)
    ws, d1, d2 = gen_pair()
    full = WeightDatum.full_flags([[ws[0], ws[1]]])
    eng = ChainEngine(curve)
    alpha = (Fraction(0),)
    cls = eng.chain_class(ChainType((2,), (1,), (full,)), alpha)
    assert not cls.is_zero()
    period = 1  # lcm of the part ranks (1, 1)
    for weight_parts in eng.weight_splits((full,), [(1,), (1,)]):
        for wp in weight_parts:
            for c in range(-2, 3):
                part = eng.chain_class(ChainType((1,), (c,), wp), alpha)
                twist = eng.chain_class(ChainType((1,), (c + period,), wp), alpha)
                assert not part.is_zero()
                assert part == twist


def test_rank111_grid_matches_direct_oracle():
    """Length-two chains of line bundles against the two-divisor classification."""
    import itertools

    from parahiggs.oracles import rank111_chain_oracle

    curve = CurveData(2, 1)
    ws = generate_generic_weights(3, 3)
    data = tuple(WeightDatum.full_flags([[w]]) for w in ws)
    alpha = (Fraction(0), Fraction(2), Fraction(4))
    eng = ChainEngine(curve)
    nonzero = 0
    for degs in itertools.product(range(-2, 3), repeat=3):
        tau = ChainType((1, 1, 1), degs, data)
        got = eng.chain_class(tau, alpha)
        want = rank111_chain_oracle(2, 1, degs, [[w] for w in ws], alpha)
        assert got == want, degs
        nonzero += not got.is_zero()
    assert nonzero == 31


def test_emptiness_monotonicity():
    """Rank-one chains with compatible degrees always give a nonzero class."""
    curve = CurveData(2, 1)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    alpha = (Fraction(0), Fraction(2))
    from parahiggs.oracles import rank11_chain_oracle

    for d0 in range(-3, 4):
        for dd in range(-3, 4):
            tau = ChainType((1, 1), (d0, dd), (d1, d2))
            want = rank11_chain_oracle(2, 1, d0, dd, [ws[0]], [ws[1]], alpha)
            got = eng.chain_class(tau, alpha)
            assert got.is_zero() == want.is_zero()


def test_find_walls_descending_and_base_wall_hit():
    from parahiggs.walls import Ray, cross_ray, wall_positions

    curve = CurveData(2, 0, ZETA)
    eng = ChainEngine(curve)
    ws, d1, d2 = gen_pair()
    tau = ChainType((1, 1), (3, 0), (d1, d2))
    ray = Ray((Fraction(0), Fraction(2)), (0, 1), Fraction(8))
    walls = list(reversed(wall_positions(eng, tau, ray, 0, ray.t_max)))
    assert walls == sorted(walls, reverse=True)
    # a critical base parameter aborts the walk explicitly
    even = ChainType((2,), (0,), (WeightDatum.empty(0),))
    with pytest.raises(WallHit):
        cross_ray(eng, even, Ray((Fraction(0),), (0,), Fraction(3)))


def test_rank11_k2_grid_matches_oracle():
    import itertools

    from parahiggs.oracles import rank11_chain_oracle

    curve = CurveData(2, 2)
    ws = generate_generic_weights(4, 2)
    d1 = WeightDatum.full_flags([[ws[0]], [ws[1]]])
    d2 = WeightDatum.full_flags([[ws[2]], [ws[3]]])
    alpha = (Fraction(0), Fraction(2))
    eng = ChainEngine(curve)
    for degs in itertools.product(range(-2, 3), repeat=2):
        tau = ChainType((1, 1), degs, (d1, d2))
        want = rank11_chain_oracle(
            2, 2, degs[0], degs[1], [ws[0], ws[1]], [ws[2], ws[3]], alpha
        )
        assert eng.chain_class(tau, alpha) == want, degs


def test_rank3_filtration_sum_matches_windowed_series():
    """Closed-form strata resummation vs a truncated numeric series at q=2.

    Inputs: parabolic rank 3 over every filtration shape, and non-parabolic
    rank 4 over the three-part shapes of mixed rank, whose rank-2 parts sit on
    their wall at even degree and give the semistable class.  The window is
    wide enough that the geometric tail sits far below the comparison
    tolerance.
    """
    import itertools

    from parahiggs.chains import chi_ext_fiber, compositions

    datum3 = WeightDatum.full_flags([generate_generic_weights(3, 3)])
    cases = [
        (
            CurveData(2, 1, ZETA),
            ChainType((3,), (1,), (datum3,)),
            [c for c in compositions(3) if len(c) >= 2],
        ),
        (
            CurveData(2, 0, ZETA),
            ChainType((4,), (1,), (WeightDatum.empty(0),)),
            [(1, 1, 2), (1, 2, 1), (2, 1, 1)],
        ),
    ]
    alpha = (Fraction(0),)
    q = Fraction(2)
    for curve, tau, comps in cases:
        eng = ChainEngine(curve)
        g, k = curve.genus, curve.num_marked
        rho = tau.degrees[0]

        def part_count(m, t, wd):
            part = ChainType((m,), (t,), (wd,))
            return specialize_count(eng.chain_class(part, alpha), curve, 2)

        for comp in comps:
            closed = eng.R.zero
            profiles = [(m,) for m in comp]
            numeric = Fraction(0)
            for weight_parts in eng.weight_splits(tau.weights, profiles):
                closed = closed + eng._resum(
                    tau, alpha, comp, weight_parts, tuple((0,) for _ in comp)
                )
                wsums = [weight_sum(wp[0]) for wp in weight_parts]
                h = len(comp)
                window = 20
                for ts in itertools.product(range(-window, window + 1), repeat=h - 1):
                    t_last = rho - sum(ts)
                    tv = list(ts) + [t_last]
                    if abs(t_last) > 3 * window:
                        continue
                    slopes = [(Fraction(tv[j]) + wsums[j]) / comp[j] for j in range(h)]
                    if not all(slopes[j] > slopes[j + 1] for j in range(h - 1)):
                        continue
                    parts = [
                        ChainType((comp[j],), (tv[j],), (weight_parts[j][0],))
                        for j in range(h)
                    ]
                    chi = sum(
                        chi_ext_fiber(parts[jj], parts[ii], g, k)
                        for ii in range(h)
                        for jj in range(ii + 1, h)
                    )
                    term = q ** chi
                    for j in range(h):
                        term *= part_count(comp[j], tv[j], weight_parts[j][0])
                    numeric += term
            got = specialize_count(closed, curve, 2)
            assert abs(got - numeric) < Fraction(1, 2 ** 12), (tau, comp)


@pytest.mark.parametrize("seed", range(12))
def test_ext_exponent_moves_by_one_rate_along_each_cone_ray(seed):
    """The premise of computing each HN-cone ray's rate once per shape: the
    extension exponent of the shifted parts changes by the same amount along
    a ray wherever the shift starts."""
    rnd = random.Random(seed)
    g, k = rnd.randint(0, 3), rnd.randint(0, 2)
    n, r1 = rnd.randint(2, 4), rnd.randint(1, 3)
    comp = rnd.choice([c for c in compositions(n) if len(c) >= 2])
    ws = iter(generate_generic_weights(max(n * k * r1, 1), 2))
    weights = tuple(
        WeightDatum.full_flags([[next(ws) for _ in range(n)] for _ in range(k)])
        for _ in range(r1)
    )
    profiles = tuple((m,) * r1 for m in comp)
    weight_parts = rnd.choice(list(index_splits(weights, profiles)))
    base = [[rnd.randint(-3, 3) for _ in range(r1)] for _ in comp]

    def chi_of(c):
        parts = [
            ChainType(prof, tuple(b + cj for b in base_j), wp)
            for prof, base_j, wp, cj in zip(profiles, base, weight_parts, c)
        ]
        return ext_exponent(parts, g, k)

    for l in range(len(comp) - 1):
        below, above = sum(comp[: l + 1]), sum(comp[l + 1 :])
        e = gcd(below, above)
        ray = [m * above // e if j <= l else -m * below // e
               for j, m in enumerate(comp)]
        rate = chi_of(ray) - chi_of([0] * len(comp))
        for _ in range(4):
            c = [rnd.randint(-5, 5) for _ in comp]
            assert chi_of([x + v for x, v in zip(c, ray)]) - chi_of(c) == rate


class _ForgetfulTables(dict):
    """Engine tables that never keep a base case's Hecke product."""

    def __setitem__(self, key, value):
        if key[0] is not ChainEngine._base_case:
            super().__setitem__(key, value)


def test_hecke_products_are_built_once_per_link_profile(monkeypatch):
    """A solve builds one Hecke product per (n, ells, flag types) and reuses
    it at every base case with that profile, whatever d_0 and the weights;
    the class is the one a build at every base case gives."""
    built = []
    public = engine_module.pbundle_stack_class

    def counting(n, d, datum, curve):
        built.append(n)
        return public(n, d, datum, curve)

    monkeypatch.setattr(engine_module, "pbundle_stack_class", counting)
    curve = CurveData(2, 1)
    problem = HiggsProblem(curve, 3, 1, WeightDatum.full_flags([generate_generic_weights(3, 3)]))
    eng = ChainEngine(curve)
    cls = higgs_computation(problem, eng).total
    keys = [args for fn, args in eng.tables if fn is ChainEngine._base_case]
    # keyed by ints alone: no weight, no engine
    for n, ells, flags in keys:
        assert all(type(x) is int for x in (n, *ells, *(m for f in flags for p in f for m in p)))
    assert len(built) == len(keys) < eng.stats["base_cases"]

    built.clear()
    every = ChainEngine(curve)
    every.tables = _ForgetfulTables()
    again = higgs_computation(problem, every).total
    assert again == cls and str(again) == str(cls)
    assert len(keys) < len(built) <= every.stats["base_cases"]


def test_resum_raises_on_a_divergent_series(monkeypatch):
    """A ray rate at or above zero makes the filtration series diverge: the
    resummation raises once a nonzero stratum is met."""
    curve = CurveData(2, 1)
    datum = WeightDatum.full_flags([generate_generic_weights(2, 2)])
    tau = ChainType((2,), (1,), (datum,))
    alpha = (Fraction(0),)
    eng = ChainEngine(curve)
    (weight_parts, *_) = eng.weight_splits(tau.weights, [(1,), (1,)])
    args = (tau, alpha, (1, 1), weight_parts, ((0,), (0,)))
    assert not eng._resum(*args).is_zero()
    monkeypatch.setattr(engine_module, "ext_exponent", lambda parts, g, k: 0)
    with pytest.raises(EngineError, match="divergent filtration series"):
        ChainEngine(curve)._resum(*args)
