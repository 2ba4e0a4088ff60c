"""Memoized evaluator for semistable parabolic chain stack classes.

Dispatch per type and stability parameter: empty by the existence conditions,
directly by the constant-rank product formula (with the filtration strata
resummed in closed form), or driven along a ray to a terminal regime by the
wall-crossing walk.
"""

from __future__ import annotations

import hashlib
import itertools
from math import gcd

from .errors import DivisionOutsideRing, EngineError, UnsupportedParabolicLink
from .motive import ring
from .parabolic import ChainType, Param, enumerate_weight_splits, par_slope, ratio_str
from .chains import (
    _has_interval_support,
    chi_skyscrapers,
    compositions,
    enumerate_degree_vectors,
    enumerate_gap_profiles,
    ext_exponent,
    index_weight_splits,
    necessary_conditions,
    proper_subprofiles,
    slopes_decrease,
)
from .stacks import pbundle_stack_class, phecke_class
from . import walls as wallmod


class ChainEngine:
    """Stateful front end: memo, enumerator tables, crossing trace.

    Everything computed is a pure function of (type, parameter), so the memo
    is idempotent: concurrent or re-ordered insertions of the same key can
    only store the identical canonical value, and results are independent of
    evaluation schedule.  One table, keyed by (function, args), holds the
    chain types the recursion builds, the per-index weight splits, padded
    part degree boxes, gap profiles and sub-types of this problem's weights,
    the seed-cache classes parsed so far and the Hecke products of its base
    cases.  No key holds the engine, so the table lives exactly as long as
    the engine and dropping the last reference frees both.
    """

    def __init__(self, curve, trace_walls=False, seed_cache=None):
        self.curve = curve
        self.R = ring(curve.genus)
        self.trace_walls = trace_walls
        self.memo = {}
        self.tables = {}
        self.seed_cache = dict(seed_cache or {})
        self.seeded = set()
        self.wall_trace = []
        self.stats = {
            "chain_class_calls": 0,
            "memo_hits": 0,
            "seed_cache_hits": 0,
            "cache_records_skipped": 0,
            "base_cases": 0,
            "walls_crossed": 0,
        }

    # ------------------------------------------------------------------ memo

    def chain_class(self, tau, alpha):
        """Class of the stack of semistable chains of type tau at alpha.

        The caller certifies the weights (parabolic.certify_generic); the
        types the recursion visits carry subsets of them.  A seed-cache text
        that parses is kept in the table, so each distinct text is parsed
        once per engine; one that does not is stored nowhere, so it is parsed,
        counted as skipped and computed instead at each of its hits.
        """
        alpha = Param.of(alpha)
        if len(alpha) != len(tau.ranks):
            raise ValueError("stability parameter length mismatch")
        alpha = alpha.shifted()
        key = (tau, alpha)
        self.stats["chain_class_calls"] += 1
        if key in self.memo:
            self.stats["memo_hits"] += 1
            return self.memo[key]
        key_str = chain_key_str(tau, alpha, self.curve) if self.seed_cache else None
        if key_str in self.seed_cache:
            try:
                val = self._table(self.R.parse, self.seed_cache[key_str])
            except (ValueError, ZeroDivisionError, DivisionOutsideRing):
                self.stats["cache_records_skipped"] += 1
            else:
                self.stats["seed_cache_hits"] += 1
                self.seeded.add(key)
                self.memo[key] = val
                return val
        val = self._compute(tau, alpha)
        self.memo[key] = val
        return val

    @property
    def new_cache_entries(self):
        """Cache records of every memo entry not read from the seed cache,
        a recomputed corrupt record included."""
        return {
            chain_key_str(tau, alpha, self.curve): str(val)
            for (tau, alpha), val in self.memo.items()
            if (tau, alpha) not in self.seeded
        }

    def _table(self, fn, *args):
        """fn(*args) as fn returns it, computed once per engine and keyed by
        (fn, args); a call that raises stores nothing.  No key holds the
        engine: fn is a module-level function or class, or self.R.parse,
        bound to the module-level ring.  A key that held the engine would
        make it reference itself."""
        key = (fn, args)
        if key not in self.tables:
            self.tables[key] = fn(*args)
        return self.tables[key]

    def weight_splits(self, weights, profiles):
        """index_weight_splits of the chain datum weights into the rank
        profiles, each index split by enumerate_weight_splits once per
        engine."""
        return index_weight_splits([
            self._table(enumerate_weight_splits, datum, sizes)
            for datum, sizes in zip(weights, zip(*profiles))
        ])

    def subtypes(self, tau):
        """Per proper sub-rank-profile of tau, (profile, size, groups): its
        (first, rest) weight splits grouped as (W, splits) by the first
        part's weight sum W over tau's Q, W ascending.  Built once per ranks
        and weights, keyed like the _table entries by the plain function."""
        key = (ChainEngine.subtypes, (tau.ranks, tau.weights))
        if key not in self.tables:
            table = []
            for first in proper_subprofiles(tau.ranks):
                rest = tuple(n - m for n, m in zip(tau.ranks, first))
                groups = {}
                for split in self.weight_splits(tau.weights, (first, rest)):
                    W = sum(d.weight_num * (tau.Q // d.den) for d in split[0])
                    groups.setdefault(W, []).append(split)
                table.append((first, sum(first), tuple(sorted(groups.items()))))
            self.tables[key] = tuple(table)
        return self.tables[key]

    def _restrict(self, tau, indices):
        return self._table(
            ChainType,
            tuple(tau.ranks[i] for i in indices),
            tuple(tau.degrees[i] for i in indices),
            tuple(tau.weights[i] for i in indices),
        )

    # -------------------------------------------------------------- dispatch

    def _compute(self, tau, alpha):
        if tau.total_rank == 0:
            return self.R.one
        if any(n == 0 for n in tau.ranks):
            return self._zero_padded(tau, alpha)
        if not necessary_conditions(tau, alpha):
            return self.R.zero
        if len(set(tau.ranks)) == 1 and wallmod.hecke_shortfall(tau, alpha) < 0:
            # a bundle has no stability parameter to perturb: on a wall the
            # base case gives its semistable class; cross_ray checks the rest
            if tau.length > 0:
                wallmod.require_off_wall(self, tau, alpha)
            self.stats["base_cases"] += 1
            return self._base_case(tau, alpha)
        ray = wallmod.choose_ray(tau, alpha)
        return wallmod.cross_ray(self, tau, ray)

    def _zero_padded(self, tau, alpha):
        """Restrict to support blocks; several blocks need equal slopes."""
        pieces = [
            (self._restrict(tau, b), alpha.restrict(b)) for b in tau.support_blocks()
        ]
        if len(pieces) == 1:
            return self.chain_class(*pieces[0])
        (n0, d0), *rest = [par_slope(*piece) for piece in pieces]
        if any(n * d0 != n0 * d for n, d in rest):
            return self.R.zero
        out = self.R.one
        for piece in pieces:
            out = out * self.chain_class(*piece)
        return out

    # ------------------------------------------------------------- base case

    def _base_case(self, tau, alpha):
        """Constant-rank Hecke-product formula minus the filtration strata.

        A chain map must vanish at the points counted by chi_skyscrapers of
        its link; that is exact for rank-one links, and a rank 2 or more link
        with forced vanishing raises UnsupportedParabolicLink.
        """
        n = tau.ranks[0]
        r = tau.length
        k = tau.num_points
        forced = [
            chi_skyscrapers(tau.weights[i], tau.weights[i - 1], strict=False)
            for i in range(1, r + 1)
        ]
        if n >= 2 and any(forced):
            raise UnsupportedParabolicLink(
                f"rank-{n} chain link with forced vanishing in type {tau.ranks}, "
                f"{tau.degrees}"
            )
        ells = tuple(
            tau.degrees[i - 1] - tau.degrees[i] + n * k - forced[i - 1]
            for i in range(1, r + 1)
        )
        if any(ell < 0 for ell in ells):
            return self.R.zero
        # the Hecke product is the same for every d_0 and every weight with
        # these flag types, so the engine builds it once per link profile
        flags = tuple(tuple(map(datum.flag_type, range(k))) for datum in tau.weights)
        key = (ChainEngine._base_case, (n, ells, flags))
        cls = self.tables.get(key)
        if cls is None:
            cls = pbundle_stack_class(n, tau.degrees[0], tau.weights[0], self.curve)
            for ell, datum in zip(ells, tau.weights[1:]):
                cls = phecke_class(cls, ell, n, datum, self.curve)
            self.tables[key] = cls
        if n >= 2:
            cls = cls - self._filtration_sum(tau, alpha)
        return cls

    def _filtration_sum(self, tau, alpha):
        """Closed-form sum of the filtration strata of the constant-rank stack.

        Parts have constant rank; their degree profiles are boxed by the
        shift-invariant conditions while the degree totals run over a lattice
        cone, resummed as geometric series (part classes are periodic under
        line-bundle twists, the affine-fiber exponents are affine in the
        totals with negative rates).
        """
        n = tau.ranks[0]
        r = tau.length
        shapes = []
        for comp in compositions(n):
            if len(comp) < 2:
                continue
            profiles = tuple((m,) * (r + 1) for m in comp)
            for weight_parts in self.weight_splits(tau.weights, profiles):
                profile_lists = [
                    self._table(enumerate_gap_profiles, prof, alpha, weight_parts[j])
                    for j, prof in enumerate(profiles)
                ]
                # every gap profile starts at 0, so the part shifts sum to d_0
                for combo in itertools.product(*profile_lists):
                    if all(sum(prof[i] for prof in combo) == d - tau.degrees[0]
                           for i, d in enumerate(tau.degrees)):
                        shapes.append(self._resum(tau, alpha, comp, weight_parts, combo))
        return self.R.sum(shapes)

    def _resum(self, tau, alpha, comp, weight_parts, base_profiles):
        """Sum one filtration shape's strata over the lattice points of its cone.

        Part j, shifted by c_j, has slope ((r+1) c_j + s_j + W_j/Q) / m_j up to
        a common constant, W_j being its weight sum over tau's Q.  The strata
        are the integer c with sum d_0 whose slopes strictly decrease: an open
        simplicial cone with its apex where all slopes are equal.  Ray l moves
        only the l-th slope gap, and each entry is a multiple of its part's
        rank, so the part classes are periodic along it while the extension
        exponent moves by one rate per step.  The cone is the fundamental
        parallelepiped's points plus nonnegative ray steps, each ray a
        geometric series (Brion; Beck-Robins ch. 3).
        """
        r1 = tau.length + 1
        k = tau.num_points
        g = self.curve.genus
        h = len(comp)
        R = self.R
        Q = tau.Q
        M = sum(comp)
        d0 = tau.degrees[0]
        s = [sum(prof) for prof in base_profiles]
        W = [
            sum(d.weight_num * (Q // d.den) for d in weight_parts[j])
            for j in range(h)
        ]
        # the apex, where all slopes are equal, over the denominator E
        E = r1 * M * Q
        level = Q * (r1 * d0 + sum(s)) + sum(W)
        apex = [level * m - (Q * s[j] + W[j]) * M for j, m in enumerate(comp)]
        rays, widths = [], []
        for l in range(h - 1):
            below, above = sum(comp[: l + 1]), sum(comp[l + 1 :])
            e = gcd(below, above)
            rays.append(
                [m * above // e if j <= l else -m * below // e
                 for j, m in enumerate(comp)]
            )
            widths.append(r1 * (below + above) // e)

        def slope_num(j, c):
            """Part j's slope times Q m_j."""
            return Q * (r1 * c[j] + s[j]) + W[j]

        def part_type(j, c):
            degrees = tuple(b + c for b in base_profiles[j])
            return self._table(ChainType, (comp[j],) * r1, degrees, weight_parts[j])

        def chi_of(c):
            return ext_exponent(
                [part_type(j, cj) for j, cj in enumerate(c)], g, k
            )

        # ext_exponent reads degrees only through the linear term of
        # chi_hom_rr, so each ray moves it by one rate from any point
        chi_origin = chi_of([0] * h)
        rates = [chi_of(ray) - chi_origin for ray in rays]
        corners = [apex]
        for ray in rays:
            corners += [[x + E * v for x, v in zip(y, ray)] for y in corners]
        box = [
            range(-(-min(x[j] for x in corners) // E),
                  max(x[j] for x in corners) // E + 1)
            for j in range(h - 1)
        ]
        heads = []
        for head in itertools.product(*box):
            c = list(head) + [d0 - sum(head)]
            if not all(
                0 < slope_num(l, c) * comp[l + 1] - slope_num(l + 1, c) * comp[l]
                <= widths[l] * Q * comp[l] * comp[l + 1]
                for l in range(h - 1)
            ):
                continue
            cls = self.chain_class(part_type(0, c[0]), alpha)
            for j in range(1, h):
                if cls.is_zero():
                    break
                cls = cls * self.chain_class(part_type(j, c[j]), alpha)
            if cls.is_zero():
                continue
            if any(rate >= 0 for rate in rates):
                raise EngineError("divergent filtration series")
            heads.append(R.L_pow(chi_of(c)) * cls)
        # every head has the same rays, so their series divide the sum once;
        # a zero sum may have met no divergence check
        total = R.sum(heads)
        if not total.is_zero():
            for rate in rates:
                total = total / (R.one - R.L_pow(rate))
        return total

    # ----------------------------------------------------------- wall strata

    def strata_at_wall(self, tau, ray, t_wall):
        """Equal-slope filtration strata on both sides of a wall.

        The wall's filtration types are enumerated once: part degree totals
        are pinned by equal slope at the wall, internal distributions boxed by
        the (non-strict) conditions there, which contain every side-chamber
        solution.  A type goes to the side t_wall + 1 or t_wall - 1 whose
        parameter makes its slopes strictly decrease.  All part slopes agree
        at the wall, so that happens on at most one side.  Each part is
        evaluated once, at its walls.chamber_point on that side, which lies
        off the part's own walls.  Returns ((plus, minus), count), count
        being the strata kept on both sides.
        """
        g = self.curve.genus
        k = tau.num_points
        order = {side: ray.at(t_wall + side) for side in (+1, -1)}
        strata = {side: [] for side in order}
        for parts in self.filtration_types(tau, ray.at(t_wall)):
            side = next(
                (s for s, a in order.items() if slopes_decrease(parts, a)), None
            )
            if side is None:
                continue
            cls = self.R.L_pow(ext_exponent(parts, g, k))
            for p in parts:
                t_eval = wallmod.chamber_point(self, p, ray, t_wall, side)
                cls = cls * self.chain_class(p, ray.at(t_eval))
                if cls.is_zero():
                    break
            if cls.is_zero():
                continue
            strata[side].append(cls)
        return ((self.R.sum(strata[+1]), self.R.sum(strata[-1])),
                len(strata[+1]) + len(strata[-1]))

    def filtration_types(self, tau, alpha):
        """Filtration types of tau at a wall alpha: tuples of at least two
        interval-support parts whose ranks, degrees and weights sum to tau's,
        each part's degree total pinned by equal slope at alpha and its
        degrees in its box there.  No slope order is imposed: callers filter
        the tuples with slopes_decrease at the parameter they need.

        Parts are peeled off one at a time: the first part is an equal-slope
        sub-type (walls.equal_slope_subtypes), and the remainder is the last
        part when its support block passes the existence conditions, and is
        split again either way.
        """
        alpha = Param.of(alpha)
        for first, total, splits in wallmod.equal_slope_subtypes(self, tau, alpha):
            if not _has_interval_support(first):
                continue
            rest = tuple(n - m for n, m in zip(tau.ranks, first))
            block = [i for i, n in enumerate(rest) if n]
            for w_first, w_rest in splits:
                for degrees in self._table(_padded_box, first, w_first, alpha, total):
                    left = tuple(d - e for d, e in zip(tau.degrees, degrees))
                    if any(d for n, d in zip(rest, left) if n == 0):
                        continue
                    part = self._table(ChainType, first, degrees, w_first)
                    remainder = self._table(ChainType, rest, left, w_rest)
                    if _has_interval_support(rest) and necessary_conditions(
                        self._restrict(remainder, block), alpha.restrict(block)
                    ):
                        yield (part, remainder)
                    for tail in self.filtration_types(remainder, alpha):
                        yield (part,) + tail

    def record_wall(self, tau, t, strata_count, cls):
        self.stats["walls_crossed"] += 1
        if self.trace_walls:
            self.wall_trace.append({
                "type": chain_key_str(tau, None, self.curve),
                "t": str(t),
                "strata": strata_count,
                "class_hash": hashlib.sha256(str(cls).encode()).hexdigest()[:16],
            })


def _padded_box(profile, weights, alpha, total):
    """Degree vectors of an interval-support part in its box at the given
    total, zero off its support: its support block's box, padded."""
    block = [i for i, m in enumerate(profile) if m]
    lo, hi = block[0], block[-1] + 1
    return tuple(
        (0,) * lo + dvec + (0,) * (len(profile) - hi)
        for dvec in enumerate_degree_vectors(
            profile[lo:hi], total, alpha.restrict(block), weights[lo:hi]
        )
    )


def chain_key_str(tau, alpha, curve):
    """Deterministic text key for the on-disk memo cache."""
    widx = [
        "|".join(",".join(f"{w}:{m}" for w, m in point) for point in datum.points)
        for datum in tau.weights
    ]
    parts = [
        f"g={curve.genus}",
        f"k={curve.num_marked}",
        "n=" + ",".join(map(str, tau.ranks)),
        "d=" + ",".join(map(str, tau.degrees)),
        "w=" + ";".join(widx),
    ]
    if alpha is not None:
        alpha = Param.of(alpha)
        parts.append("a=" + ",".join(ratio_str(a, alpha.den) for a in alpha.nums))
    return "#".join(parts)
