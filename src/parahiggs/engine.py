"""Memoized evaluator for semistable parabolic chain stack classes.

Dispatch per type and stability parameter: empty by the existence conditions,
directly by the constant-rank product formula (with the filtration strata
resummed in closed form), or driven along a ray to a terminal regime by the
wall-crossing walk.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, gcd

from .errors import (
    DeskScaleExceeded,
    EngineError,
    NonGenericWeights,
    WallHit,
)
from .motive import ring, sym_cxp_coeff
from .parabolic import ChainType, frac, genericity_check, par_slope_alpha
from .chains import (
    _alpha_fracs,
    chi_skyscrapers,
    compositions,
    enumerate_gap_profiles,
    ext_exponent,
    filtration_types,
    index_weight_splits,
    necessary_conditions,
    slopes_decrease,
)
from .stacks import flag_class, pbundle_stack_class
from . import walls as wallmod


class ChainEngine:
    """Stateful front end: memo table, wall caches, crossing trace.

    Everything computed is a pure function of (type, parameter), so the memo
    is idempotent: concurrent or re-ordered insertions of the same key can
    only store the identical canonical value, and results are independent of
    evaluation schedule.
    """

    def __init__(self, curve, trace_walls=False, seed_cache=None):
        self.curve = curve
        self.R = ring(curve.genus)
        self.trace_walls = trace_walls
        self.memo = {}
        self.seed_cache = dict(seed_cache or {})
        self.new_cache_entries = {}
        self._generic_cache = {}
        self.wall_trace = []
        self.stats = {
            "chain_class_calls": 0,
            "memo_hits": 0,
            "base_cases": 0,
            "walls_crossed": 0,
        }

    # ------------------------------------------------------------------ memo

    @staticmethod
    def _normalize_alpha(tau, alpha):
        alpha = _alpha_fracs(alpha)
        if len(alpha) != len(tau.ranks):
            raise ValueError("stability parameter length mismatch")
        shift = alpha[0]
        return tuple(a - shift for a in alpha)

    def chain_class(self, tau, alpha):
        """Class of the stack of semistable chains of type tau at alpha."""
        alpha = self._normalize_alpha(tau, alpha)
        key = (tau, alpha)
        self.stats["chain_class_calls"] += 1
        if key in self.memo:
            self.stats["memo_hits"] += 1
            return self.memo[key]
        key_str = chain_key_str(tau, alpha, self.curve)
        if key_str in self.seed_cache:
            val = self.R.parse(self.seed_cache[key_str])
            self.memo[key] = val
            return val
        val = self._compute(tau, alpha)
        self.memo[key] = val
        self.new_cache_entries[key_str] = str(val)
        return val

    # -------------------------------------------------------------- dispatch

    def _compute(self, tau, alpha):
        if tau.total_rank == 0:
            return self.R.one
        if any(n == 0 for n in tau.ranks):
            return self._zero_padded(tau, alpha)
        self._check_generic(tau)
        if not necessary_conditions(tau, alpha):
            return self.R.zero
        if tau.total_rank > 1 and wallmod.is_on_wall(tau, alpha):
            raise WallHit(
                f"stability parameter {alpha} lies on a wall for type {tau}"
            )
        if len(set(tau.ranks)) == 1:
            k = tau.num_points
            n = tau.ranks[0]
            if all(
                alpha[i] - alpha[i - 1]
                > tau.degrees[i - 1] - tau.degrees[i] + 2 * n * k
                for i in range(1, tau.length + 1)
            ):
                self.stats["base_cases"] += 1
                return self._base_case(tau, alpha)
        ray = wallmod.choose_ray(tau, alpha)
        return wallmod.cross_ray(self, tau, ray)

    def _zero_padded(self, tau, alpha):
        """Restrict to support blocks; several blocks need equal slopes."""
        blocks = tau.support_blocks()
        if len(blocks) == 1:
            b = blocks[0]
            return self.chain_class(
                tau.restrict(b), tuple(alpha[i] for i in b)
            )
        slopes = {
            par_slope_alpha(tau.restrict(b), tuple(alpha[i] for i in b))
            for b in blocks
        }
        if len(slopes) != 1:
            return self.R.zero
        out = self.R.one
        for b in blocks:
            out = out * self.chain_class(
                tau.restrict(b), tuple(alpha[i] for i in b)
            )
        return out

    def _check_generic(self, tau):
        ws = tuple(sorted(tau.all_weights()))
        if not ws:
            return
        N = tau.total_rank
        key = (ws, N)
        ok = self._generic_cache.get(key)
        if ok is None:
            ok = genericity_check(ws, N)
            self._generic_cache[key] = ok
        if not ok:
            raise NonGenericWeights(
                f"weights {ws} admit a bounded integral relation at N={N}"
            )

    # ------------------------------------------------------------- base case

    def _forced_vanishing(self, upper_datum, lower_datum, n):
        """Points where a chain map must vanish; exact for rank-one links."""
        if n == 1:
            return chi_skyscrapers(upper_datum, lower_datum, strict=False)
        return 0

    def _base_case(self, tau, alpha):
        """Constant-rank Hecke-product formula minus the filtration strata."""
        n = tau.ranks[0]
        r = tau.length
        k = tau.num_points
        g = self.curve.genus
        cls = pbundle_stack_class(n, tau.degrees[0], tau.weights[0], self.curve)
        for i in range(1, r + 1):
            forced = self._forced_vanishing(tau.weights[i], tau.weights[i - 1], n)
            ell = tau.degrees[i - 1] - tau.degrees[i] + n * k - forced
            if ell < 0:
                return self.R.zero
            cls = cls * sym_cxp_coeff(self.curve, n, ell)
            for p in range(k):
                cls = cls * flag_class(n, tau.weights[i].flag_type(p), g)
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
        k = tau.num_points
        total = self.R.zero
        for comp in compositions(n):
            h = len(comp)
            if h < 2:
                continue
            if h >= 3 and len(set(comp)) != 1:
                raise DeskScaleExceeded(
                    f"mixed-rank filtrations with {h} parts are beyond desk scale"
                )
            profiles = [(m,) * (r + 1) for m in comp]
            for weight_parts in index_weight_splits(tau.weights, profiles):
                profile_lists = []
                for j, m in enumerate(comp):
                    profile_lists.append(
                        enumerate_gap_profiles(
                            (m,) * (r + 1), alpha, weight_parts[j], k
                        )
                    )
                for combo in itertools.product(*profile_lists):
                    rho_vals = {
                        tau.degrees[i] - sum(prof[i] for prof in combo)
                        for i in range(r + 1)
                    }
                    if len(rho_vals) != 1:
                        continue
                    rho = rho_vals.pop()
                    total = total + self._resum(
                        tau, alpha, comp, weight_parts, combo, rho
                    )
        return total

    def _resum(self, tau, alpha, comp, weight_parts, base_profiles, rho):
        r = tau.length
        k = tau.num_points
        g = self.curve.genus
        h = len(comp)
        A = sum(alpha, Fraction(0))
        s = [sum(prof) for prof in base_profiles]
        w = [
            sum((d.weight_sum() for d in weight_parts[j]), Fraction(0))
            for j in range(h)
        ]

        def part_type(j, c):
            degrees = tuple(b + c for b in base_profiles[j])
            return ChainType((comp[j],) * (r + 1), degrees, weight_parts[j])

        def chi_of(cvec):
            return ext_exponent([part_type(j, cvec[j]) for j in range(h)], g, k)

        def cls_of(j, c):
            return self.chain_class(part_type(j, c), alpha)

        R = self.R
        total = R.zero
        if h == 2:
            m1, m2 = comp
            theta = Fraction(
                m1 * (s[1] + (r + 1) * rho + w[1] + m2 * A)
                - m2 * (s[0] + w[0] + m1 * A),
                (r + 1) * (m1 + m2),
            )
            c_min = floor(theta) + 1
            period = m1 * m2 // gcd(m1, m2)
            for c1 in range(c_min, c_min + period):
                c2 = rho - c1
                cls = cls_of(0, c1) * cls_of(1, c2)
                if cls.is_zero():
                    continue
                chi0 = chi_of((c1, c2))
                chi1 = chi_of((c1 + period, c2 - period))
                chi2 = chi_of((c1 + 2 * period, c2 - 2 * period))
                step = chi1 - chi0
                if chi2 - chi1 != step:
                    raise EngineError("extension exponent is not affine")
                if step >= 0:
                    raise EngineError("divergent filtration series")
                total = total + R.L_pow(chi0) * cls / (R.one - R.L_pow(step))
            return total

        # h >= 3, all part ranks equal
        m = comp[0]
        period = h * m
        psi = [
            Fraction(s[j + 1] + w[j + 1] - s[j] - w[j], r + 1)
            for j in range(h - 1)
        ]
        dc_min = [floor(p) + 1 for p in psi]

        def c_from_dc(dc):
            weighted = sum((l + 1) * dc[l] for l in range(h - 1))
            if (rho - weighted) % h != 0:
                return None
            c_last = (rho - weighted) // h
            cs = [c_last] * h
            for j in range(h - 2, -1, -1):
                cs[j] = cs[j + 1] + dc[j]
            return tuple(cs)

        for offsets in itertools.product(range(period), repeat=h - 1):
            dc = tuple(dc_min[j] + offsets[j] for j in range(h - 1))
            cvec = c_from_dc(dc)
            if cvec is None:
                continue
            cls = R.one
            for j in range(h):
                cls = cls * cls_of(j, cvec[j])
                if cls.is_zero():
                    break
            if cls.is_zero():
                continue
            chi0 = chi_of(cvec)
            rates = []
            for l in range(h - 1):
                shifted = list(dc)
                shifted[l] += period
                cvec_s = c_from_dc(tuple(shifted))
                rates.append(chi_of(cvec_s) - chi0)
            all_shift = c_from_dc(tuple(d + period for d in dc))
            if chi_of(all_shift) - chi0 != sum(rates):
                raise EngineError("extension exponent is not affine")
            if any(rate >= 0 for rate in rates):
                raise EngineError("divergent filtration series")
            term = R.L_pow(chi0) * cls
            for rate in rates:
                term = term / (R.one - R.L_pow(rate))
            total = total + term
        return total

    # ----------------------------------------------------------- wall strata

    def strata_at_wall(self, tau, ray, t_wall):
        """Equal-slope filtration strata on both sides of a wall.

        The wall's filtration types are enumerated once: part degree totals
        are pinned by equal slope at the wall, internal distributions boxed by
        the (non-strict) conditions there, which contain every side-chamber
        solution.  A type goes to the side t_wall + 1 or t_wall - 1 whose
        parameter makes its slopes strictly decrease.  All part slopes agree
        at the wall, so that happens on at most one side.  Returns
        ((plus, minus), count), count being the strata kept on both sides.
        """
        g = self.curve.genus
        k = tau.num_points
        order = {side: ray.at(t_wall + side) for side in (+1, -1)}
        totals = {side: self.R.zero for side in order}
        count = 0
        for parts in filtration_types(tau, ray.at(t_wall)):
            side = next(
                (s for s, a in order.items() if slopes_decrease(parts, a)), None
            )
            if side is None:
                continue
            cls = self.R.L_pow(ext_exponent(parts, g, k))
            for p in parts:
                cls = cls * self._part_class_near(p, ray, t_wall, side)
                if cls.is_zero():
                    break
            if cls.is_zero():
                continue
            totals[side] = totals[side] + cls
            count += 1
        return (totals[+1], totals[-1]), count

    def _part_class_near(self, part, ray, t_wall, side):
        """Part class in its own chamber adjacent to the wall, retrying past
        deeper accidental wall coincidences."""
        if side > 0:
            ws = wallmod.wall_positions(part, ray, t_wall, t_wall + 1)
            edge = ws[0] if ws else t_wall + 1
        else:
            ws = wallmod.wall_positions(part, ray, t_wall - 1, t_wall)
            below = [t for t in ws if t < t_wall]
            edge = below[-1] if below else t_wall - 1
        t_eval = (t_wall + edge) / 2
        for _ in range(40):
            try:
                return self.chain_class(part, ray.at(t_eval))
            except WallHit:
                t_eval = (t_wall + t_eval) / 2
        raise EngineError(
            f"could not find an evaluation point near wall t={t_wall} for {part}"
        )

    def record_wall(self, tau, t, strata_count, cls):
        self.stats["walls_crossed"] += 1
        if self.trace_walls:
            import hashlib

            digest = hashlib.sha256(str(cls).encode()).hexdigest()[:16]
            self.wall_trace.append(
                {
                    "type": chain_key_str(tau, None, self.curve),
                    "t": str(t),
                    "strata": strata_count,
                    "class_hash": digest,
                }
            )


def chain_key_str(tau, alpha, curve):
    """Deterministic text key for the on-disk memo cache."""
    widx = []
    for datum in tau.weights:
        pts = []
        for point in datum.points:
            pts.append(",".join(f"{w}:{m}" for w, m in point))
        widx.append("|".join(pts))
    parts = [
        f"g={curve.genus}",
        f"k={curve.num_marked}",
        "n=" + ",".join(map(str, tau.ranks)),
        "d=" + ",".join(map(str, tau.degrees)),
        "w=" + ";".join(widx),
    ]
    if alpha is not None:
        parts.append("a=" + ",".join(str(frac(a)) for a in alpha))
    return "#".join(parts)
