"""Discrete invariants of parabolic bundles and chains.

Weights enter as exact rationals; all arithmetic on them is in integers.  A
WeightDatum stores, per marked point, the strictly increasing weights in
[0,1) and their multiplicities, and holds them and its weight sum as integers
over the lcm of its weight denominators.  A ChainType bundles ranks, degrees
and one datum per chain index; it fixes the common denominator Q of its
weights once, at construction, and holds its per-index weight sums as
integers over Q.  A stability parameter is a Param: integer numerators over
one common denominator.  Zero-rank chain entries are allowed (they carry
degree 0 and empty weights) because filtration pieces of a chain naturally
have them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import BudgetExceeded, InvalidFlagType, NonGenericWeights, RankMismatch


def frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def ratio_str(num, den):
    """num/den in lowest terms, written as str(Fraction(num, den)) would be."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class Param:
    """A stability parameter (alpha_0, ..., alpha_r): integer numerators over
    one positive common denominator, kept in lowest terms so that equal
    parameters compare and hash equal.  Not to be mutated."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=1):
        g = math.gcd(den, *nums)
        self.nums = tuple(a // g for a in nums)
        self.den = den // g

    def __eq__(self, other):
        return isinstance(other, Param) and (
            (self.nums, self.den) == (other.nums, other.den)
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    @staticmethod
    def of(alpha):
        """alpha as a Param; a sequence of exact rationals is brought over
        the lcm of its denominators."""
        if isinstance(alpha, Param):
            return alpha
        fracs = [frac(a) for a in alpha]
        den = math.lcm(*(a.denominator for a in fracs))
        return Param([a.numerator * (den // a.denominator) for a in fracs], den)

    def __len__(self):
        return len(self.nums)

    def __repr__(self):
        return "Param(" + ", ".join(ratio_str(a, self.den) for a in self.nums) + ")"

    def restrict(self, indices):
        return Param([self.nums[i] for i in indices], self.den)

    def shifted(self):
        """The same parameter with alpha_0 moved to 0."""
        a0 = self.nums[0]
        return Param([a - a0 for a in self.nums], self.den)


@dataclass(frozen=True)
class WeightDatum:
    """Per-point weighted flag data: ((w, m), ...) per marked point.

    den is the lcm of the weight denominators (1 without weights), nums the
    points with each weight as its integer numerator over den, and
    weight_num the weight-multiplicity sum over den.
    """

    points: Tuple[Tuple[Tuple[Fraction, int], ...], ...]

    def __post_init__(self):
        pts = tuple(
            tuple((frac(w), int(m)) for w, m in point) for point in self.points
        )
        den = math.lcm(*(w.denominator for point in pts for w, _ in point))
        nums = tuple(
            tuple((w.numerator * (den // w.denominator), m) for w, m in point)
            for point in pts
        )
        ranks = set()
        for point in nums:
            prev = None
            for w, m in point:
                if not (0 <= w < den):
                    raise ValueError(f"weight {ratio_str(w, den)} outside [0,1)")
                if m < 1:
                    raise ValueError("multiplicities must be positive")
                if prev is not None and w <= prev:
                    raise ValueError("weights must strictly increase within a point")
                prev = w
            ranks.add(sum(m for _, m in point))
        if len(ranks) > 1:
            raise RankMismatch(f"inconsistent ranks across points: {sorted(ranks)}")
        for name, value in (
            ("points", pts),
            ("den", den),
            ("nums", nums),
            ("weight_num", sum(w * m for point in nums for w, m in point)),
            ("_hash", hash((den, nums))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    @property
    def num_points(self):
        return len(self.points)

    @property
    def rank(self):
        if not self.points:
            return None  # rank unconstrained without marked points
        return sum(m for _, m in self.points[0])

    def all_weights(self):
        return [w for point in self.points for w, m in point for _ in range(m)]

    def flag_type(self, p):
        return tuple(m for _, m in self.points[p])

    @staticmethod
    def empty(num_points):
        return WeightDatum(tuple(() for _ in range(num_points)))

    @staticmethod
    def trivial_flags(rank, num_points):
        """Plain bundles seen as parabolic: one weight-0 step of full multiplicity."""
        return WeightDatum(tuple(((Fraction(0), rank),) for _ in range(num_points)))

    @staticmethod
    def full_flags(weights_per_point):
        """One weight per flag step, multiplicity one."""
        return WeightDatum(
            tuple(tuple((frac(w), 1) for w in pt) for pt in weights_per_point)
        )


def pardeg(d, datum):
    """Parabolic degree, ordinary degree plus the weight-multiplicity sum, as
    (numerator, denominator) over the datum's den."""
    return d * datum.den + datum.weight_num, datum.den


def dual_weight_datum(datum):
    """Dual weights 1-w in reversed order; weight 0 is kept fixed."""
    new_points = []
    for point in datum.points:
        out = []
        for w, m in reversed(point):
            out.append((Fraction(1) - w if w != 0 else Fraction(0), m))
        out.sort(key=lambda t: t[0])
        new_points.append(tuple(out))
    return WeightDatum(tuple(new_points))


@dataclass(frozen=True)
class ChainType:
    """Numerical type of a parabolic chain: ranks, degrees, per-index weights.

    Q is the lcm of the weight data's denominators and weight_nums their
    weight sums as integers over Q; pardeg_total is the parabolic degree
    sum over Q.  They and the hash are computed once, at construction.
    """

    ranks: Tuple[int, ...]
    degrees: Tuple[int, ...]
    weights: Tuple[WeightDatum, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(n) for n in self.ranks))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "weights", tuple(self.weights))
        if not (len(self.ranks) == len(self.degrees) == len(self.weights)):
            raise RankMismatch("ranks, degrees and weights must have equal length")
        if not self.ranks:
            raise ValueError("a chain type needs at least one index")
        k = {w.num_points for w in self.weights}
        if len(k) > 1:
            raise RankMismatch("marked-point counts differ across chain indices")
        for n, d, w in zip(self.ranks, self.degrees, self.weights):
            if n < 0:
                raise ValueError("negative rank")
            if n == 0:
                if d != 0 or any(w.points[p] for p in range(w.num_points)):
                    raise ValueError("zero-rank entries carry degree 0 and no weights")
            elif w.points and w.rank != n:
                raise RankMismatch(f"weight datum rank {w.rank} != {n}")
        Q = math.lcm(*(w.den for w in self.weights))
        weight_nums = tuple(w.weight_num * (Q // w.den) for w in self.weights)
        for name, value in (
            ("Q", Q),
            ("weight_nums", weight_nums),
            ("pardeg_total", Q * sum(self.degrees) + sum(weight_nums)),
            ("_hash", hash((self.ranks, self.degrees, self.weights))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    @property
    def length(self):
        return len(self.ranks) - 1

    @property
    def total_rank(self):
        return sum(self.ranks)

    @property
    def total_degree(self):
        return sum(self.degrees)

    @property
    def num_points(self):
        return self.weights[0].num_points if self.weights else 0

    def support_blocks(self):
        """Maximal runs of consecutive nonzero-rank indices."""
        blocks = []
        cur = []
        for i, n in enumerate(self.ranks):
            if n > 0:
                cur.append(i)
            elif cur:
                blocks.append(tuple(cur))
                cur = []
        if cur:
            blocks.append(tuple(cur))
        return blocks

    def all_weights(self):
        return [w for datum in self.weights for w in datum.all_weights()]


def par_slope(tau, alpha):
    """Rank-weighted average of the shifted parabolic slopes, as (numerator,
    denominator) with the denominator total_rank * Q * alpha's den."""
    alpha = Param.of(alpha)
    if len(alpha) != len(tau.ranks):
        raise RankMismatch("stability parameter length mismatch")
    n_tot = tau.total_rank
    if n_tot == 0:
        raise ValueError("slope of the zero chain is undefined")
    shift = sum(n * a for n, a in zip(tau.ranks, alpha.nums))
    return (
        tau.pardeg_total * alpha.den + shift * tau.Q,
        n_tot * tau.Q * alpha.den,
    )


GENERICITY_BUDGET = 5_000_000


def genericity_check(all_weights, N):
    """True when no bounded nonzero integer combination of the weights is integral.

    Exact meet-in-the-middle search over residues (Horowitz and Sahni, J. ACM
    21, 1974). With Q the common denominator and a_i = w_i*Q mod Q, a sum
    c_i*w_i is integral iff c_i*a_i sums to 0 mod Q. The residues of the left
    half's coefficient vectors are tabulated; a relation with |c_i| <= N exists
    iff a nonzero left vector reaches 0 or a nonzero right vector reaches the
    negative of a table entry, of size (2N+1)^ceil(count/2) <= GENERICITY_BUDGET;
    the table holds the negative of each entry, as c and -c are both bounded.
    The right half is never tabulated whole: its sums over all but its last
    weight (at most a (2N+1)-th of the table, equal sums merged) are looked
    up, then those sums and zero, each plus each nonzero step of the last
    weight, are streamed against the table up to the first hit.  Residues
    that pass _balanced_digits, as generate_generic_weights' do, are
    certified before the search and its budget.
    """
    if N < 1:
        raise ValueError("bound must be at least 1")
    ws = [frac(w) for w in all_weights]
    if not ws:
        return True
    Q = math.lcm(*(w.denominator for w in ws))
    residues = [w.numerator * (Q // w.denominator) % Q for w in ws]
    if _balanced_digits(residues, N, Q):
        return True
    half = (len(ws) + 1) // 2
    if (2 * N + 1) ** half > GENERICITY_BUDGET:
        raise BudgetExceeded(
            f"genericity table size (2*{N}+1)^{half} for {len(ws)} weights "
            f"exceeds budget {GENERICITY_BUDGET}"
        )
    left = _nonzero_sums(residues[:half], N, Q)
    if 0 in left:
        return False
    left.add(0)
    right = residues[half:]
    if not right:
        return True
    head = _nonzero_sums(right[:-1], N, Q)
    if not left.isdisjoint(head):
        return False
    steps = [c * right[-1] % Q for c in range(-N, N + 1) if c]
    return left.isdisjoint(
        (s + step) % Q for s in itertools.chain((0,), head) for step in steps
    )


def certify_generic(all_weights, N):
    """Raise NonGenericWeights unless genericity_check passes; called where
    weights enter, it covers every sub-multiset at every bound N' <= N."""
    ws = tuple(sorted(all_weights))
    if ws and not genericity_check(ws, N):
        raise NonGenericWeights(
            f"weights {ws} admit a bounded integral relation at N={N}"
        )


def require_full_flags(data):
    """Raise InvalidFlagType at the first point of the weight data whose flag
    type is not full (some multiplicity above one), the only flag type the
    solver handles; called where weights enter, before certify_generic,
    which would otherwise reject a repeated weight as non-generic."""
    for datum in data:
        for p in range(datum.num_points):
            flag = datum.flag_type(p)
            if any(m != 1 for m in flag):
                raise InvalidFlagType(
                    f"point {p} has flag type {flag}; only full flags "
                    f"(every multiplicity 1) are supported"
                )


def _balanced_digits(residues, N, Q):
    """True when r_i = min(a_i, Q - a_i), sorted, has each r_i > N*sum_{j<i} r_j
    and N*sum r_i < Q: then no nonzero |c_i| <= N sums c_i*a_i to 0 mod Q.

    As a_i = +-r_i mod Q, such a sum is congruent to some sum c_i' r_i with
    |c_i'| <= N, whose absolute value is below Q, so that sum would be 0
    exactly; but its last nonzero term outweighs all the terms before it.
    No search; False only declines to certify.
    """
    total = 0
    for r in sorted(min(a, Q - a) for a in residues):
        if r <= N * total:
            return False
        total += r
    return N * total < Q


def _nonzero_sums(residues, N, Q):
    """Residues mod Q of c_i*a_i summed, over nonzero vectors with |c_i| <= N."""
    reached = set()
    for a in residues:
        steps = [c * a % Q for c in range(-N, N + 1) if c]
        reached |= {(s + step) % Q for s in reached for step in steps}
        reached.update(steps)
    return reached


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin on the first 13 primes as bases: exact below
    3.3e24 (Sorenson-Webster 2015), a strong probable prime above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    candidate = max(n + 1, 2)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def generate_generic_weights(total_weight_count, N):
    """Base-B construction: weights B^j/Q are generic by digit uniqueness."""
    if total_weight_count < 1:
        raise ValueError("need at least one weight")
    B = N + 1
    powers = [B ** j for j in range(1, total_weight_count + 1)]
    Q = _next_prime(N * sum(powers))
    return [Fraction(p, Q) for p in powers]


def _point_splits(positions, part_ranks):
    """Distribute one point's weight positions into parts of the given
    ranks, each part's positions ascending."""
    if not part_ranks:
        yield ()
        return
    for chosen in itertools.combinations(positions, part_ranks[0]):
        rest = tuple(x for x in positions if x not in chosen)
        for tail in _point_splits(rest, part_ranks[1:]):
            yield (chosen,) + tail


def enumerate_weight_splits(datum, part_ranks):
    """All ways to distribute the weights at each point into the given part ranks.

    Requires multiplicity-one data; returns a fresh list whose entries are
    tuples of WeightDatum, one per part, in the order of part_ranks.  Parts
    are keyed by the positions of their weights in datum, so each distinct
    part is built once per call, and a part that takes every weight is
    datum itself.
    """
    part_ranks = tuple(int(r) for r in part_ranks)
    if datum.points and sum(part_ranks) != datum.rank:
        raise RankMismatch(
            f"part ranks sum to {sum(part_ranks)}, datum rank is {datum.rank}"
        )
    for point in datum.points:
        if any(m != 1 for _, m in point):
            raise RankMismatch("weight splitting requires multiplicity-one data")
    whole = tuple(tuple(range(len(point))) for point in datum.points)
    per_point = [list(_point_splits(at, part_ranks)) for at in whole]
    built = {whole: datum}

    def part(positions):
        if positions not in built:
            built[positions] = WeightDatum(tuple(
                tuple(point[i] for i in at)
                for point, at in zip(datum.points, positions)
            ))
        return built[positions]

    return [
        tuple(
            part(tuple(point_split[j] for point_split in combo))
            for j in range(len(part_ranks))
        )
        for combo in itertools.product(*per_point)
    ]
