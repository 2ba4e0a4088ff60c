"""Top level: localization of the Higgs moduli class over fixed-point chains.

Scaling the Higgs field gives a torus action whose fixed points decompose into
chains; the moduli class is L^N times the sum of the fixed-locus classes, each
of which is (L-1) times a stable-chain stack class at the staircase stability
parameter (0, 2g-2, ..., r(2g-2)) after the degree twist d_i + n_i (r-i)(2g-2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DeskScaleExceeded, NonIntegerDimension, NonPolynomialResult, WallHit
from .motive import CurveData, ring
from .parabolic import (
    ChainType,
    WeightDatum,
    certify_generic,
    enumerate_weight_splits,
    require_full_flags,
)
from .chains import compositions, enumerate_degree_vectors
from .engine import ChainEngine


@dataclass(frozen=True)
class HiggsProblem:
    curve: CurveData
    rank: int
    degree: int
    datum: WeightDatum

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.datum.num_points != self.curve.num_marked:
            raise ValueError("weight datum must cover every marked point")
        if self.datum.points and self.datum.rank != self.rank:
            raise ValueError("weight datum rank must match the bundle rank")


def half_dimension(n, datum, g):
    """Half of the moduli dimension: n^2(g-1) + 1 + (1/2) sum_p (n^2 - sum m^2)."""
    s = 0
    for point in datum.points:
        s += n * n - sum(m * m for _, m in point)
    if s % 2:
        raise NonIntegerDimension(f"odd flag defect sum {s}")
    return n * n * (g - 1) + 1 + s // 2


def chain_stability(r, g):
    """The staircase parameter (0, 2g-2, ..., r(2g-2))."""
    return tuple(i * (2 * g - 2) for i in range(r + 1))


def enumerate_fixed_types(problem, engine):
    """All chain types of torus-fixed loci, with chain-side degrees.

    Chain degrees are the Higgs-side degrees shifted by n_i (r-i)(2g-2); the
    finitely many degree vectors come from the existence box at the staircase
    parameter.  Each composition's weight splits come from the engine's table,
    which the filtration sums read too.  Whether a box is bounded turns on
    the ranks, the parameter and the point count alone, so the box of the
    first split, each part taking consecutive weights at every point, is
    found before the others are built: an UnboundedSearch comes at once.
    """
    n = problem.rank
    d = problem.degree
    g = problem.curve.genus
    out = []
    for comp in sorted(compositions(n), key=len):
        r = len(comp) - 1
        alpha = chain_stability(r, g)
        shift = (2 * g - 2) * sum(comp[i] * (r - i) for i in range(r + 1))
        cuts = tuple(itertools.accumulate(comp, initial=0))
        first = tuple(WeightDatum(tuple(point[a:b] for point in problem.datum.points))
                      for a, b in zip(cuts, cuts[1:]))
        first_box = enumerate_degree_vectors(comp, d + shift, alpha, first)
        for split in engine._table(enumerate_weight_splits, problem.datum, comp):
            box = (first_box if split == first
                   else enumerate_degree_vectors(comp, d + shift, alpha, split))
            for dvec in box:
                out.append(ChainType(comp, dvec, split))
    return out


@dataclass
class HiggsComputation:
    total: object
    half_dim: int
    summands: list  # (ChainType, MotiveClass) pairs


def require_desk_scale(rank, num_points):
    """DeskScaleExceeded for Higgs moduli of rank 5 or more, or of rank 4
    with marked points; callers check it before any weights are generated
    or types enumerated."""
    if rank >= 5 or (rank == 4 and num_points):
        raise DeskScaleExceeded(
            f"Higgs moduli of rank {rank} with k = {num_points} marked points "
            "are out of scope (rank <= 3, or rank 4 with k = 0)"
        )


def higgs_computation(problem, engine=None):
    require_desk_scale(problem.rank, problem.curve.num_marked)
    common = math.gcd(problem.rank, problem.degree)
    if not problem.datum.points and common > 1:
        raise WallHit(
            f"gcd(rank {problem.rank}, degree {problem.degree}) = {common} "
            "without marked points: every stability parameter is on a wall"
        )
    g = problem.curve.genus
    engine = engine or ChainEngine(problem.curve)
    require_full_flags((problem.datum,))
    certify_generic(problem.datum.all_weights(), problem.rank)
    R = ring(g)
    N = half_dimension(problem.rank, problem.datum, g)
    L_minus_one = R.L - R.one
    summands = [
        (tau, L_minus_one * engine.chain_class(tau, chain_stability(tau.length, g)))
        for tau in enumerate_fixed_types(problem, engine)
    ]
    result = R.L_pow(N) * R.sum(contr for _, contr in summands)
    if not result.is_polynomial():
        raise NonPolynomialResult(
            f"moduli class has a residual denominator: {result}"
        )
    return HiggsComputation(result, N, summands)


def higgs_moduli_class(problem, engine=None):
    """Class of the moduli space of stable parabolic Higgs bundles."""
    return higgs_computation(problem, engine).total
