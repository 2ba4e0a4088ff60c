"""Exact motivic classes of parabolic Higgs bundle moduli spaces.

Computation happens in (a completed localization of) the Grothendieck ring of
varieties: localize along the Higgs-field scaling action, evaluate the
fixed-point chain stacks by wall-crossing, and assemble.  Everything is exact
rational or integer polynomial arithmetic.
"""

from .errors import (
    BudgetExceeded,
    DeskScaleExceeded,
    DivisionOutsideRing,
    EngineError,
    InconsistentZeta,
    InvalidFlagType,
    MissingZetaData,
    NonConvergentEvaluation,
    NonGenericWeights,
    NonIntegerDimension,
    NonPolynomialResult,
    RankMismatch,
    UnboundedSearch,
    UnsupportedParabolicLink,
    WallHit,
)
from .motive import (
    CurveData,
    MotiveClass,
    Ring,
    parse_class,
    ring,
    specialize_E,
    specialize_count,
    sym_cxp_coeff,
    zeta_eval,
)
from .parabolic import (
    ChainType,
    Param,
    WeightDatum,
    certify_generic,
    dual_weight_datum,
    enumerate_weight_splits,
    generate_generic_weights,
    genericity_check,
    par_slope,
    pardeg,
    require_full_flags,
)
from .stacks import (
    bundle_stack_class,
    flag_class,
    gl_class,
    pbundle_stack_class,
    phecke_class,
)
from .chains import (
    chi_ext_fiber,
    chi_hom_rr,
    chi_skyscrapers,
    enumerate_degree_vectors,
    necessary_conditions,
    slopes_decrease,
)
from .walls import Ray, choose_ray, cross_ray, is_on_wall, wall_positions
from .engine import ChainEngine
from .higgs import (
    HiggsProblem,
    chain_stability,
    enumerate_fixed_types,
    half_dimension,
    higgs_computation,
    higgs_moduli_class,
)
from . import oracles

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
