"""Exact single-shot thermodynamics for energy-incoherent states.

Thermomajorization curves over exact rationals, Renyi divergences and entropy
production, synthesis and verification of zero-dissipation multi-level work
reservoirs, catalytic feasibility, an independent LP oracle, and a qubit
Carnot engine.
"""

from .catalysis import CtoVerdict, cto_feasible, coincide_iff_alpha_equal, strip_catalyst
from .curves import (
    Curve,
    Segment,
    breakpoints,
    canonical_curve,
    coincide,
    curve_of,
    divide,
    evaluate,
    identity_curve,
    majorizes,
    num_distinct_slopes,
    product,
    realize_state,
)
from .divergences import (
    DEFAULT_ALPHA_GRID,
    AlphaProfile,
    alpha_free_energy,
    alpha_profile,
    curve_alpha_divergence,
    entropy_production,
    jarzynski_ratio_check,
    renyi,
    shannon_entropy,
)
from .engine import EngineReport, EngineSpec, LevelRow, reservoir_level_table, run_carnot
from .errors import (
    CatalystMarginalMismatch,
    CurvesDiffer,
    DimensionCapExceeded,
    DimensionMismatch,
    GibbsInput,
    InvalidCurve,
    InvalidOrder,
    InvalidTemperatures,
    NegativeProbability,
    NonPositiveWeight,
    NontrivialHamiltonian,
    NotProductState,
    OutsideDomain,
    ParseError,
    ProbSumNotOne,
    ReproductionMismatch,
    ThermomajorError,
    WidthMismatch,
    ZeroProbability,
)
from .oracle import lp_feasible, random_rational_gibbs_matrix, recovery_map
from .reservoirs import (
    Reservoir,
    alt_product_reservoir,
    average_work,
    characterize_formation_family,
    dimension_lower_bound,
    general_efficient_reservoir,
    joint_states,
    minimal_extraction_reservoir,
    two_level_extraction_bound,
    two_level_formation_bound,
    verify_efficient,
)
from .states import (
    Rat,
    ThermoState,
    Transition,
    as_rat,
    clock_lift,
    gibbs_of,
    is_gibbs,
    make_state,
    state_from_json,
    state_to_json,
    tensor,
)

__version__ = "0.1.0"
