"""Exact single-shot thermodynamics for energy-incoherent states.

Thermomajorization curves over exact rationals, Renyi divergences and entropy
production, synthesis and verification of zero-dissipation multi-level work
reservoirs, catalytic feasibility, an independent LP oracle, and a qubit
Carnot engine.

Submodules load on first use: ``import thermomajor`` imports none of them,
and reading a public name (``thermomajor.curve_of``, ``from thermomajor
import curve_of``) imports only the module that defines it (PEP 562).
"""

import importlib

_EXPORTS = {
    "catalysis": ("CtoVerdict", "cto_feasible"),
    "curves": (
        "Curve", "Segment", "breakpoints", "canonical_curve", "coincide", "curve_of", "divide",
        "evaluate", "identity_curve", "majorizes", "num_distinct_slopes", "product",
        "realize_state",
    ),
    "divergences": (
        "DEFAULT_ALPHA_GRID", "AlphaProfile", "alpha_free_energy", "alpha_profile",
        "curve_alpha_divergence", "entropy_production", "renyi", "shannon_entropy",
    ),
    "engine": ("EngineReport", "EngineSpec", "LevelRow", "reservoir_level_table", "run_carnot"),
    "errors": (
        "DimensionCapExceeded", "DimensionMismatch", "GibbsInput", "InvalidCurve", "InvalidOrder",
        "InvalidTemperatures", "NegativeProbability", "NonPositiveWeight", "NontrivialHamiltonian",
        "OutsideDomain", "ParseError", "ProbSumNotOne", "ReproductionMismatch", "ThermomajorError",
        "WidthMismatch", "ZeroProbability",
    ),
    "oracle": ("lp_feasible", "random_rational_gibbs_matrix", "recovery_map"),
    "reservoirs": (
        "Reservoir", "alt_product_reservoir", "average_work", "characterize_formation_family",
        "dimension_lower_bound", "general_efficient_reservoir", "joint_states",
        "minimal_extraction_reservoir", "two_level_extraction_bound", "two_level_formation_bound",
        "verify_efficient",
    ),
    "states": (
        "ThermoState", "Transition", "as_rat", "clock_lift", "gibbs_of", "make_state", "tensor",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """A public name read from its module, or a submodule by its name."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
