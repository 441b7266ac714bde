"""Renyi alpha-divergences, entropy production, and alpha free energies.

Divergences are evaluated in double precision from exact rationals; the exact
side of the alpha = 0 and alpha = infinity endpoints (the rational inside the
log) is exposed separately for callers that need exact comparisons.  Natural
logs throughout.

Conventions at zeros: 0*ln(0) = 0; for alpha >= 1 a probability outside the
reference support gives +inf; for alpha < 0 any zero probability on the
reference support gives +inf (the formula's negative power diverges).

Negative orders use the sign-flipped variant sgn(alpha)/(alpha-1) * ln(sum),
the member of the extended free-energy family that is nonnegative and
decreases under every Gibbs-stochastic map; the unsigned formula would point
the monotonicity condition the wrong way for alpha < 0.  Values are therefore
nondecreasing in alpha only on alpha >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .curves import Curve, curve_of
from .errors import DimensionMismatch
from .states import ThermoState, Transition, gibbs_of

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "AlphaProfile",
    "ln_frac",
    "shannon_entropy",
    "renyi",
    "d0_support_mass",
    "dinf_max_ratio",
    "entropy_production",
    "alpha_free_energy",
    "alpha_profile",
    "curve_alpha_divergence",
    "jarzynski_ratio_check",
]

#: Grid used by the catalytic-feasibility and curve-coincidence checks.
DEFAULT_ALPHA_GRID: tuple[float, ...] = (
    -2.0,
    -1.0,
    -0.5,
    0.0,
    0.25,
    0.5,
    1.0,
    2.0,
    4.0,
    math.inf,
)


def ln_frac(x: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators."""
    if x <= 0:
        raise ValueError(f"ln of non-positive rational {x}")
    return math.log(x.numerator) - math.log(x.denominator)


def shannon_entropy(probs: Iterable[Fraction]) -> float:
    """Shannon entropy in nats, with 0*ln(0) = 0."""
    return -sum(float(p) * ln_frac(p) for p in probs if p > 0)


def _log_sum_exp(logs: Sequence[float]) -> float:
    """ln(sum_i exp(x_i)), shifted by the largest x_i so no term overflows."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _check_dims(p: ThermoState, q: ThermoState) -> None:
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")


def d0_support_mass(p: ThermoState, q: ThermoState) -> Fraction:
    """Exact inner argument of D_0: the q-mass of p's support."""
    _check_dims(p, q)
    return sum((qi for pi, qi in zip(p.probs, q.probs) if pi > 0), Fraction(0))


def dinf_max_ratio(p: ThermoState, q: ThermoState) -> Optional[Fraction]:
    """Exact inner argument of D_inf: max p_i/q_i on p's support, None if infinite."""
    _check_dims(p, q)
    best: Optional[Fraction] = None
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0:
            continue
        if qi == 0:
            return None
        ratio = pi / qi
        if best is None or ratio > best:
            best = ratio
    return best


def renyi(alpha: float, p: ThermoState, q: ThermoState) -> float:
    """Classical Renyi divergence D_alpha(p || q) in nats (may be +inf)."""
    _check_dims(p, q)
    if alpha == 1:
        total = 0.0
        for pi, qi in zip(p.probs, q.probs):
            if pi == 0:
                continue
            if qi == 0:
                return math.inf
            total += float(pi) * ln_frac(pi / qi)
        return total
    if alpha == 0:
        mass = d0_support_mass(p, q)
        if mass == 0:
            return math.inf
        return -ln_frac(mass) + 0.0  # avoid -0.0 for full-support states
    if math.isinf(alpha) and alpha > 0:
        ratio = dinf_max_ratio(p, q)
        if ratio is None:
            return math.inf
        return ln_frac(ratio)
    if alpha < 0:
        if any(pi == 0 and qi > 0 for pi, qi in zip(p.probs, q.probs)):
            return math.inf
    if alpha > 1:
        if any(pi > 0 and qi == 0 for pi, qi in zip(p.probs, q.probs)):
            return math.inf
    logs = [
        alpha * ln_frac(pi) + (1.0 - alpha) * ln_frac(qi)
        for pi, qi in zip(p.probs, q.probs)
        if pi > 0 and qi > 0
    ]
    if not logs:
        return math.inf
    if alpha < 0:
        return _log_sum_exp(logs) / (1.0 - alpha)
    return _log_sum_exp(logs) / (alpha - 1.0)


def entropy_production(t: Transition) -> float:
    """D_1(initial || tau) - D_1(final || tau) for the shared Gibbs state.

    Feasibility of the transition is deliberately not checked here; callers
    decide it with the curve criterion or the LP oracle.  Nonnegative for
    every transition a Gibbs-stochastic matrix can implement.
    """
    tau = gibbs_of(t.initial)
    return renyi(1.0, t.initial, tau) - renyi(1.0, t.final, tau)


def alpha_free_energy(alpha: float, p: ThermoState) -> float:
    """Free energy offset by equilibrium: -ln(Z) + D_alpha(p || tau), k_B*T = 1."""
    return -ln_frac(p.z) + renyi(alpha, p, gibbs_of(p))


@dataclass(frozen=True)
class AlphaProfile:
    """Divergence values sampled over an alpha grid."""

    alphas: tuple[float, ...]
    values: tuple[float, ...]


def alpha_profile(
    p: ThermoState,
    q: Optional[ThermoState] = None,
    alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
) -> AlphaProfile:
    """Evaluate D_alpha(p || q) over a grid; q defaults to p's Gibbs state."""
    reference = gibbs_of(p) if q is None else q
    grid = tuple(float(a) for a in alphas)
    return AlphaProfile(grid, tuple(renyi(a, p, reference) for a in grid))


def curve_alpha_divergence(curve: Curve, alpha: float) -> float:
    """D_alpha against equilibrium computed from curve data alone.

    Only the elbow points matter: with segments (y_i, k_i) and width Z the
    value is ln(sum_i y_i (k_i Z)^(alpha-1)) / (alpha-1), with the usual
    limits at alpha in {0, 1, inf}.  Because zero-probability levels carry no
    segment, this is the analytic continuation that the curve algebra obeys
    for every real alpha, including negative orders.
    """
    z = curve.total_width
    lnz = ln_frac(z)
    if alpha == 1:
        return sum(float(s.height) * (ln_frac(s.slope) + lnz) for s in curve.segments)
    if alpha == 0:
        return lnz - ln_frac(curve.sloped_width)
    if math.isinf(alpha) and alpha > 0:
        return ln_frac(curve.segments[0].slope) + lnz
    total = _log_sum_exp(
        [ln_frac(s.height) + (alpha - 1.0) * (ln_frac(s.slope) + lnz) for s in curve.segments]
    )
    if alpha < 0:
        return total / (1.0 - alpha)
    return total / (alpha - 1.0)


def jarzynski_ratio_check(
    res,
    sys: ThermoState,
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf),
    rel_tol: float = 1e-9,
) -> bool:
    """Check the fluctuation-style ratio identity for formation/extraction reservoirs.

    For any zero-dissipation reservoir taking ``sys`` to or from equilibrium,
    the ratio exp(F_alpha(final work state)) / exp(F_alpha(initial work state))
    is a fixed function of the system curve alone:
    (sum_i y_i m_i^(alpha-1))^(1/(1-alpha)) / Z with (y_i, m_i) the system
    curve segments.  Formation-direction reservoirs satisfy it as stated;
    extraction reservoirs are the same reservoirs run backwards and satisfy
    the reciprocal, so either orientation is accepted.  Free energies here are
    curve-based (elbow data only), which is what the identity constrains.
    """
    sys_curve = curve_of(sys)
    curve_init, curve_fin = curve_of(res.initial_state()), curve_of(res.final_state())

    deviations_forward = []
    deviations_reverse = []
    for alpha in alphas:
        lhs = curve_alpha_divergence(curve_fin, alpha) - curve_alpha_divergence(
            curve_init, alpha
        )
        # The log of the right-hand side is -D_alpha(sys || tau) from the
        # curve, at every order and in both sign conventions.
        rhs = -curve_alpha_divergence(sys_curve, alpha)
        deviations_forward.append(abs(lhs - rhs))
        deviations_reverse.append(abs(-lhs - rhs))
    tol = rel_tol
    return all(d <= tol for d in deviations_forward) or all(
        d <= tol for d in deviations_reverse
    )
