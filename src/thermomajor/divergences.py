"""Renyi alpha-divergences, entropy production, and alpha free energies.

Divergences are evaluated in double precision from exact rationals; the exact
side of the alpha = 0 and alpha = infinity endpoints (the rational inside the
log) is exposed separately for callers that need exact comparisons.  Natural
logs throughout.

A pair (p, q), or a curve against its equilibrium, is read once into one
private term list (log-ratios, the exact D_0 mass and D_inf ratio, support
flags; each built on first use).  One kernel evaluates any order from a list
and one comparison decides from two lists which D_alpha is larger (exactly
at alpha = 0 and infinity, within ``_ORDER_TOL`` elsewhere); a caller that
reads many orders, the catalytic checks among them, builds one list per state.

Conventions at zeros: 0*ln(0) = 0; for alpha >= 1 a probability outside the
reference support gives +inf; for alpha < 0 a reference level that carries
no probability gives +inf (the formula's negative power diverges).  A
curve's flat tail carries no segment, so the curve form has no such level
and stays finite at negative orders.

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
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .curves import Curve, _ratio, curve_of
from .errors import DimensionMismatch, InvalidOrder, OutsideDomain
from .states import ThermoState, Transition, _exact_sum, gibbs_of

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

#: Absolute slack within which :func:`_order_compare` reads two D_alpha values
#: as equal, at every order other than 0 and inf.
_ORDER_TOL = 1e-12

#: Absolute slack on each order's log ratio in :func:`jarzynski_ratio_check`.
_RATIO_TOL = 1e-9


def ln_frac(x: Fraction) -> float:
    """Natural log of a positive rational to a few ulps, near 1 and for huge ones."""
    if x <= 0:
        raise OutsideDomain(f"ln of non-positive rational {x}")
    return _ln_ratio(x.numerator, x.denominator)


def _ln_ratio(num: int, den: int) -> float:
    """ln(num / den) for positive ints to within a few ulps: near 1 from
    log1p of the exact (num - den) / den, within double range from the
    correctly rounded quotient, and beyond it from the two logs."""
    if den < 2 * num and num < 2 * den:
        return math.log1p((num - den) / den)
    if abs(num.bit_length() - den.bit_length()) < 1000:
        return math.log(num / den)
    return math.log(num) - math.log(den)


def shannon_entropy(probs: Iterable[Fraction]) -> float:
    """Shannon entropy in nats, with 0*ln(0) = 0."""
    return -sum(float(p) * ln_frac(p) for p in probs if p > 0) + 0.0  # + 0.0: no -0.0


class _Terms:
    """A pair (p, q) read once for every order: ``logs`` (p_i, ln(p_i / q_i))
    where both are positive, the ratio kept as ints until its log is taken;
    ``mass``, the exact q-mass of p's support (D_0), and ``ratio``, the exact
    max p_i / q_i (D_inf; None if p escapes q's support), each built on first
    use; ``escapes`` / ``misses``: p / q has mass where the other has none."""

    def __init__(self, p: ThermoState, q: ThermoState) -> None:
        if p.dim != q.dim:
            raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
        self.pairs = pairs = tuple(zip(p.probs, q.probs))
        self.escapes = any(pi and not qi for pi, qi in pairs)
        self.misses = any(qi and not pi for pi, qi in pairs)
        self.ratios = (
            (pi, pi.numerator * qi.denominator, pi.denominator * qi.numerator)
            for pi, qi in pairs if pi and qi
        )

    @cached_property
    def logs(self) -> list[tuple[Fraction, float]]:
        return [(h, _ln_ratio(a, b)) for h, a, b in self.ratios]

    @cached_property
    def mass(self) -> Fraction:
        return sum((qi for pi, qi in self.pairs if pi), Fraction(0))

    @cached_property
    def ratio(self) -> Optional[Fraction]:
        return None if self.escapes else max(_ratio(pi, qi) for pi, qi in self.pairs if pi)


class _CurveTerms(_Terms):
    """A curve against its equilibrium: one term per segment, p_i / q_i = k_i Z,
    and no level outside either support (the flat tail carries no segment)."""

    escapes = misses = False

    def __init__(self, curve: Curve) -> None:
        self.curve, z = curve, curve.total_width
        zn, zd = z.numerator, z.denominator  # Fraction properties: read once, not per segment
        self.ratios = (
            (s.height, s.slope.numerator * zn, s.slope.denominator * zd) for s in curve.segments
        )

    @cached_property
    def mass(self) -> Fraction:
        return self.curve.sloped_width / self.curve.total_width

    @cached_property
    def ratio(self) -> Fraction:
        return self.curve.segments[0].slope * self.curve.total_width


def d0_support_mass(p: ThermoState, q: ThermoState) -> Fraction:
    """Exact inner argument of D_0: the q-mass of p's support."""
    return _Terms(p, q).mass


def dinf_max_ratio(p: ThermoState, q: ThermoState) -> Optional[Fraction]:
    """Exact inner argument of D_inf: max p_i/q_i on p's support, None if infinite."""
    return _Terms(p, q).ratio


def _divergence(alpha: float, pair: _Terms) -> float:
    """D_alpha(p || q) in nats from the pair's term list, the one place that
    knows the order's rules; nan and -inf orders raise InvalidOrder.

    S = sum_i p_i r_i^(alpha-1) over the ratios r_i is read as 1 + (S - 1),
    S - 1 summed from the exact mass p has outside q's support and expm1
    terms and its log taken by log1p, so D_alpha stays accurate as alpha
    nears 1.  Where a term overflows, or S is near 0 and log1p would lose
    it, the sum runs in max-shifted log-sum-exp form, which tiny weights need.
    """
    if math.isnan(alpha) or alpha == -math.inf:
        raise InvalidOrder(f"alpha must be a real number or inf, got {alpha}")
    if (pair.escapes and alpha >= 1) or (pair.misses and alpha < 0):
        return math.inf
    if alpha == 0:
        mass = pair.mass
        return -ln_frac(mass) + 0.0 if mass else math.inf  # + 0.0: no -0.0
    if alpha == math.inf:
        return ln_frac(pair.ratio)
    terms = pair.logs
    if alpha == 1:
        return sum(float(h) * ln_r for h, ln_r in terms)
    if not terms:
        return math.inf
    # The terms carry all of p's mass unless p escapes q's support.
    deficit = float(_exact_sum(h for h, _ in terms) - 1) if pair.escapes else 0.0
    try:
        excess = deficit + math.fsum(
            float(h) * math.expm1((alpha - 1.0) * ln_r) for h, ln_r in terms
        )
    except OverflowError:
        excess = math.inf
    if -0.5 < excess < math.inf:
        total = math.log1p(excess)
    else:
        logs = [ln_frac(h) + (alpha - 1.0) * ln_r for h, ln_r in terms]
        top = max(logs)
        total = top + math.log(sum(math.exp(x - top) for x in logs))
    return (-total if alpha < 0 else total) / (alpha - 1.0) + 0.0  # + 0.0: no -0.0


def renyi(alpha: float, p: ThermoState, q: ThermoState) -> float:
    """Classical Renyi divergence D_alpha(p || q) in nats (may be +inf)."""
    return _divergence(alpha, _Terms(p, q))


def _order_compare(alpha: float, p: _Terms, q: _Terms) -> tuple[float, float, int]:
    """D_alpha of two term lists against one reference and the sign of their
    difference: exact at alpha = 0 (the larger support mass has the smaller
    D_0) and at alpha = inf (from the max ratio; None is +inf).  Elsewhere a
    value must exceed the other by more than ``_ORDER_TOL`` to count as
    larger, so two infinities are equal."""
    d_p, d_q = _divergence(alpha, p), _divergence(alpha, q)
    if alpha == 0:
        return d_p, d_q, (p.mass < q.mass) - (p.mass > q.mass)
    if alpha == math.inf:
        if p.ratio is None or q.ratio is None:
            return d_p, d_q, (p.ratio is None) - (q.ratio is None)
        return d_p, d_q, (p.ratio > q.ratio) - (p.ratio < q.ratio)
    return d_p, d_q, (d_p > d_q + _ORDER_TOL) - (d_q > d_p + _ORDER_TOL)


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
    pair = _Terms(p, gibbs_of(p) if q is None else q)
    grid = tuple(float(a) for a in alphas)
    return AlphaProfile(grid, tuple(_divergence(a, pair) for a in grid))


def curve_alpha_divergence(curve: Curve, alpha: float) -> float:
    """D_alpha against equilibrium computed from curve data alone.

    Only the elbow points matter: with segments (y_i, k_i) and width Z the
    value is ln(sum_i y_i (k_i Z)^(alpha-1)) / (alpha-1), with the usual
    limits at alpha in {0, 1, inf}.  Because zero-probability levels carry no
    segment, this is the analytic continuation that the curve algebra obeys
    for every real alpha, including negative orders.
    """
    return _divergence(alpha, _CurveTerms(curve))


def jarzynski_ratio_check(
    res,
    sys: ThermoState,
    alphas: Sequence[float] = tuple(a for a in DEFAULT_ALPHA_GRID if a >= 0),
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
    work = res.work_transition()
    system, init, fin = (_CurveTerms(curve_of(s)) for s in (sys, work.initial, work.final))
    # The log of the right-hand side is -D_alpha(sys || tau) from the curve,
    # at every order and in both sign conventions.
    sides = [
        (_divergence(alpha, fin) - _divergence(alpha, init), -_divergence(alpha, system))
        for alpha in alphas
    ]
    return any(
        all(abs(sign * lhs - rhs) <= _RATIO_TOL for lhs, rhs in sides) for sign in (1.0, -1.0)
    )
