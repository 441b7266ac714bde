"""Multi-level work reservoirs and zero-dissipation synthesis.

A reservoir over 2d levels holds a fixed distribution ``r`` that moves from
the first d levels (weights ``init_weights``) to the second d levels
(``fin_weights``); its entropy is conserved by construction.  A reservoir is
*efficient* for a transition when tensoring it onto the endpoints makes the
joint initial and final thermomajorization curves coincide, which is decided
exactly by :func:`verify_efficient`.  The constructions here never
self-certify; tests always go through the verifier.

Verification runs through the curve monoid: the curve of system (x)
reservoir is ``product(curve_of(system), curve_of(reservoir))``, so no joint
state is built.  Sloped width (the D_0 rational) is multiplicative under
that product, which gives an exact O(n) rejection before either product is
formed.  :func:`joint_states` keeps the materialised tensor product as an
independent cross-check.

Synthesis routes:

* :func:`minimal_extraction_reservoir` builds the unique 2m-level reservoir
  for extraction from a state whose curve has m distinct slopes (run it
  backwards for state formation).
* :func:`general_efficient_reservoir` handles an arbitrary shared-weights
  transition by refining both cumulative distributions on a common grid.
* :func:`alt_product_reservoir` is a larger 2n^2-level alternative for equal
  level weights, showing efficiency does not pin the reservoir down.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from .curves import Curve, coincide, curve_of, divide, num_distinct_slopes, product
from .divergences import ln_frac, renyi
from .errors import (
    DimensionMismatch,
    GibbsInput,
    NegativeProbability,
    NonPositiveWeight,
    NontrivialHamiltonian,
    ProbSumNotOne,
    ZeroProbability,
)
from .states import (
    ThermoState,
    Transition,
    _check_rationals,
    _exact_sum,
    gibbs_of,
    is_gibbs,
    tensor,
)

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Reservoir:
    """A 2d-level work reservoir: distribution ``r`` shifted between level blocks."""

    r: tuple[Fraction, ...]
    init_weights: tuple[Fraction, ...]
    fin_weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not (len(self.r) == len(self.init_weights) == len(self.fin_weights)):
            raise DimensionMismatch("r, init_weights, fin_weights must share a length")
        if len(self.r) < 1:
            raise DimensionMismatch("reservoir needs at least one occupied level")
        _check_rationals(self.r + self.init_weights + self.fin_weights)
        for x in self.r:
            if x.numerator <= 0:
                raise NegativeProbability(f"reservoir probability {x} must be positive")
        total = _exact_sum(self.r)
        if total != _ONE:
            raise ProbSumNotOne(f"reservoir distribution sums to {total}")
        for w in self.init_weights + self.fin_weights:
            if w.numerator <= 0:
                raise NonPositiveWeight(f"reservoir weight {w} must be positive")

    @property
    def dim(self) -> int:
        return 2 * len(self.r)

    @property
    def level_weights(self) -> tuple[Fraction, ...]:
        return self.init_weights + self.fin_weights

    def initial_state(self) -> ThermoState:
        zeros = (_ZERO,) * len(self.r)
        return ThermoState(self.r + zeros, self.level_weights)

    def final_state(self) -> ThermoState:
        zeros = (_ZERO,) * len(self.r)
        return ThermoState(zeros + self.r, self.level_weights)


def two_level_extraction_bound(p: ThermoState) -> float:
    """Best deterministic work a two-level reservoir can extract: D_0(p || tau)."""
    return renyi(0.0, p, gibbs_of(p))


def two_level_formation_bound(p: ThermoState) -> float:
    """Deterministic work a two-level reservoir needs to form p: D_inf(p || tau)."""
    import math

    return renyi(math.inf, p, gibbs_of(p))


def dimension_lower_bound(p: ThermoState) -> int:
    """Minimal dimension of any efficient extraction/formation reservoir: 2m.

    m is the number of distinct slopes of p's curve; a reservoir of dimension
    2(m-1) or less cannot make the joint curves coincide because the final
    joint curve would have fewer distinct slopes than the initial one.
    """
    return 2 * num_distinct_slopes(curve_of(p))


def minimal_extraction_reservoir(p: ThermoState, c: Fraction = _ONE) -> Reservoir:
    """The unique minimal-dimension efficient reservoir for extraction p -> tau.

    With curve segments (r_i, a_i), the occupied initial levels get weights
    r_i / c (one shared slope c, a straight initial work curve) and the final
    levels r_i / (c Z a_i), so the final work curve copies the system curve's
    slope pattern scaled by c Z.  ``c`` is a free gauge; energies shift by a
    constant under rescaling.
    """
    c = Fraction(c)
    if c <= 0:
        raise NonPositiveWeight(f"gauge constant c={c} must be positive")
    if is_gibbs(p):
        raise GibbsInput("state is already Gibbs; extraction reservoir is trivial")
    curve = curve_of(p)
    z = p.z
    r = tuple(seg.height for seg in curve.segments)
    init_weights = tuple(x / c for x in r)
    fin_weights = tuple(
        x / (c * z * seg.slope) for x, seg in zip(r, curve.segments)
    )
    return Reservoir(r, init_weights, fin_weights)


def general_efficient_reservoir(
    t: Transition, anchor_weight: Fraction = _ONE
) -> Reservoir:
    """An efficient reservoir for an arbitrary shared-weights transition.

    Both cumulative distributions are refined on the merged grid of their
    breakpoints, giving a distribution ``r`` whose cells aggregate back to the
    final probabilities under one coarse-graining (lambda) and to the initial
    probabilities under another (lambda').  Each cell's initial weight is
    chosen so all cells mapped to final level i share the slope
    kappa * p'_i / g_i, and symmetrically for final weights with the initial
    probabilities; that forces the joint curves to coincide.

    Levels with zero probability on both sides vanish from the grid; a zero
    on one side only is harmless because every refinement cell has positive
    mass and therefore lands inside a positive-probability interval of each
    cumulative distribution.

    ``anchor_weight`` fixes the translation gauge: the first occupied level's
    initial weight equals it exactly.  Equal endpoints yield the trivial
    two-level reservoir.
    """
    anchor_weight = Fraction(anchor_weight)
    if anchor_weight <= 0:
        raise NonPositiveWeight(f"anchor weight {anchor_weight} must be positive")
    p = t.initial.probs
    q = t.final.probs
    g = t.weights
    if p == q:
        return Reservoir((_ONE,), (anchor_weight,), (anchor_weight,))

    def cumulative(vec: tuple[Fraction, ...]) -> list[Fraction]:
        out = []
        run = _ZERO
        for x in vec:
            run += x
            out.append(run)
        return out

    cum_p = cumulative(p)
    cum_q = cumulative(q)
    grid = sorted((set(cum_p) | set(cum_q)) - {_ZERO})
    cells = []
    previous = _ZERO
    for value in grid:
        cells.append(value - previous)
        previous = value

    def level_for(cum: list[Fraction], value: Fraction) -> int:
        # The unique level whose cumulative interval contains `value`;
        # bisect_left skips zero-probability duplicates.
        return bisect_left(cum, value)

    lam = [level_for(cum_q, value) for value in grid]
    lam_prime = [level_for(cum_p, value) for value in grid]

    # Slopes kappa * q_i / g_i on initial levels, kappa * p_i / g_i on final
    # levels; kappa set so the first initial weight equals the anchor.
    i0 = lam[0]
    kappa = cells[0] * g[i0] / (q[i0] * anchor_weight)
    init_weights = tuple(
        cell * g[i] / (kappa * q[i]) for cell, i in zip(cells, lam)
    )
    fin_weights = tuple(
        cell * g[i] / (kappa * p[i]) for cell, i in zip(cells, lam_prime)
    )
    return Reservoir(tuple(cells), init_weights, fin_weights)


def alt_product_reservoir(t: Transition) -> Reservoir:
    """A 2n^2-level efficient reservoir for equal level weights.

    The occupied distribution is the product p (x) p'; level (i, j) carries
    initial weight p_i and final weight p'_j, which already satisfies the
    slope-matching conditions.  Demonstrates non-uniqueness: the average work
    is still H(p') - H(p).
    """
    p = t.initial.probs
    q = t.final.probs
    g = t.weights
    if any(w != g[0] for w in g):
        raise NontrivialHamiltonian("all level weights must be equal")
    if any(x == 0 for x in p) or any(x == 0 for x in q):
        raise ZeroProbability("both endpoint distributions must be strictly positive")
    r = tuple(pi * qj for pi in p for qj in q)
    init_weights = tuple(pi for pi in p for _ in q)
    fin_weights = tuple(qj for _ in p for qj in q)
    return Reservoir(r, init_weights, fin_weights)


def joint_states(t: Transition, res: Reservoir) -> tuple[ThermoState, ThermoState]:
    """System (x) reservoir endpoints over the shared joint level set."""
    return tensor(t.initial, res.initial_state()), tensor(t.final, res.final_state())


def verify_efficient(t: Transition, res: Reservoir) -> bool:
    """Exact zero-dissipation check: do the joint curves coincide?

    The joint curves are the monoid products
    ``product(curve_of(t.initial), curve_of(res.initial_state()))`` and
    ``product(curve_of(t.final), curve_of(res.final_state()))``.  Before
    forming them, one necessary condition is checked in O(n), since the
    product multiplies it: the sloped widths (D_0) of the two sides must
    agree.  Every comparison is exact.

    This is the single source of truth for efficiency; every construction in
    this module is expected to pass it but none is trusted without it.
    """
    sys_i, sys_f = curve_of(t.initial), curve_of(t.final)
    res_i, res_f = curve_of(res.initial_state()), curve_of(res.final_state())
    if sys_i.sloped_width * res_i.sloped_width != sys_f.sloped_width * res_f.sloped_width:
        return False
    return coincide(product(sys_i, res_i), product(sys_f, res_f))


def average_work(res: Reservoir) -> float:
    """Expected energy released by the reservoir, sum_i r_i (e'_i - e_i) in nats.

    Energies are -ln(weight), so each term is ln(init_weight / fin_weight).
    """
    return sum(
        float(x) * (ln_frac(wi) - ln_frac(wf))
        for x, wi, wf in zip(res.r, res.init_weights, res.fin_weights)
    )


def minimal_formation_pair(sys: ThermoState) -> tuple[Curve, Curve]:
    """Work curves (initial, final) of the minimal formation reservoir for sys.

    Formation tau -> sys runs the extraction reservoir backwards: the initial
    work curve copies the system's slope pattern, the final one is straight.
    """
    res = minimal_extraction_reservoir(sys)
    return curve_of(res.final_state()), curve_of(res.initial_state())


def characterize_formation_family(
    sys: ThermoState, candidate_init: Curve, candidate_fin: Curve
) -> bool:
    """Whether a candidate work-curve pair belongs to the formation family.

    Every zero-dissipation formation (equivalently extraction) reservoir for
    ``sys`` has work curves b (x) x1 and b (x) y1 for one common curve b,
    where (x1, y1) is the minimal pair.  Cancellation makes the quotients
    unique, so membership reduces to two exact divisions agreeing.
    """
    x1, y1 = minimal_formation_pair(sys)
    b_init = divide(candidate_init, x1)
    if b_init is None:
        return False
    b_fin = divide(candidate_fin, y1)
    if b_fin is None:
        return False
    return coincide(b_init, b_fin)
