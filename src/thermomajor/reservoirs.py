"""Multi-level work reservoirs and zero-dissipation synthesis.

A reservoir over 2d levels holds a fixed distribution ``r`` that moves from
the first d levels (weights ``init_weights``) to the second d levels
(``fin_weights``); its entropy is conserved by construction.  A reservoir is
*efficient* for a transition when tensoring it onto the endpoints makes the
joint initial and final thermomajorization curves coincide, which is decided
exactly by :func:`verify_efficient`.  The constructions here never
self-certify; tests always go through the verifier.

Verification runs through the curve monoid: a joint curve of system (x)
reservoir is the product of its factor curves, and the two joint widths
agree by construction, so :func:`verify_efficient` decides on the four
factor slope measures, read straight from the levels as integers.  A
slope-matched reservoir's work measures are the system's final and initial
measures shifted by one slope factor, and that swap certificate settles the
verdict without forming a product; any other reservoir has its two product
measures compared.  It builds no curve, clock lift or joint state.
:func:`joint_states` keeps the materialised tensor product as an
independent cross-check.

Synthesis routes.  Each level of a reservoir carries one cell of a coupling
between the initial and final system distributions, weighted by the one
slope-matching rule :func:`_slope_matched`.  Only slopes matter to the joint
curves, so the coupling is taken between *slope classes*: each side's
occupied levels merged by their slope p_i / g_i, with integer masses over
one denominator and slopes as reduced integer pairs.  The north-west-corner
walk over m initial and m' final classes makes at most m + m' - 1 cells; the
routes differ in the classes they feed it:

* :func:`minimal_extraction_reservoir` walks p's classes, steepest first,
  against tau's single slope 1/Z (m' = 1): the unique 2m-level reservoir
  for extraction from a state whose curve has m distinct slopes (run it
  backwards for formation).
* :func:`general_efficient_reservoir` walks both sides' classes in order of
  first occurrence, for an arbitrary shared-weights transition.  When every
  slope is distinct a class is a level, and the walk is the north-west
  corner of the levels themselves.
* :func:`alt_product_reservoir` takes the product coupling instead: a larger
  2n^2-level alternative for equal level weights, showing efficiency does
  not pin the reservoir down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .curves import Curve, _products_coincide, coincide, curve_of, divide, num_distinct_slopes
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
    _Value,
    _check_rationals,
    _exact_sum,
    _scaled,
    clock_lift,
    gibbs_of,
    tensor,
)

_ONE = Fraction(1)


class Reservoir(_Value):
    """A 2d-level work reservoir: distribution ``r`` shifted between level blocks."""

    _fields = ("r", "init_weights", "fin_weights")

    def __init__(
        self,
        r: tuple[Fraction, ...],
        init_weights: tuple[Fraction, ...],
        fin_weights: tuple[Fraction, ...],
    ) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "init_weights", init_weights)
        object.__setattr__(self, "fin_weights", fin_weights)
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

    def work_transition(self) -> Transition:
        """The reservoir's move as a transition over its 2d levels: ``r`` on
        the initial-weight block, then on the final-weight block."""
        return clock_lift(
            ThermoState(self.r, self.init_weights), ThermoState(self.r, self.fin_weights)
        )


#: A slope as a reduced integer pair (numerator, denominator).
_Slope = tuple[int, int]


def _slope_classes(
    masses: Sequence[int], probs: Sequence[Fraction], weights: Sequence[Fraction]
) -> dict[_Slope, int]:
    """One side's occupied levels merged by slope, in order of first occurrence.

    ``masses`` are the levels' probabilities as integers over one
    denominator; each slope p_i / g_i is an integer pair reduced with one gcd.
    """
    classes: dict[_Slope, int] = {}
    for m, p, w in zip(masses, probs, weights):
        if m:
            num, den = p.numerator * w.denominator, p.denominator * w.numerator
            common = gcd(num, den)
            slope = (num // common, den // common)
            classes[slope] = classes.get(slope, 0) + m
    return classes


def _north_west(
    initials: Iterable[tuple[_Slope, int]], finals: Iterable[tuple[_Slope, int]]
) -> Iterator[tuple[int, _Slope, _Slope]]:
    """The north-west-corner coupling of two (slope, mass) lists of equal total
    mass: each cell (m, s, s') takes what is left of the current initial and
    final class, so the walk makes at most len(initials) + len(finals) - 1."""
    finals = iter(finals)
    s_prime, left_prime = next(finals)
    for s, left in initials:
        while left:
            if not left_prime:
                s_prime, left_prime = next(finals)
            m = min(left, left_prime)
            yield m, s, s_prime
            left -= m
            left_prime -= m


def _slope_matched(
    cells: Iterable[tuple[int, _Slope, _Slope]], den: int, kappa: tuple[int, int]
) -> Reservoir:
    """The reservoir with one level per cell (m, s, s') of a coupling.

    A cell of mass m / den leaves an initial slope class s = p_j / g_j and
    reaches a final class s' = p'_i / g_i; masses are integers over ``den``,
    slopes and the translation gauge ``kappa`` integer pairs.  The cell gets
    initial weight m / (den kappa s') and final weight m / (den kappa s);
    its mass and its two weights are the only Fractions built.  When the
    cells' masses aggregate back to p's slope classes through their initial
    classes and to those of p' through their final ones, both joint curves
    carry mass p_a p'_b at slope kappa s_a s'_b for every pair of classes
    (a, b), so they coincide.
    """
    kappa_num, kappa_den = kappa
    scale = den * kappa_num
    r, init_weights, fin_weights = [], [], []
    for m, (x, d), (x_prime, d_prime) in cells:
        num = m * kappa_den
        r.append(Fraction(m, den))
        init_weights.append(Fraction(num * d_prime, scale * x_prime))
        fin_weights.append(Fraction(num * d, scale * x))
    return Reservoir(tuple(r), tuple(init_weights), tuple(fin_weights))


def two_level_extraction_bound(p: ThermoState) -> float:
    """Best deterministic work a two-level reservoir can extract: D_0(p || tau)."""
    from .divergences import renyi  # loaded on use: verify and build never need it

    return renyi(0.0, p, gibbs_of(p))


def two_level_formation_bound(p: ThermoState) -> float:
    """Deterministic work a two-level reservoir needs to form p: D_inf(p || tau)."""
    from .divergences import renyi

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

    With p's slope classes (its curve segments) (r_i, a_i), steepest first,
    the occupied initial levels get weights r_i / c (one shared slope c, a
    straight initial work curve) and the final levels r_i / (c Z a_i), so
    the final work curve copies the system curve's slope pattern scaled by
    c Z.  These are the class walk's cells against tau's one class, slope
    1/Z, with gauge kappa = c Z.  ``c`` is a free gauge; energies shift by a
    constant under rescaling.
    """
    _check_rationals((c,))
    c = Fraction(c)
    if c <= 0:
        raise NonPositiveWeight(f"gauge constant c={c} must be positive")
    masses, den = _scaled(p.probs)
    classes = _slope_classes(masses, p.probs, p.weights)
    # One slope on the full support makes p_i = g_i / Z.
    if len(classes) == 1 and all(masses):
        raise GibbsInput("state is already Gibbs; extraction reservoir is trivial")
    slope_den = lcm(*[d for _, d in classes])
    steepest_first = sorted(
        classes.items(), key=lambda item: item[0][0] * (slope_den // item[0][1]), reverse=True
    )
    z = p.z
    tau = ((z.denominator, z.numerator), den)
    cells = _north_west(steepest_first, (tau,))
    return _slope_matched(cells, den, (c.numerator * z.numerator, c.denominator * z.denominator))


def general_efficient_reservoir(
    t: Transition, anchor_weight: Fraction = _ONE
) -> Reservoir:
    """An efficient reservoir for an arbitrary shared-weights transition.

    The cells are the north-west-corner coupling of the slope classes of p
    and p': each side's occupied levels merged by slope, in order of first
    occurrence, in exact integers over one common denominator.  The walk
    makes at most m + m' - 1 cells for m and m' distinct slopes, and each
    cell's weights follow the slope-matching rule.  When every slope of a
    side is distinct its classes are its levels, and the reservoir is the
    north-west corner of the levels themselves.

    Levels with zero probability on both sides get no cell; a zero on one
    side only is harmless because every cell has positive mass and therefore
    lies inside a positive-probability class of each distribution.

    ``anchor_weight`` fixes the translation gauge: the first cell's initial
    weight equals it exactly.  Equal endpoints yield the trivial two-level
    reservoir.
    """
    _check_rationals((anchor_weight,))
    anchor_weight = Fraction(anchor_weight)
    if anchor_weight <= 0:
        raise NonPositiveWeight(f"anchor weight {anchor_weight} must be positive")
    p = t.initial.probs
    q = t.final.probs
    g = t.weights
    if p == q:
        return Reservoir((_ONE,), (anchor_weight,), (anchor_weight,))

    masses, den = _scaled(p + q)
    # Both sides hold `den` in all, so the final classes run out exactly
    # with the initial ones.
    initials = _slope_classes(masses, p, g)
    finals = _slope_classes(masses[len(p):], q, g)
    cells = list(_north_west(initials.items(), finals.items()))
    # kappa = m0 / (den s0' anchor) puts the anchor on the first cell.
    m0, _, (x0, d0) = cells[0]
    kappa = (m0 * d0 * anchor_weight.denominator, den * x0 * anchor_weight.numerator)
    return _slope_matched(cells, den, kappa)


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
    # Equal weights cancel from the rule: the slopes are p_i and p'_j
    # themselves, the masses p_i p'_j over d_p d_q, and the gauge is 1.
    p_masses, p_den = _scaled(p)
    q_masses, q_den = _scaled(q)
    initials = [(a, (x.numerator, x.denominator)) for a, x in zip(p_masses, p)]
    finals = [(b, (x.numerator, x.denominator)) for b, x in zip(q_masses, q)]
    cells = ((a * b, s, s_prime) for a, s in initials for b, s_prime in finals)
    return _slope_matched(cells, p_den * q_den, (1, 1))


def joint_states(t: Transition, res: Reservoir) -> tuple[ThermoState, ThermoState]:
    """System (x) reservoir endpoints over the shared joint level set."""
    work = res.work_transition()
    return tensor(t.initial, work.initial), tensor(t.final, work.final)


def verify_efficient(t: Transition, res: Reservoir) -> bool:
    """Exact zero-dissipation check: do the joint curves coincide?

    The joint curves are the system's curves times the reservoir's work
    curves, ``r`` on ``init_weights`` and on ``fin_weights`` (the clock
    lift's zero padding adds no segment).  Both have width Z times the sum
    of all 2d reservoir weights, so they coincide exactly when their slope
    measures are equal.  The four factor measures are read directly from the
    levels as integers, with no curve or state.  First comes the swap
    certificate: the initial work measure is the final system measure
    shifted by a slope factor kappa, and the final work measure is the
    initial system measure shifted by the same kappa; then both joint
    measures are the system pair's product shifted by kappa.  Every
    slope-matched reservoir passes it at O(n log n), and the trivial
    reservoir of an identity transition passes its mirror image.  Otherwise
    one product measure is built and the other subtracted from it, exactly.

    This is the single source of truth for efficiency; every construction in
    this module is expected to pass it but none is trusted without it.
    """
    return _products_coincide(
        (t.initial.probs, t.weights),
        (res.r, res.init_weights),
        (t.final.probs, t.weights),
        (res.r, res.fin_weights),
    )


def average_work(res: Reservoir) -> float:
    """Expected energy released by the reservoir, sum_i r_i (e'_i - e_i) in nats.

    Energies are -ln(weight), so each term is ln(init_weight / fin_weight).
    Weights are positive (``Reservoir`` validates them), so the logs need no
    domain check.
    """
    log = math.log
    return sum(
        float(x)
        * ((log(wi.numerator) - log(wi.denominator)) - (log(wf.numerator) - log(wf.denominator)))
        for x, wi, wf in zip(res.r, res.init_weights, res.fin_weights)
    )


def minimal_formation_pair(sys: ThermoState) -> tuple[Curve, Curve]:
    """Work curves (initial, final) of the minimal formation reservoir for sys.

    Formation tau -> sys runs the extraction reservoir backwards: the initial
    work curve copies the system's slope pattern, the final one is straight.
    """
    work = minimal_extraction_reservoir(sys).work_transition()
    return curve_of(work.final), curve_of(work.initial)


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
