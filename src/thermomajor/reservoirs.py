"""Multi-level work reservoirs and zero-dissipation synthesis.

A reservoir over 2d levels holds a fixed distribution ``r`` that moves from
the first d levels (weights ``init_weights``) to the second d levels
(``fin_weights``); its entropy is conserved by construction.  A reservoir is
*efficient* for a transition when tensoring it onto the endpoints makes the
joint initial and final thermomajorization curves coincide, which is decided
exactly by :func:`verify_efficient`.  The constructions here never
self-certify; tests always go through the verifier.

A reservoir keeps its levels in integers: masses over one denominator and
each weight a reduced (numerator, denominator) pair.  The constructions
here build it from integer cells, with every check of the public
constructor done on the integers; the ``Fraction`` fields ``r``,
``init_weights`` and ``fin_weights`` are made on first access.

Verification runs through the curve monoid: a joint curve of system (x)
reservoir is the product of its factor curves, and the two joint widths
agree by construction, so :func:`verify_efficient` decides on the four
factor slope measures: the system's from each state's cached slope classes,
the reservoir's read from its stored integers, never from the cells it was
built from.  A slope-matched reservoir's work measures are the system's
final and initial measures shifted by one slope factor, and that swap
certificate settles the verdict without forming a product; any other
reservoir has the first moments of its two sides compared, exactly and in
linear time, and only when those agree its two product measures.  It
builds no curve, clock lift or joint state.  :func:`joint_states` keeps the
materialised tensor product as an independent cross-check.

Synthesis routes.  Each level of a reservoir carries one cell of a coupling
between the initial and final system distributions, weighted by the one
slope-matching rule :func:`_slope_matched`.  Only slopes matter to the joint
curves, so the coupling is taken between *slope classes*: each side's
occupied levels merged by their slope p_i / g_i, with integer masses over
one denominator and slopes as reduced integer pairs (the state's cached
reading).  The north-west-corner
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
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .curves import (
    Curve,
    _Measure,
    _measure_of,
    _products_coincide,
    coincide,
    curve_of,
    divide,
    num_distinct_slopes,
)
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
    _read_levels,
    _scaled,
    clock_lift,
    gibbs_of,
    tensor,
)

_ONE = Fraction(1)


#: A positive rational as an integer pair (numerator, denominator).
_Pair = tuple[int, int]


class Reservoir(_Value):
    """A 2d-level work reservoir: distribution ``r`` shifted between level blocks.

    The levels are kept in integers: masses ``_masses`` over one ``_den``
    and each weight a reduced pair.  A reservoir this module builds makes
    its ``Fraction`` fields from them on first access.
    """

    _fields = ("r", "init_weights", "fin_weights")

    def _check(self) -> None:
        r, init_weights, fin_weights = self.r, self.init_weights, self.fin_weights
        if not (len(r) == len(init_weights) == len(fin_weights)):
            raise DimensionMismatch("r, init_weights, fin_weights must share a length")
        _check_rationals(r + init_weights + fin_weights)
        pairs = [[(w.numerator, w.denominator) for w in ws] for ws in (init_weights, fin_weights)]
        self._store(*_scaled(r), *pairs)

    @classmethod
    def _from_cells(cls, masses: list[int], den: int, init: list[_Pair], fin: list[_Pair]):
        """The reservoir of integer levels: masses over ``den`` and weight
        pairs with positive denominators, reduced here.  Every check of the
        public constructor runs, on the integers."""
        res = cls.__new__(cls)
        res._store(masses, den, _reduced(init), _reduced(fin))
        return res

    def _store(self, masses: list[int], den: int, init: list[_Pair], fin: list[_Pair]) -> None:
        if not (len(masses) == len(init) == len(fin)):
            raise DimensionMismatch("r, init_weights, fin_weights must share a length")
        if len(masses) < 1:
            raise DimensionMismatch("reservoir needs at least one occupied level")
        for m in masses:
            if m <= 0:
                raise NegativeProbability(
                    f"reservoir probability {Fraction(m, den)} must be positive"
                )
        total = sum(masses)
        if total != den:
            raise ProbSumNotOne(f"reservoir distribution sums to {Fraction(total, den)}")
        for num, w_den in init + fin:
            if num <= 0:
                raise NonPositiveWeight(
                    f"reservoir weight {Fraction(num, w_den)} must be positive"
                )
        for name, value in (("_masses", masses), ("_den", den), ("_init", init), ("_fin", fin)):
            object.__setattr__(self, name, value)

    @cached_property
    def r(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(m, self._den) for m in self._masses])

    @cached_property
    def init_weights(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(*w) for w in self._init])

    @cached_property
    def fin_weights(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(*w) for w in self._fin])

    @property
    def dim(self) -> int:
        return 2 * len(self._masses)

    def work_transition(self) -> Transition:
        """The reservoir's move as a transition over its 2d levels: ``r`` on
        the initial-weight block, then on the final-weight block."""
        return clock_lift(
            ThermoState(self.r, self.init_weights), ThermoState(self.r, self.fin_weights)
        )

    def _work_measure(self, weights: list[_Pair]) -> _Measure:
        """The slope measure of ``r`` on one weight block, read from the
        stored levels: r_i / w_i is m_i w_den / (den w_num)."""
        den = self._den
        slopes = [(m * w_den, den * num) for m, (num, w_den) in zip(self._masses, weights)]
        return _measure_of(_read_levels(self._masses, slopes), den)


def _reduced(pairs: list[_Pair]) -> list[_Pair]:
    """Each (numerator, denominator) pair divided by its gcd."""
    out = []
    for num, den in pairs:
        common = gcd(num, den)
        out.append((num // common, den // common))
    return out


def _north_west(
    initials: Iterable[tuple[_Pair, int]], finals: Iterable[tuple[_Pair, int]]
) -> Iterator[tuple[int, _Pair, _Pair]]:
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
    cells: Iterable[tuple[int, _Pair, _Pair]], den: int, kappa: _Pair
) -> Reservoir:
    """The reservoir with one level per cell (m, s, s') of a coupling.

    A cell of mass m / den leaves an initial slope class s = p_j / g_j and
    reaches a final class s' = p'_i / g_i; masses are integers over ``den``,
    slopes and the translation gauge ``kappa`` integer pairs.  The cell gets
    initial weight m / (den kappa s') and final weight m / (den kappa s), as
    integer pairs; no Fraction is built.  When the cells' masses aggregate
    back to p's slope classes through their initial classes and to those of
    p' through their final ones, both joint curves carry mass p_a p'_b at
    slope kappa s_a s'_b for every pair of classes (a, b), so they coincide.
    """
    kappa_num, kappa_den = kappa
    scale = den * kappa_num
    masses, init_pairs, fin_pairs = [], [], []
    for m, (x, d), (x_prime, d_prime) in cells:
        num = m * kappa_den
        masses.append(m)
        init_pairs.append((num * d_prime, scale * x_prime))
        fin_pairs.append((num * d, scale * x))
    return Reservoir._from_cells(masses, den, init_pairs, fin_pairs)


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
    classes, den = p._classes, p._den
    # One slope on the full support makes p_i = g_i / Z.
    if len(classes) == 1 and all(p._masses):
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
    occurrence, as each state caches them, with the two sides' integer
    masses brought over one common denominator.  The walk makes at most
    m + m' - 1 cells for m and m' distinct slopes, and each cell's weights
    follow the slope-matching rule.  When every slope of a
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
    p, q = t.initial, t.final
    anchor = (anchor_weight.numerator, anchor_weight.denominator)
    if p.probs == q.probs:
        return Reservoir._from_cells([1], 1, [anchor], [anchor])

    # Both sides' classes over one denominator: each holds `den` in all, so
    # the final classes run out exactly with the initial ones.
    den = lcm(p._den, q._den)
    p_scale, q_scale = den // p._den, den // q._den
    initials = [(s, m * p_scale) for s, m in p._classes.items()]
    finals = [(s, m * q_scale) for s, m in q._classes.items()]
    cells = list(_north_west(initials, finals))
    # kappa = m0 / (den s0' anchor) puts the anchor on the first cell.
    m0, _, (x0, d0) = cells[0]
    kappa = (m0 * d0 * anchor[1], den * x0 * anchor[0])
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
    p_masses, p_den = t.initial._masses, t.initial._den
    q_masses, q_den = t.final._masses, t.final._den
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
    measures are equal.  The system measures come from the two states'
    cached slope classes, and the work measures from the reservoir's stored
    masses and weight pairs, one gcd per level and block; no curve or state
    is built.  First comes the swap
    certificate: the initial work measure is the final system measure
    shifted by a slope factor kappa, and the final work measure is the
    initial system measure shifted by the same kappa; then both joint
    measures are the system pair's product shifted by kappa.  Every
    slope-matched reservoir passes it at O(n log n), and the trivial
    reservoir of an identity transition passes its mirror image.  Otherwise
    the first moments (sum of height times slope, multiplicative under the
    product) of the two sides are compared exactly in O(n): a mismatch
    rejects with no product measure, as every single-weight tamper does.
    Only equal moments have one product measure built and the other
    subtracted from it, exactly.

    This is the single source of truth for efficiency; every construction in
    this module is expected to pass it but none is trusted without it.
    """
    p, q = t.initial, t.final
    return _products_coincide(
        _measure_of(p._classes, p._den),
        res._work_measure(res._init),
        _measure_of(q._classes, q._den),
        res._work_measure(res._fin),
    )


def average_work(res: Reservoir) -> float:
    """Expected energy released by the reservoir, sum_i r_i (e'_i - e_i) in nats.

    Energies are -ln(weight), so each term is ln(init_weight / fin_weight),
    read from the reservoir's integers: r_i as m_i / den (int division
    rounds correctly, so it is float(r_i)) and each weight as its reduced
    pair.  Weights are positive (``Reservoir`` validates them), so the logs
    need no domain check.
    """
    log = math.log
    den = res._den
    return sum(
        m / den * ((log(ni) - log(di)) - (log(nf) - log(df)))
        for m, (ni, di), (nf, df) in zip(res._masses, res._init, res._fin)
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
