"""Multi-level work reservoirs and zero-dissipation synthesis.

A reservoir over 2d levels holds a fixed distribution ``r`` that moves from
the first d levels (weights ``init_weights``) to the second d levels
(``fin_weights``); its entropy is conserved by construction.  A reservoir is
*efficient* for a transition when tensoring it onto the endpoints makes the
joint initial and final thermomajorization curves coincide, which is decided
exactly by :func:`verify_efficient`.  The constructions here never
self-certify; tests always go through the verifier.

A reservoir is its two work states, ``r`` on ``init_weights`` and ``r`` on
``fin_weights``, each in the one integer form of a state (masses over one
denominator, reduced weight pairs).  Every reservoir comes from the walk
below or from the public constructor, and passes the checks of
``Reservoir._store`` on its integers; one from the walk reads its
``Fraction`` fields from its work states on first access.

Synthesis is one walk, :func:`_slope_matched`: the north-west corner of a
coupling between the initial and final *slope classes* (each side's
occupied levels merged by slope p_i / g_i, as the state caches them:
integer masses over one denominator, slopes as reduced integer pairs).
Over m initial and m' final classes it makes at most m + m' - 1 cells, and
each cell is a level as soon as it is made, its two weights set by the one
slope-matching rule as reduced integer pairs; no cell list and no Fraction
is built.  The routes differ in the classes they walk:

* :func:`minimal_extraction_reservoir` walks p's classes, steepest first,
  against tau's single slope 1/Z: the unique 2m-level reservoir for
  extraction from a state whose curve has m distinct slopes (run it
  backwards for formation).
* :func:`general_efficient_reservoir` walks both sides' classes in order of
  first occurrence, for an arbitrary shared-weights transition.  When every
  slope is distinct a class is a level.
* :func:`alt_product_reservoir` walks each level of p against its own block
  of levels of p', which makes the product coupling: a larger 2n^2-level
  alternative for equal level weights, showing efficiency does not pin the
  reservoir down.

:func:`verify_efficient` decides a (x) b = c (x) d for the system's states
a, c and the work states b, d by cancellation in the curve monoid.  It
checks b = T_kappa c (every slope times kappa) on b's levels against c's
cached slope classes by cross products, for the gauge kappa of the first
cell and then for the one of the steepest slopes; once it holds, c
cancels and d = T_kappa a is the verdict, checked the same way.  So a
slope-matched reservoir in any level order is decided with no work
state's slope classes read and no measure built.  Any other reservoir has
its four factor measures compared by ``curves._products_coincide``.  No
curve, clock lift or joint state is built; :func:`joint_states` keeps the
materialised tensor product as an independent cross-check.

The module imports ``curves`` only where it is used: in that fallback and
in the formation-family functions.  So synthesis and the shift check load no
curve code, and ``Curve`` in annotations is never evaluated.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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
    _scaled,
    _show,
    clock_lift,
    gibbs_of,
    tensor,
)

_ONE = Fraction(1)


#: A positive rational as an integer pair (numerator, denominator).
_Pair = tuple[int, int]


class Reservoir(_Value):
    """A 2d-level work reservoir: distribution ``r`` shifted between level blocks.

    It holds its two work states, ``_initial`` (``r`` on ``init_weights``)
    and ``_final`` (``r`` on ``fin_weights``), built from checked integers.
    A reservoir comes from this constructor or from the walk,
    :func:`_slope_matched`, and ``_store`` checks both; one from the walk
    reads its ``Fraction`` fields from its work states on first access.
    """

    _fields = ("r", "init_weights", "fin_weights")

    def _check(self) -> None:
        r, init_weights, fin_weights = self._as_tuples()
        if not (len(r) == len(init_weights) == len(fin_weights)):
            raise DimensionMismatch("r, init_weights, fin_weights must share a length")
        _check_rationals(r + init_weights + fin_weights)
        r, init, fin = [[x.as_integer_ratio() for x in xs] for xs in self._values()]
        self._store(*_scaled(r), init, fin)

    def _store(self, masses: list[int], den: int, init: list[_Pair], fin: list[_Pair]) -> None:
        """Check integer levels (masses over ``den``, reduced weight pairs)
        and keep them as the two work states, with masses and ``den``
        divided by their gcd, as validation reads them."""
        if not (len(masses) == len(init) == len(fin)):
            raise DimensionMismatch("r, init_weights, fin_weights must share a length")
        if len(masses) < 1:
            raise DimensionMismatch("reservoir needs at least one occupied level")
        for m in masses:
            if m <= 0:
                raise NegativeProbability(
                    f"reservoir probability {_show(Fraction(m, den))} must be positive"
                )
        total = sum(masses)
        if total != den:
            raise ProbSumNotOne(f"reservoir distribution sums to {_show(Fraction(total, den))}")
        for num, w_den in init + fin:
            if num <= 0:
                raise NonPositiveWeight(
                    f"reservoir weight {_show(Fraction(num, w_den))} must be positive"
                )
        common = gcd(den, *masses)
        masses, den = [m // common for m in masses], den // common
        object.__setattr__(self, "_initial", ThermoState._derived(masses, den, init))
        object.__setattr__(self, "_final", ThermoState._derived(masses, den, fin))

    @cached_property
    def r(self) -> tuple[Fraction, ...]:
        return self._initial.probs

    @cached_property
    def init_weights(self) -> tuple[Fraction, ...]:
        return self._initial.weights

    @cached_property
    def fin_weights(self) -> tuple[Fraction, ...]:
        return self._final.weights

    @property
    def dim(self) -> int:
        return 2 * self._initial.dim

    def work_transition(self) -> Transition:
        """The reservoir's move as a transition over its 2d levels: ``r`` on
        the initial-weight block, then on the final-weight block."""
        return clock_lift(self._initial, self._final)


def _slope_matched(
    initials: Iterable[tuple[_Pair, int]], finals: Iterable[tuple[_Pair, int]], den: int,
    kappa: _Pair,
) -> Reservoir:
    """The reservoir of the north-west-corner walk over two (slope, mass)
    lists of equal total ``den``, weighted by the slope-matching rule.

    Each cell takes what is left of the current initial class s = p_j / g_j
    and final class s' = p'_i / g_i (at most len(initials) + len(finals) - 1
    cells) and is a level at once: mass m over ``den``, initial weight
    m / (den kappa s') and final weight m / (den kappa s), each a reduced
    integer pair, for the gauge ``kappa`` as an integer pair.  The cells
    through each class of either side sum to its mass, so both joint curves
    carry p_a p'_b at slope kappa s_a s'_b for every pair of classes (a, b).
    """
    # Each weight is m times the factor kappa_den d / (scale x) of its class,
    # reduced once per class (scale and kappa_den lose their gcd first), so
    # a cell reduces against its mass alone.
    scale, kappa_den = den * kappa[0], kappa[1]
    common = gcd(scale, kappa_den)
    scale, kappa_den = scale // common, kappa_den // common
    finals = iter(finals)
    left_prime = 0
    masses, init_pairs, fin_pairs = [], [], []
    for (x, d), left in initials:
        fin_num, fin_den = kappa_den * d, scale * x
        common = gcd(fin_num, fin_den)
        fin_num, fin_den = fin_num // common, fin_den // common
        while left:
            if not left_prime:
                (x_prime, d_prime), left_prime = next(finals)
                init_num, init_den = kappa_den * d_prime, scale * x_prime
                common = gcd(init_num, init_den)
                init_num, init_den = init_num // common, init_den // common
            m = min(left, left_prime)
            common = gcd(m, init_den)
            init_pairs.append((m // common * init_num, init_den // common))
            common = gcd(m, fin_den)
            fin_pairs.append((m // common * fin_num, fin_den // common))
            masses.append(m)
            left -= m
            left_prime -= m
    res = Reservoir.__new__(Reservoir)
    res._store(masses, den, init_pairs, fin_pairs)
    return res


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

    m is the number of distinct slopes of p's curve, its slope classes; a
    reservoir of dimension 2(m-1) or less cannot make the joint curves
    coincide because the final joint curve would have fewer distinct slopes
    than the initial one.
    """
    return 2 * len(p._classes)


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
    if c.numerator <= 0:
        raise NonPositiveWeight(f"gauge constant c={_show(c)} must be positive")
    classes, den = p._classes, p._den
    # One slope on the full support makes p_i = g_i / Z.
    if len(classes) == 1 and all(p._masses):
        raise GibbsInput("state is already Gibbs; extraction reservoir is trivial")
    slope_den = lcm(*[d for _, d in classes])
    steepest_first = sorted(
        classes.items(), key=lambda item: item[0][0] * (slope_den // item[0][1]), reverse=True
    )
    z = p.z
    kappa = (c.numerator * z.numerator, c.denominator * z.denominator)
    return _slope_matched(steepest_first, [((z.denominator, z.numerator), den)], den, kappa)


def general_efficient_reservoir(
    t: Transition, anchor_weight: Fraction = _ONE
) -> Reservoir:
    """An efficient reservoir for an arbitrary shared-weights transition.

    The one walk runs over the slope classes of p and p', in order of first
    occurrence as each state caches them, with both sides' integer masses
    over one common denominator: at most m + m' - 1 levels for m and m'
    distinct slopes.  When every slope of a side is distinct its classes
    are its levels.

    Levels with zero probability on both sides get no cell; a zero on one
    side only is harmless because every cell has positive mass and therefore
    lies inside a positive-probability class of each distribution.

    ``anchor_weight`` fixes the translation gauge: the first cell's initial
    weight equals it exactly.  Equal endpoints yield the trivial two-level
    reservoir, both weights the anchor, from the public constructor.
    """
    _check_rationals((anchor_weight,))
    if anchor_weight.numerator <= 0:
        raise NonPositiveWeight(f"anchor weight {_show(anchor_weight)} must be positive")
    p, q = t.initial, t.final
    anchor = Fraction(anchor_weight)
    if p._masses == q._masses and p._den == q._den:
        return Reservoir((_ONE,), (anchor,), (anchor,))
    # Both sides' classes over one denominator: each holds `den` in all, so
    # the final classes run out exactly with the initial ones.
    den = lcm(p._den, q._den)
    p_scale, q_scale = den // p._den, den // q._den
    initials = [(s, m * p_scale) for s, m in p._classes.items()]
    finals = [(s, m * q_scale) for s, m in q._classes.items()]
    # kappa = m0 / (den s0' anchor) puts the anchor on the first cell, whose
    # mass m0 is the smaller first class.
    (x0, d0), m0 = finals[0]
    kappa = (min(initials[0][1], m0) * d0 * anchor.denominator, den * x0 * anchor.numerator)
    return _slope_matched(initials, finals, den, kappa)


def alt_product_reservoir(t: Transition) -> Reservoir:
    """A 2n^2-level efficient reservoir for equal level weights.

    The occupied distribution is the product p (x) p'; level (i, j) carries
    initial weight p_i and final weight p'_j, which already satisfies the
    slope-matching conditions.  Demonstrates non-uniqueness: the average work
    is still H(p') - H(p).
    """
    p, q = t.initial, t.final
    if any(w != p._pairs[0] for w in p._pairs):
        raise NontrivialHamiltonian("all level weights must be equal")
    if 0 in p._masses or 0 in q._masses:
        raise ZeroProbability("both endpoint distributions must be strictly positive")
    # Equal weights cancel from the rule: the slopes are p_i and p'_j, the
    # gauge 1.  Over d_p d_q, level i (mass a d_q) fills exactly its block of
    # finals (masses a b), so cell (i, j) has mass p_i p'_j.
    p_den, q_den = p._den, q._den
    initials = [((a, p_den), a * q_den) for a in p._masses]
    finals = [((b, q_den), a * b) for a in p._masses for b in q._masses]
    return _slope_matched(initials, finals, p_den * q_den, (1, 1))


def joint_states(t: Transition, res: Reservoir) -> tuple[ThermoState, ThermoState]:
    """System (x) reservoir endpoints over the shared joint level set."""
    work = res.work_transition()
    return tensor(t.initial, work.initial), tensor(t.final, work.final)


def _is_shifted(state: ThermoState, classes: dict[_Pair, int], den: int, kappa: _Pair) -> bool:
    """Whether the levels of ``state``, all occupied, carry T_kappa of the
    slope ``classes`` (reduced slope pairs mapped to masses over ``den``):
    each level's slope is kappa times a class's slope, and the levels of
    each class sum to exactly its mass, every class included.

    A level is compared with the current class, then with the next one in
    ``classes`` order, by exact cross products, so levels in walk order
    take no gcd; only a level that matches neither is reduced (one gcd)
    and looked up.
    """
    k_num, k_den = kappa
    slopes = list(classes)
    targets = [(k_num * x, k_den * y) for x, y in slopes]
    last = len(targets) - 1
    got = [0] * len(targets)
    state_den = state._den
    i, index = 0, None
    for m, (n, w) in zip(state._masses, state._pairs):
        # The level's slope m w / (state_den n) against kappa x / y.
        num, slope_den = m * w, state_den * n
        x, y = targets[i]
        if num * y != slope_den * x:
            if i < last and num * targets[i + 1][1] == slope_den * targets[i + 1][0]:
                i += 1
            else:
                num, slope_den = num * k_den, slope_den * k_num
                common = gcd(num, slope_den)
                if index is None:
                    index = {slope: j for j, slope in enumerate(slopes)}
                i = index.get((num // common, slope_den // common))
                if i is None:
                    return False
        got[i] += m
    return all(g * den == mass * state_den for g, mass in zip(got, classes.values()))


def _steepest(slopes: Iterable[_Pair]) -> _Pair:
    """The steepest of positive slopes given as integer pairs, by exact
    cross products."""
    slopes = iter(slopes)
    x, y = next(slopes)
    for u, v in slopes:
        if u * y > x * v:
            x, y = u, v
    return x, y


def _over(slope: _Pair, base: _Pair) -> _Pair:
    """slope / base for two slopes as integer pairs, reduced."""
    num, den = slope[0] * base[1], slope[1] * base[0]
    common = gcd(num, den)
    return num // common, den // common


def _gauges(state: ThermoState, classes: dict[_Pair, int]) -> Iterator[_Pair]:
    """The gauges kappa, as reduced integer pairs, for which ``state`` may be
    T_kappa of the slope ``classes``: its first level's slope over the first
    class's, which fits every walk in walk order at O(1) cost; then, if it
    differs, its steepest level's slope over the steepest class's, found in
    one pass.  T_kappa keeps the order of slopes, so the second is the only
    kappa a shift can have."""
    masses, pairs, den = state._masses, state._pairs, state._den
    n, w = pairs[0]
    first = _over((masses[0] * w, den * n), next(iter(classes)))
    yield first
    steepest = _over(
        _steepest((m * w, den * n) for m, (n, w) in zip(masses, pairs)), _steepest(classes)
    )
    if steepest != first:
        yield steepest


def verify_efficient(t: Transition, res: Reservoir) -> bool:
    """Exact zero-dissipation check: do the joint curves coincide?

    The joint curves are the system's curves times the reservoir's work
    curves, of its work states ``r`` on ``init_weights`` and on
    ``fin_weights`` (the clock lift's zero padding adds no segment).  Both
    have width Z times the sum of all 2d reservoir weights, so they
    coincide exactly when their slope measures are equal: a (x) b = c (x) d
    for the system's initial and final states a and c and the work states
    b and d.  No curve, clock lift or joint state is built.

    Cancellation decides the common case from the reservoir's levels.  If
    b = T_kappa c (every slope of c times kappa, with the same heights),
    then a (x) b = T_kappa (a (x) c) = c (x) T_kappa a.  Slope measures
    under the product form the group ring of the positive rationals, an
    integral domain, so c cancels: a (x) b = c (x) d holds exactly when
    d = T_kappa a, and that one check is the verdict either way.  Both
    checks read the work states' levels against the system's cached slope
    classes by cross products (:func:`_is_shifted`), for each gauge of
    :func:`_gauges` in turn.  So a slope-matched reservoir in any level
    order, tampered in a final weight or not, is decided with no work
    state's slope classes read and no measure built.

    Otherwise (b is no shift of c: a tampered initial weight, a reservoir
    of another shape, or the one-level reservoir of an identity on a state
    of several slope classes) the four factor measures are compared by
    ``curves._products_coincide``: first moments, then the row subtraction.

    This is the single source of truth for efficiency; every construction in
    this module is expected to pass it but none is trusted without it.
    """
    a, b, c, d = t.initial, res._initial, t.final, res._final
    for kappa in _gauges(b, c._classes):
        if _is_shifted(b, c._classes, c._den, kappa):
            return _is_shifted(d, a._classes, a._den, kappa)
    from .curves import _measure_of, _products_coincide  # loaded on use: the shifts need neither

    return _products_coincide(*[_measure_of(s._classes, s._den) for s in (a, b, c, d)])


def average_work(res: Reservoir) -> float:
    """Expected energy released by the reservoir, sum_i r_i (e'_i - e_i) in nats.

    Energies are -ln(weight), so each term is ln(init_weight / fin_weight),
    read from the reservoir's integers: r_i as m_i / den (int division
    rounds correctly, so it is float(r_i)) and each weight as its reduced
    pair.  Weights are positive (``Reservoir`` validates them), so the logs
    need no domain check.
    """
    log = math.log
    initial, final = res._initial, res._final
    den = initial._den
    return sum(
        m / den * ((log(ni) - log(di)) - (log(nf) - log(df)))
        for m, (ni, di), (nf, df) in zip(initial._masses, initial._pairs, final._pairs)
    )


def minimal_formation_pair(sys: ThermoState) -> tuple[Curve, Curve]:
    """Work curves (initial, final) of the minimal formation reservoir for sys.

    Formation tau -> sys runs the extraction reservoir backwards: the initial
    work curve copies the system's slope pattern, the final one is straight.
    """
    from .curves import curve_of

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
    from .curves import coincide, divide

    x1, y1 = minimal_formation_pair(sys)
    b_init = divide(candidate_init, x1)
    if b_init is None:
        return False
    b_fin = divide(candidate_fin, y1)
    if b_fin is None:
        return False
    return coincide(b_init, b_fin)
