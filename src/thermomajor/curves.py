"""Thermomajorization curves as exact piecewise-linear geometry.

The curve of a state plots cumulative probability against cumulative Gibbs
weight with levels taken in beta-order (descending probability-per-weight).
Canonical form keeps one segment per distinct slope, strictly decreasing,
with heights summing to one; zero-probability levels contribute no segment
and only widen the implicit flat tail, so ``total_width`` always records the
full partition function.

Canonical curves of a fixed inverse temperature form a commutative monoid
under the tensor product (heights and slopes multiply pairwise, equal slopes
merge, widths multiply).  The monoid is cancellative: :func:`divide` peels
the unique quotient off a product when one exists.

:func:`curve_of`, :func:`canonical_curve`, :func:`product` and
:func:`divide` share one integer kernel.  A canonical curve is a finite
measure on slopes (a height at each slope).  Its input is slope classes,
each a reduced slope pair mapped to its mass over one denominator: a
state's cached classes, a curve's own segments (already merged, reduced
and sorted), or the raw pairs :func:`canonical_curve` merges by slope.
``_measure_of`` then puts the slopes over the lcm of their denominators, a
dict from slope numerator to height numerator with no Fraction.  A product
slope is x*y over d_a*d_b and a product height h*k over e_a*e_b.  Two
curves of equal width coincide exactly when their measures are equal.

``reservoirs.verify_efficient`` asks whether a (x) b = c (x) d.  It settles
a slope-matched reservoir itself, from its levels, by cancellation, and
hands any other four measures to ``_products_coincide``.  The first
moments come first there: chi_1(m), the sum of height times slope, is
multiplicative under the product (for a state it is the Renyi inner sum at
alpha = 2), so chi_1(a) chi_1(b) != chi_1(c) chi_1(d) proves the products
differ in O(n) integer operations.  Equal moments prove nothing alone, so
a (x) b is then built once and c (x) d subtracted from it in place, one
entry of c at a time; :func:`divide`'s peel is the same row subtraction.
No product curve is built.  ``Curve`` validation reads signs and order
from numerators and cross products and sums heights and widths in one
exact integer sum, so every check stays exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from fractions import Fraction
from math import lcm

from .errors import InvalidCurve, OutsideDomain, WidthMismatch
from .states import (
    ThermoState, _ONE, _ZERO, _Value, _check_rationals, _exact_sum, _ratio, _scaled, _show
)


class Segment(_Value):
    """One sloped piece: a height (probability mass) and a positive slope."""

    _fields = ("height", "slope")


class Curve(_Value):
    """Canonical thermomajorization curve.

    ``segments`` have strictly decreasing positive slopes and positive heights
    summing to one.  ``total_width`` is the partition function Z; any excess
    over the sloped width is the flat (slope-zero) tail.  Heights, slopes and
    ``total_width`` are ints or Fractions.
    """

    _fields = ("segments", "total_width")

    def _check(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise InvalidCurve("curve needs at least one segment")
        _check_rationals((self.total_width,))
        _check_rationals(x for seg in self.segments for x in (seg.height, seg.slope))
        previous = None
        # Denominators are positive: a numerator carries the sign, and
        # a/b >= c/d exactly when a*d >= c*b.
        for seg in self.segments:
            height, slope = seg.height, seg.slope
            if height.numerator <= 0:
                raise InvalidCurve(f"segment height {_show(height)} must be positive")
            if slope.numerator <= 0:
                raise InvalidCurve(f"segment slope {_show(slope)} must be positive")
            if previous is not None and (
                slope.numerator * previous.denominator >= previous.numerator * slope.denominator
            ):
                raise InvalidCurve("segment slopes must strictly decrease")
            previous = slope
        total_height = _exact_sum(seg.height for seg in self.segments)
        if total_height != _ONE:
            raise InvalidCurve(f"segment heights sum to {_show(total_height)}, not 1")
        if self.sloped_width > self.total_width:
            raise InvalidCurve("sloped width exceeds total width")

    @cached_property
    def sloped_width(self) -> Fraction:
        return _exact_sum(_ratio(seg.height, seg.slope) for seg in self.segments)


#: A curve's slope measure in integers: ``heights`` maps each slope
#: numerator to the height numerator at that slope, over one
#: ``height_den`` and one ``slope_den``.
_Measure = namedtuple("_Measure", ("heights", "height_den", "slope_den"))


def _measure(curve: Curve) -> _Measure:
    """The measure of a canonical curve, whose segments are its slope
    classes: heights over the lcm of their denominators, slopes as reduced
    pairs, steepest first."""
    segments = curve.segments
    heights, den = _scaled([seg.height.as_integer_ratio() for seg in segments])
    return _measure_of(dict(zip([seg.slope.as_integer_ratio() for seg in segments], heights)), den)


def _measure_of(classes: dict[tuple[int, int], int], den: int) -> _Measure:
    """The measure of slope classes: each reduced slope pair (x, d) carries
    its mass over ``den``; slopes go over the lcm of their denominators."""
    slope_den = lcm(*[d for _, d in classes])
    heights = {x * (slope_den // d): m for (x, d), m in classes.items()}
    return _Measure(heights, den, slope_den)


def _product_measure(ma: _Measure, mb: _Measure) -> _Measure:
    """The measure of the product: height h*k at slope x*y for every pair of
    entries, summed where slopes coincide."""
    rows = list(mb.heights.items())
    merged: dict[int, int] = {}
    for x, h in ma.heights.items():
        for y, k in rows:
            slope = x * y
            merged[slope] = merged.get(slope, 0) + h * k
    return _Measure(merged, ma.height_den * mb.height_den, ma.slope_den * mb.slope_den)


def _subtract_row(remaining: dict[int, Fraction], rows: list, y: int, k: Fraction) -> bool:
    """Subtract height h*k at slope x*y from ``remaining`` for each (x, h) in
    ``rows``, stopping with False at the first negative remainder.  A slope
    missing from ``remaining`` reads as 0."""
    for x, h in rows:
        slope = x * y
        left = remaining.get(slope, 0) - h * k
        if left < 0:
            return False
        remaining[slope] = left
    return True


def _same_products(ma: _Measure, mb: _Measure, mc: _Measure, md: _Measure) -> bool:
    """Whether the measures a (x) b and c (x) d are equal, for four measures
    of total height one.

    a (x) b is built once over the common denominators and c (x) d is
    subtracted from it in place, rejecting at the first slope it lacks or the
    first negative remainder.  Both products hold the same total height, so
    remainders that all stay nonnegative are all zero.
    """
    slope_den = lcm(ma.slope_den * mb.slope_den, mc.slope_den * md.slope_den)
    height_den = lcm(ma.height_den * mb.height_den, mc.height_den * md.height_den)

    def over_common(m: _Measure, partner: _Measure) -> _Measure:
        # m over the denominators that put its product with partner over the
        # common ones.
        m_height_den = height_den // partner.height_den
        m_slope_den = slope_den // partner.slope_den
        height_factor, slope_factor = m_height_den // m.height_den, m_slope_den // m.slope_den
        heights = {x * slope_factor: h * height_factor for x, h in m.heights.items()}
        return _Measure(heights, m_height_den, m_slope_den)

    remaining = _product_measure(over_common(ma, mb), mb).heights
    rows = list(md.heights.items())
    entries = over_common(mc, md).heights.items()
    return all(_subtract_row(remaining, rows, x, h) for x, h in entries)


def _moment(m: _Measure) -> tuple[int, int]:
    """The first moment chi_1(m), the sum of height times slope, as an
    integer numerator over ``height_den * slope_den``."""
    return sum([h * x for x, h in m.heights.items()]), m.height_den * m.slope_den


def _products_coincide(ma: _Measure, mb: _Measure, mc: _Measure, md: _Measure) -> bool:
    """Whether the measures a (x) b and c (x) d are equal, for four measures
    of total height one.  Widths are not compared: callers pass factors whose
    products share one.

    chi_1 multiplies under the product, so chi_1(a) chi_1(b) !=
    chi_1(c) chi_1(d), compared exactly by cross-multiplying, proves the
    products differ.  Equal moments prove nothing alone: the row
    subtraction decides.
    """
    (na, da), (nb, db), (nc, dc), (nd, dd) = [_moment(m) for m in (ma, mb, mc, md)]
    return na * nb * dc * dd == nc * nd * da * db and _same_products(ma, mb, mc, md)


def _curve(m: _Measure, total_width: Fraction) -> Curve:
    """The canonical curve of a measure of positive heights: slopes sorted
    descending, one Fraction per output segment."""
    heights, height_den, slope_den = m
    segments = tuple(
        Segment(Fraction(heights[slope], height_den), Fraction(slope, slope_den))
        for slope in sorted(heights, reverse=True)
    )
    return Curve(segments, total_width)


def canonical_curve(pairs: Iterable[tuple[Fraction, Fraction]], total_width: Fraction) -> Curve:
    """Build a curve from raw (height, slope) pairs.

    Zero heights are dropped, equal slopes are merged, and the result is
    sorted by descending slope; that is the unique canonical form.  Heights,
    slopes and ``total_width`` must be ints or Fractions.
    """
    pairs = list(pairs)
    _check_rationals(x for pair in pairs for x in pair)
    heights, den = _scaled([height.as_integer_ratio() for height, _ in pairs])
    classes: dict[tuple[int, int], int] = {}
    for h, (_, slope) in zip(heights, pairs):
        if h:
            key = slope.as_integer_ratio()
            classes[key] = classes.get(key, 0) + h
    return _curve(_measure_of(classes, den), total_width)


def curve_of(state: ThermoState) -> Curve:
    """Canonical curve of a state: slopes are p_i / g_i on the support."""
    return _curve(_measure_of(state._classes, state._den), state.z)


def identity_curve() -> Curve:
    """The monoid identity: a single unit-slope segment of width one."""
    return Curve((Segment(_ONE, _ONE),), _ONE)


def num_distinct_slopes(curve: Curve) -> int:
    """Number of sloped segments (the flat tail does not count)."""
    return len(curve.segments)


def breakpoints(curve: Curve) -> list[tuple[Fraction, Fraction]]:
    """Elbow points from (0, 0) to (Z, 1), including the flat-tail endpoint.

    Every coordinate is a Fraction, also for a curve with int entries.
    """
    points = [(_ZERO, _ZERO)]
    x = _ZERO
    y = _ZERO
    for seg in curve.segments:
        x += _ratio(seg.height, seg.slope)
        y += seg.height
        points.append((x, y))
    if x < curve.total_width:
        points.append((Fraction(curve.total_width), _ONE))
    return points


def evaluate(curve: Curve, x: Fraction) -> Fraction:
    """Exact value of the curve at ``x`` in [0, Z], an int or a Fraction,
    from one walk over the segments (1 on the flat tail)."""
    _check_rationals((x,))
    if x < 0 or x > curve.total_width:
        raise OutsideDomain(f"x={_show(x)} outside [0, {_show(curve.total_width)}]")
    height = _ZERO
    for seg in curve.segments:
        width = _ratio(seg.height, seg.slope)
        if x <= width:
            return height + x * seg.slope
        x -= width
        height += seg.height
    return _ONE


def majorizes(a: Curve, b: Curve) -> bool:
    """Whether ``a`` lies on or above ``b`` everywhere on [0, Z].

    A concave curve's dual F(t) = max_x (L(x) - t x) is H - t W, with H and
    W the height and width of its segments steeper than t.  F_a - F_b is
    linear between the curves' slopes and 0 at t = 0 and past the steepest,
    so one walk over both curves' segments, steepest first, decides: it
    compares at each slope, then adds that segment.  At its own slope a
    segment adds h - t h / t = 0, so equal slopes need no special case.
    """
    if a.total_width != b.total_width:
        raise WidthMismatch(
            f"widths differ: {_show(a.total_width)} vs {_show(b.total_width)}; "
            "curves from different Hamiltonians are not comparable"
        )
    # b's heights enter negated: F_a(t) - F_b(t) = height - t * width.
    segments = sorted(
        [(seg.slope, seg.height) for seg in a.segments]
        + [(seg.slope, -seg.height) for seg in b.segments],
        reverse=True,
    )
    height = width = _ZERO
    for slope, h in segments:
        if height < slope * width:
            return False
        height += h
        width += _ratio(h, slope)
    return True


def coincide(a: Curve, b: Curve) -> bool:
    """Exact equality of canonical forms, total width included."""
    return a == b


def product(a: Curve, b: Curve) -> Curve:
    """Monoid product: pairwise (height*height, slope*slope), widths multiply."""
    measure = _product_measure(_measure(a), _measure(b))
    return _curve(measure, a.total_width * b.total_width)


def divide(l: Curve, a: Curve) -> Curve | None:
    """The unique ``q`` with ``product(a, q) == l``, or None if no such curve.

    A greedy peel over the integer measures of ``l`` and ``a``, with the row
    subtraction of ``_same_products``.  Scale l's slope numerators by a's top
    slope numerator X.  Then q's slope numerators are l's own, and a (x) q
    carries a's entry (x, h) at slope x*y for each entry (y, k) of q: the
    plain products that subtraction makes.  Visit l's slopes y steepest
    first and skip those already emptied.  a's top entry must empty slope
    X*y, which forces k, and the step touches only slopes no steeper than
    X*y.  So each of l's slopes ends at 0 and every other slope (a missing
    one reads as 0) only loses mass, and the remainders left total 1 less
    the sum of q's heights, in l's units.  A pass that never goes negative
    thus leaves nothing behind: l = a (x) q as measures, q's slopes strictly
    decrease, and its heights sum to 1 as l's and a's do.  The stop at a
    negative remainder is only an early exit: run on, a non-quotient gives
    a negative height (a negative left at one of l's slopes) or else a
    negative remainder elsewhere, so heights summing past 1, and ``Curve``
    validation rejects both.  Only the width can still fail: q's sloped
    width exceeds l.Z / a.Z when a has a flat tail that l lacks, and
    ``Curve`` validation rejects that too.  No product measure is built.
    """
    width = _ratio(l.total_width, a.total_width)
    ma, ml = _measure(a), _measure(l)
    rows = list(ma.heights.items())
    top_slope, top_height = rows[0]
    remaining: dict[int, Fraction] = {y * top_slope: h for y, h in ml.heights.items()}
    # q's height is k * height_unit: k is in l's height units per a's.
    height_unit = Fraction(ma.height_den, ml.height_den)
    slope_den = ml.slope_den * top_slope
    segments = []
    for y in ml.heights:
        left = remaining[y * top_slope]
        if left:
            k = Fraction(left, top_height)
            if not _subtract_row(remaining, rows, y, k):
                return None
            segments.append(Segment(k * height_unit, Fraction(y * ma.slope_den, slope_den)))
    try:
        return Curve(tuple(segments), width)
    except InvalidCurve:
        return None


def realize_state(curve: Curve) -> ThermoState:
    """A smallest state whose curve is ``curve``.

    One level per segment (prob = height, weight = height/slope) plus, when
    the flat tail has width, a single zero-probability level carrying it.
    """
    probs = [seg.height for seg in curve.segments]
    weights = [_ratio(seg.height, seg.slope) for seg in curve.segments]
    tail = curve.total_width - curve.sloped_width
    if tail > 0:
        probs.append(_ZERO)
        weights.append(tail)
    return ThermoState(tuple(probs), tuple(weights))
