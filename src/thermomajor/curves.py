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

A canonical curve is a finite measure on slopes; every curve stores it in
integers, steepest first (``_Measure``), and every function here reads it.
``_measure_of`` reads a state's cached slope classes, and a product slope
is x*y over d_a*d_b and a product height h*k over e_a*e_b.  A state's or a
product's measure is canonical by construction, so :func:`curve_of` and
:func:`product` skip validation.  Any other curve (the constructor's
segments, :func:`canonical_curve`'s pairs merged by slope, :func:`divide`'s
quotient) is checked once, on its integers, by ``_checked``.  ``segments``
is a view made on first read, for output, equality and
``divergences._CurveTerms``.  Curves of equal width coincide when their
measures do.

``reservoirs.verify_efficient`` asks whether a (x) b = c (x) d.  It settles
a slope-matched reservoir itself, from its levels, by cancellation, and
hands any other four measures to ``_products_coincide``.  The first
moments come first there: chi_1(m), the sum of height times slope, is
multiplicative under the product (for a state it is the Renyi inner sum at
alpha = 2), so chi_1(a) chi_1(b) != chi_1(c) chi_1(d) proves the products
differ in O(n) integer operations.  Equal moments prove nothing alone, so
a (x) b is then built once and c (x) d subtracted from it in place, one
entry of c at a time; :func:`divide`'s peel is the same row subtraction.
No product curve is built.  There and in :func:`majorizes`, ``_over`` puts a
measure over multiples of its denominators.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .errors import InvalidCurve, OutsideDomain, WidthMismatch
from .states import (
    ThermoState, _ONE, _ZERO, _Value, _check_rationals, _exact_sum, _ratio, _scaled, _show
)


#: A curve's slope measure in integers: ``heights`` maps each slope
#: numerator x to its height numerator h, steepest first, over one
#: ``height_den`` and one ``slope_den``; that segment is h slope_den /
#: (x height_den) wide.
_Measure = namedtuple("_Measure", ("heights", "height_den", "slope_den"))


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
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if segments:
            _check_rationals((self.total_width,))
        _check_rationals(x for seg in segments for x in (seg.height, seg.slope))
        heights, height_den = _scaled([seg.height.as_integer_ratio() for seg in segments])
        slopes, slope_den = _scaled([seg.slope.as_integer_ratio() for seg in segments])
        checked = _checked(list(zip(slopes, heights)), height_den, slope_den, self.total_width)
        object.__setattr__(self, "_measure", checked._measure)
        object.__setattr__(self, "sloped_width", checked.sloped_width)

    @classmethod
    def _of(cls, measure: _Measure, total_width: Fraction) -> Curve:
        """The curve of a measure, slopes sorted steepest first, unvalidated."""
        curve = cls.__new__(cls)
        steepest_first = dict(sorted(measure.heights.items(), reverse=True))
        object.__setattr__(curve, "_measure", measure._replace(heights=steepest_first))
        object.__setattr__(curve, "total_width", total_width)
        return curve

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        heights, height_den, slope_den = self._measure
        return tuple([
            Segment(Fraction(h, height_den), Fraction(x, slope_den)) for x, h in heights.items()
        ])

    @cached_property
    def sloped_width(self) -> Fraction:
        heights, height_den, slope_den = self._measure
        return _exact_sum([Fraction(h * slope_den, x * height_den) for x, h in heights.items()])


def _checked(entries: list, height_den: int, slope_den: int, width: Fraction) -> Curve:
    """The curve of integer (slope, height) entries over ``slope_den`` and
    ``height_den``, checked in their given order."""
    if not entries:
        raise InvalidCurve("curve needs at least one segment")
    _check_rationals((width,))
    previous = entries[0][0] + 1
    for x, h in entries:
        if h <= 0:
            raise InvalidCurve(f"segment height {_show(Fraction(h, height_den))} must be positive")
        if x <= 0:
            raise InvalidCurve(f"segment slope {_show(Fraction(x, slope_den))} must be positive")
        if x >= previous:
            raise InvalidCurve("segment slopes must strictly decrease")
        previous = x
    total = sum([h for _, h in entries])
    if total != height_den:
        raise InvalidCurve(f"segment heights sum to {_show(Fraction(total, height_den))}, not 1")
    curve = Curve._of(_Measure(dict(entries), height_den, slope_den), width)
    if curve.sloped_width > width:
        raise InvalidCurve("sloped width exceeds total width")
    return curve


def _measure_of(classes: dict[tuple[int, int], int], den: int) -> _Measure:
    """The measure of slope classes: each reduced slope pair (x, d) carries
    its mass over ``den``; slopes go over the lcm of their denominators."""
    slope_den = lcm(*[d for _, d in classes])
    heights = {x * (slope_den // d): m for (x, d), m in classes.items()}
    return _Measure(heights, den, slope_den)


def _over(m: _Measure, height_den: int, slope_den: int) -> _Measure:
    """``m`` over multiples of its denominators; a negative ``height_den``
    negates its heights."""
    height_factor, slope_factor = height_den // m.height_den, slope_den // m.slope_den
    heights = {x * slope_factor: h * height_factor for x, h in m.heights.items()}
    return _Measure(heights, height_den, slope_den)


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
    over_a = _over(ma, height_den // mb.height_den, slope_den // mb.slope_den)
    remaining = _product_measure(over_a, mb).heights
    rows = list(md.heights.items())
    entries = _over(mc, height_den // md.height_den, slope_den // md.slope_den).heights.items()
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


def canonical_curve(pairs: Iterable[tuple[Fraction, Fraction]], total_width: Fraction) -> Curve:
    """Build a curve from raw (height, slope) pairs.

    Zero heights are dropped, equal slopes are merged, and the result is
    sorted by descending slope; that is the unique canonical form.  Heights,
    slopes and ``total_width`` must be ints or Fractions.
    """
    pairs = list(pairs)
    _check_rationals(x for pair in pairs for x in pair)
    heights, den = _scaled([height.as_integer_ratio() for height, _ in pairs])
    slopes, slope_den = _scaled([slope.as_integer_ratio() for _, slope in pairs])
    merged: dict[int, int] = {}
    for h, x in zip(heights, slopes):
        if h:
            merged[x] = merged.get(x, 0) + h
    return _checked(sorted(merged.items(), reverse=True), den, slope_den, total_width)


def curve_of(state: ThermoState) -> Curve:
    """Canonical curve of a state: slopes are p_i / g_i on the support."""
    return Curve._of(_measure_of(state._classes, state._den), state.z)


def identity_curve() -> Curve:
    """The monoid identity: a single unit-slope segment of width one."""
    return Curve((Segment(_ONE, _ONE),), _ONE)


def num_distinct_slopes(curve: Curve) -> int:
    """Number of sloped segments (the flat tail does not count)."""
    return len(curve._measure.heights)


def breakpoints(curve: Curve) -> list[tuple[Fraction, Fraction]]:
    """Elbow points from (0, 0) to (Z, 1), including the flat-tail endpoint.

    Every coordinate is a Fraction, also for a curve with int entries.
    """
    heights, height_den, slope_den = curve._measure
    widths = [Fraction(h * slope_den, x * height_den) for x, h in heights.items()]
    xs, ys = accumulate(widths, initial=_ZERO), accumulate(heights.values(), initial=0)
    points = [(x, Fraction(y, height_den)) for x, y in zip(xs, ys)]
    if points[-1][0] < curve.total_width:
        points.append((Fraction(curve.total_width), _ONE))
    return points


def evaluate(curve: Curve, x: Fraction) -> Fraction:
    """Exact value of the curve at ``x`` in [0, Z], an int or a Fraction,
    from one walk over the segments (1 on the flat tail)."""
    _check_rationals((x,))
    if x < 0 or x > curve.total_width:
        raise OutsideDomain(f"x={_show(x)} outside [0, {_show(curve.total_width)}]")
    heights, height_den, slope_den = curve._measure
    below = 0
    for slope, h in heights.items():
        width = Fraction(h * slope_den, slope * height_den)
        if x <= width:
            return Fraction(below, height_den) + x * Fraction(slope, slope_den)
        x -= width
        below += h
    return _ONE


def majorizes(a: Curve, b: Curve) -> bool:
    """Whether ``a`` lies on or above ``b`` everywhere on [0, Z].

    A concave curve's dual F(t) = max_x (L(x) - t x) is H - t W, with H and
    W the height and width of its segments steeper than t.  F_a - F_b is
    linear between the curves' slopes and 0 at t = 0 and past the steepest,
    so one walk over both curves' segments, steepest first, decides: it
    compares at each slope, then adds that segment.  At its own slope a
    segment adds h - t h / t = 0, so equal slopes need no special case.  Over
    common denominators H is an integer (b's heights negated) and W a Fraction.
    """
    if a.total_width != b.total_width:
        raise WidthMismatch(
            f"widths differ: {_show(a.total_width)} vs {_show(b.total_width)}; "
            "curves from different Hamiltonians are not comparable"
        )
    ma, mb = a._measure, b._measure
    slope_den, height_den = lcm(ma.slope_den, mb.slope_den), lcm(ma.height_den, mb.height_den)
    over_a, over_b = _over(ma, height_den, slope_den), _over(mb, -height_den, slope_den)
    entries = sorted([*over_a.heights.items(), *over_b.heights.items()], reverse=True)
    height, width = 0, _ZERO
    for slope, h in entries:
        if height < slope * width:
            return False
        height += h
        width += Fraction(h, slope)
    return True


def coincide(a: Curve, b: Curve) -> bool:
    """Exact equality of canonical forms, total width included."""
    return a == b


def product(a: Curve, b: Curve) -> Curve:
    """Monoid product: pairwise (height*height, slope*slope), widths multiply."""
    return Curve._of(_product_measure(a._measure, b._measure), a.total_width * b.total_width)


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
    negative remainder elsewhere, so heights summing past 1, and
    ``_checked`` rejects both.  Only the width can still fail: q's sloped
    width exceeds l.Z / a.Z when a has a flat tail that l lacks, and
    ``_checked`` rejects that too.  No product measure and no segment is
    built.
    """
    width = _ratio(l.total_width, a.total_width)
    ma, ml = a._measure, l._measure
    rows = list(ma.heights.items())
    top_slope, top_height = rows[0]
    remaining: dict[int, Fraction] = {y * top_slope: h for y, h in ml.heights.items()}
    slopes, ks = [], []
    for y in ml.heights:
        left = remaining[y * top_slope]
        if left:
            k = Fraction(left, top_height)
            if not _subtract_row(remaining, rows, y, k):
                return None
            slopes.append(y * ma.slope_den)
            ks.append((k.numerator * ma.height_den, k.denominator))
    # q's height is k a.height_den / l.height_den: k is in l's height units per a's.
    heights, den = _scaled(ks)
    entries = list(zip(slopes, heights))
    try:
        return _checked(entries, den * ml.height_den, ml.slope_den * top_slope, width)
    except InvalidCurve:
        return None


def realize_state(curve: Curve) -> ThermoState:
    """A smallest state whose curve is ``curve``.

    One level per segment (prob = height, weight = height/slope) plus, when
    the flat tail has width, a single zero-probability level carrying it.
    """
    heights, height_den, slope_den = curve._measure
    probs = [Fraction(h, height_den) for h in heights.values()]
    weights = [Fraction(h * slope_den, x * height_den) for x, h in heights.items()]
    tail = curve.total_width - curve.sloped_width
    if tail > 0:
        probs.append(_ZERO)
        weights.append(tail)
    return ThermoState(tuple(probs), tuple(weights))
