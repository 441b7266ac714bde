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

:func:`canonical_curve` and :func:`product` share one integer kernel.  A
curve's slopes are scaled to integers over the lcm of their denominators,
and so are its heights; a product slope is then the integer x*y over
d_a*d_b and a product height h*k over e_a*e_b.  Equal slopes merge in a
dict keyed by those integers, the keys sort as integers, and one Fraction
is built per output segment.  ``Curve`` validation reads signs and order
from numerators and cross products and sums heights and widths in one
exact integer sum, so every check stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InvalidCurve, OutsideDomain, WidthMismatch
from .states import ThermoState, _ONE, _ZERO, _check_rationals, _exact_sum, _scaled

__all__ = [
    "Segment",
    "Curve",
    "canonical_curve",
    "curve_of",
    "identity_curve",
    "num_distinct_slopes",
    "evaluate",
    "breakpoints",
    "majorizes",
    "coincide",
    "product",
    "divide",
    "realize_state",
]


@dataclass(frozen=True)
class Segment:
    """One sloped piece: a height (probability mass) and a positive slope."""

    height: Fraction
    slope: Fraction


@dataclass(frozen=True)
class Curve:
    """Canonical thermomajorization curve.

    ``segments`` have strictly decreasing positive slopes and positive heights
    summing to one.  ``total_width`` is the partition function Z; any excess
    over the sloped width is the flat (slope-zero) tail.  Heights, slopes and
    ``total_width`` are ints or Fractions.
    """

    segments: tuple[Segment, ...]
    total_width: Fraction

    def __post_init__(self) -> None:
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
                raise InvalidCurve(f"segment height {height} must be positive")
            if slope.numerator <= 0:
                raise InvalidCurve(f"segment slope {slope} must be positive")
            if previous is not None and (
                slope.numerator * previous.denominator >= previous.numerator * slope.denominator
            ):
                raise InvalidCurve("segment slopes must strictly decrease")
            previous = slope
        total_height = _exact_sum(seg.height for seg in self.segments)
        if total_height != _ONE:
            raise InvalidCurve(f"segment heights sum to {total_height}, not 1")
        if self.sloped_width > self.total_width:
            raise InvalidCurve("sloped width exceeds total width")

    @cached_property
    def sloped_width(self) -> Fraction:
        return _exact_sum(
            Fraction(
                seg.height.numerator * seg.slope.denominator,
                seg.height.denominator * seg.slope.numerator,
            )
            for seg in self.segments
        )


def _merged(
    pairs: Iterable[tuple[int, int]], height_den: int, slope_den: int, total_width: Fraction
) -> Curve:
    """The canonical curve of integer (height, slope) pairs over one height
    and one slope denominator: zero heights dropped, equal slopes merged,
    slopes sorted descending, one Fraction per output segment."""
    merged: dict[int, int] = {}
    for height, slope in pairs:
        if height:
            merged[slope] = merged.get(slope, 0) + height
    segments = tuple(
        Segment(Fraction(merged[slope], height_den), Fraction(slope, slope_den))
        for slope in sorted(merged, reverse=True)
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
    heights, height_den = _scaled([height for height, _ in pairs])
    slopes, slope_den = _scaled([slope for _, slope in pairs])
    return _merged(zip(heights, slopes), height_den, slope_den, total_width)


def curve_of(state: ThermoState) -> Curve:
    """Canonical curve of a state: slopes are p_i / g_i on the support."""
    pairs = [
        (p, Fraction(p.numerator * w.denominator, p.denominator * w.numerator))
        for p, w in zip(state.probs, state.weights)
        if p
    ]
    return canonical_curve(pairs, state.z)


def identity_curve() -> Curve:
    """The monoid identity: a single unit-slope segment of width one."""
    return Curve((Segment(_ONE, _ONE),), _ONE)


def num_distinct_slopes(curve: Curve) -> int:
    """Number of sloped segments (the flat tail does not count)."""
    return len(curve.segments)


def breakpoints(curve: Curve) -> list[tuple[Fraction, Fraction]]:
    """Elbow points from (0, 0) to (Z, 1), including the flat-tail endpoint."""
    points = [(_ZERO, _ZERO)]
    x = _ZERO
    y = _ZERO
    for seg in curve.segments:
        x += seg.height / seg.slope
        y += seg.height
        points.append((x, y))
    if x < curve.total_width:
        points.append((curve.total_width, _ONE))
    return points


def evaluate(curve: Curve, x: Fraction) -> Fraction:
    """Exact value of the curve at ``x`` in [0, Z]."""
    if x < 0 or x > curve.total_width:
        raise OutsideDomain(f"x={x} outside [0, {curve.total_width}]")
    y = _ZERO
    remaining = x
    for seg in curve.segments:
        width = seg.height / seg.slope
        if remaining <= width:
            return y + remaining * seg.slope
        y += seg.height
        remaining -= width
    return _ONE


def _height_at(points: list[tuple[Fraction, Fraction]], i: int, x: Fraction) -> Fraction:
    """Height at ``x`` of the polyline ``points``, where ``points[i]`` is its
    first point with abscissa at least ``x`` (and ``i > 0`` unless x = 0)."""
    x1, y1 = points[i]
    if x1 == x:
        return y1
    x0, y0 = points[i - 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def majorizes(a: Curve, b: Curve) -> bool:
    """Whether ``a`` lies on or above ``b`` everywhere on [0, Z].

    Both curves are piecewise linear, so it suffices to compare them at the
    union of their breakpoint abscissae.  One merge walk over the two sorted
    breakpoint lists visits each abscissa once, so the cost is linear in the
    segment counts; the comparison is exact.
    """
    if a.total_width != b.total_width:
        raise WidthMismatch(
            f"widths differ: {a.total_width} vs {b.total_width}; "
            "curves from different Hamiltonians are not comparable"
        )
    pa, pb = breakpoints(a), breakpoints(b)
    i = j = 0
    # Both lists run from (0, 0) to (Z, 1), so they run out together.
    while i < len(pa):
        x = min(pa[i][0], pb[j][0])
        if _height_at(pa, i, x) < _height_at(pb, j, x):
            return False
        if pa[i][0] == x:
            i += 1
        if pb[j][0] == x:
            j += 1
    return True


def coincide(a: Curve, b: Curve) -> bool:
    """Exact equality of canonical forms, total width included."""
    return a == b


def product(a: Curve, b: Curve) -> Curve:
    """Monoid product: pairwise (height*height, slope*slope), widths multiply."""
    ha, ea = _scaled([seg.height for seg in a.segments])
    xa, da = _scaled([seg.slope for seg in a.segments])
    hb, eb = _scaled([seg.height for seg in b.segments])
    xb, db = _scaled([seg.slope for seg in b.segments])
    rows = list(zip(hb, xb))
    pairs = ((h * k, x * y) for h, x in zip(ha, xa) for k, y in rows)
    return _merged(pairs, ea * eb, da * db, a.total_width * b.total_width)


def divide(l: Curve, a: Curve) -> Optional[Curve]:
    """The unique ``q`` with ``product(a, q) == l``, or None if no such curve.

    Peels greedily: the steepest remaining slope of ``l`` must be the product
    of ``a``'s steepest slope with the quotient's next slope, which forces the
    quotient segment by segment (this is the cancellation argument run as an
    algorithm).  The candidate is checked by multiplying back, so a returned
    curve is always a genuine quotient.
    """
    width = l.total_width / a.total_width
    a_top = a.segments[0]
    # l's unpeeled height per slope.  Emptied slopes are deleted and no key
    # is added, so insertion order keeps the steepest remaining slope first.
    remaining: dict[Fraction, Fraction] = {seg.slope: seg.height for seg in l.segments}
    quotient: list[tuple[Fraction, Fraction]] = []
    height_total = _ZERO
    while remaining:
        if len(quotient) >= len(l.segments):
            return None
        top_slope = next(iter(remaining))
        q_slope = top_slope / a_top.slope
        q_height = remaining[top_slope] / a_top.height
        quotient.append((q_height, q_slope))
        height_total += q_height
        if height_total > 1:
            return None
        for seg in a.segments:
            want_slope = seg.slope * q_slope
            left = remaining.get(want_slope)
            if left is None:
                return None
            left -= seg.height * q_height
            if left < 0:
                return None
            if left:
                remaining[want_slope] = left
            else:
                del remaining[want_slope]
    if height_total != _ONE:
        return None
    try:
        q = canonical_curve(quotient, width)
    except ValueError:
        return None
    if product(a, q) != l:
        return None
    return q


def realize_state(curve: Curve) -> ThermoState:
    """A smallest state whose curve is ``curve``.

    One level per segment (prob = height, weight = height/slope) plus, when
    the flat tail has width, a single zero-probability level carrying it.
    """
    probs = [seg.height for seg in curve.segments]
    weights = [seg.height / seg.slope for seg in curve.segments]
    tail = curve.total_width - curve.sloped_width
    if tail > 0:
        probs.append(_ZERO)
        weights.append(tail)
    return ThermoState(tuple(probs), tuple(weights))
