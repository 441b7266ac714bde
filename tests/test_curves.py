"""Curve geometry, the majorization order, and the monoid algebra."""

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from thermomajor import curves
from thermomajor.curves import (
    Curve,
    Segment,
    breakpoints,
    canonical_curve,
    coincide,
    curve_of,
    divide,
    evaluate,
    identity_curve,
    majorizes,
    num_distinct_slopes,
    product,
    realize_state,
)
from thermomajor.errors import (
    InvalidCurve,
    OutsideDomain,
    ParseError,
    ThermomajorError,
    WidthMismatch,
)
from thermomajor.states import ThermoState, _exact_sum, gibbs_of, make_state, tensor

from conftest import family_states, random_curve, random_state, seeded

F = Fraction

_PALETTE = (F(1), F(2), F(3), F(1, 2), F(1, 3), F(4))


@st.composite
def states(draw, min_dim=1, max_dim=4, allow_zero=True):
    dim = draw(st.integers(min_dim, max_dim))
    low = 0 if allow_zero else 1
    raw = draw(
        st.lists(st.integers(low, 8), min_size=dim, max_size=dim).filter(
            lambda xs: sum(xs) > 0
        )
    )
    total = sum(raw)
    weights = tuple(draw(st.sampled_from(_PALETTE)) for _ in range(dim))
    return ThermoState(tuple(F(x, total) for x in raw), weights)


HYPO = settings(max_examples=80, derandomize=True, deadline=None)


@st.composite
def product_pairs(draw, collapse):
    """Two product curves a (x) c and b (x) c of equal width.

    With ``collapse`` the factors are palette states, so product slopes
    merge; otherwise they are generic.  Half the time b is a mixture of a
    with its Gibbs state, which a majorizes.
    """
    a = draw(family_states(draw(st.integers(1, 6)), collapse))
    mix = draw(st.one_of(st.none(), st.fractions(0, 1, max_denominator=8)))
    if mix is None:
        b = draw(family_states(a.dim, collapse, a.weights))
    else:
        tau = gibbs_of(a).probs
        b = ThermoState(tuple(mix * x + (1 - mix) * g for x, g in zip(a.probs, tau)), a.weights)
    c = curve_of(draw(family_states(draw(st.integers(1, 4)), collapse)))
    return product(curve_of(a), c), product(curve_of(b), c), mix is not None


def fraction_canonical_curve(pairs, total_width):
    """The Fraction pair/dict/sort definition the integer kernel replaced."""
    merged = {}
    for height, slope in pairs:
        if height == 0:
            continue
        merged[slope] = merged.get(slope, F(0)) + height
    return Curve(tuple(Segment(merged[x], x) for x in sorted(merged, reverse=True)), total_width)


def fraction_product(a, b):
    pairs = [
        (sa.height * sb.height, sa.slope * sb.slope) for sa in a.segments for sb in b.segments
    ]
    return fraction_canonical_curve(pairs, a.total_width * b.total_width)


def fraction_curve_of(s):
    pairs = [(p, p / w) for p, w in zip(s.probs, s.weights) if p > 0]
    return fraction_canonical_curve(pairs, sum(s.weights, F(0)))


def fraction_divide(l, a):
    """The Fraction peel ``divide`` replaced, which multiplied its candidate
    back to check it."""
    a_top = a.segments[0]
    remaining = {seg.slope: seg.height for seg in l.segments}
    quotient = []
    height_total = F(0)
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
    if height_total != 1:
        return None
    try:
        q = fraction_canonical_curve(quotient, l.total_width / a.total_width)
    except ValueError:
        return None
    return q if fraction_product(a, q) == l else None


@st.composite
def division_cases(draw, palette):
    """(l, a) for ``divide``: an exact product a (x) q, one with height moved
    from a flatter segment to a steeper one, one with its flat tail cut or
    widened, or two unrelated curves."""
    a = curve_of(draw(family_states(draw(st.integers(1, 8)), palette)))
    q = curve_of(draw(family_states(draw(st.integers(1, 8)), palette)))
    left = product(a, q)
    kind = draw(st.sampled_from(["exact", "moved", "tail", "unrelated"]))
    if kind == "moved" and len(left.segments) > 1:
        segs = list(left.segments)
        i, j = sorted(draw(st.permutations(range(len(segs))))[:2])
        moved = segs[j].height * draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
        segs[i] = Segment(segs[i].height + moved, segs[i].slope)
        segs[j] = Segment(segs[j].height - moved, segs[j].slope)
        left = Curve(tuple(segs), left.total_width)
    elif kind == "tail":
        cut, half = left.sloped_width, (left.sloped_width + left.total_width) / 2
        left = Curve(left.segments, draw(st.sampled_from([cut, half, 2 * left.total_width])))
    elif kind == "unrelated":
        left = q
    return left, a


def all_fractions(curve):
    values = [curve.total_width] + [x for seg in curve.segments for x in (seg.height, seg.slope)]
    return all(type(x) is Fraction for x in values)


class TestIntegerKernel:
    @pytest.mark.parametrize("palette", [True, False], ids=["palette", "generic"])
    @HYPO
    @given(data=st.data())
    def test_matches_fraction_definition(self, palette, data):
        a = data.draw(family_states(data.draw(st.integers(1, 12)), palette))
        b = data.draw(family_states(data.draw(st.integers(1, 12)), palette))
        ca, cb = curve_of(a), curve_of(b)
        assert ca == fraction_curve_of(a) and cb == fraction_curve_of(b)
        prod = product(ca, cb)
        assert prod == fraction_product(ca, cb)
        assert all_fractions(prod)
        # Raw level pairs of the joint state: zero heights, repeats, any order.
        joint = tensor(a, b)
        pairs = [(p, p / w) for p, w in zip(joint.probs, joint.weights)]
        assert canonical_curve(pairs, joint.z) == fraction_canonical_curve(pairs, joint.z)
        for values in (a.probs, a.weights, [seg.height / seg.slope for seg in prod.segments]):
            assert _exact_sum(values) == sum(values, F(0))
            assert type(_exact_sum(values)) is Fraction
        assert prod.sloped_width == ca.sloped_width * cb.sloped_width

    @pytest.mark.parametrize(
        "pairs, width, expected",
        [
            (
                [(0, F(3)), (F(1, 2), F(2)), (0, F(1)), (F(1, 2), F(1, 2))], F(5),
                Curve((Segment(F(1, 2), F(2)), Segment(F(1, 2), F(1, 2))), F(5)),
            ),
            (
                [(F(1, 4), F(2)), (F(1, 4), F(1, 2)), (F(1, 2), F(2))], F(3),
                Curve((Segment(F(3, 4), F(2)), Segment(F(1, 4), F(1, 2))), F(3)),
            ),
            ([(0, 5), (1, 3), (0, 0)], 1, Curve((Segment(F(1), F(3)),), 1)),
            ([(0, F(1))], F(1), "curve needs at least one segment"),
            ([(F(1, 2), 0), (F(1, 2), F(1))], F(2), "segment slope 0 must be positive"),
            (
                [(F(1, 4), F(-2)), (F(1, 4), -2), (F(1, 2), F(1))], F(2),
                "segment slope -2 must be positive",
            ),
            ([(F(3, 2), F(2)), (F(-1, 2), F(1))], F(2), "segment height -1/2 must be positive"),
            (
                [(F(1, 2), F(2)), (F(-1, 2), F(2)), (F(1), F(1))], F(2),
                "segment height 0 must be positive",
            ),
            (
                [(F(1, 2), F(2)), (F(-1, 4), F(2)), (F(3, 4), 1)], 2,
                Curve((Segment(F(1, 4), F(2)), Segment(F(3, 4), F(1))), 2),
            ),
            ([(F(1, 2), F(-1, 3)), (F(1, 2), F(1))], F(2), "segment slope -1/3 must be positive"),
            ([], F(1), "curve needs at least one segment"),
            ([(F(1, 4), F(1)), (F(1, 4), F(1))], F(2), "segment heights sum to 1/2, not 1"),
            ([(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))], F(2), "sloped width exceeds total width"),
        ],
        ids=[
            "zero-heights", "repeated-slopes", "int-entries", "all-zero", "zero-slope",
            "negative-repeated-slope", "negative-height", "heights-cancelling",
            "negative-height-merges", "negative-slope", "empty", "heights-below-one",
            "too-narrow",
        ],
    )
    def test_edge_inputs_match_fraction_definition(self, pairs, width, expected):
        """Raw pairs merge by slope before ``Curve`` validation, which
        decides every bad input with its own message; each outcome is
        pinned, and the Fraction definition reaches it too."""
        if isinstance(expected, str):
            for build in (canonical_curve, fraction_canonical_curve):
                with pytest.raises(InvalidCurve, match=f"^{re.escape(expected)}$"):
                    build(pairs, width)
        else:
            # repr pins the types too: Fraction entries, the width as given.
            assert repr(canonical_curve(pairs, width)) == repr(expected)
            assert fraction_canonical_curve(pairs, width) == expected

    @pytest.mark.parametrize("palette", [True, False], ids=["palette", "generic"])
    @HYPO
    @given(data=st.data())
    def test_segments_are_the_slope_classes(self, palette, data):
        """A curve's measure, read from its segments, is its state's slope
        classes: the same height at each slope, steepest first."""

        def as_fractions(m):
            return {F(x, m.slope_den): F(h, m.height_den) for x, h in m.heights.items()}

        s = data.draw(family_states(data.draw(st.integers(1, 12)), palette))
        from_curve = curves._measure(curve_of(s))
        assert as_fractions(from_curve) == as_fractions(curves._measure_of(s._classes, s._den))
        assert list(from_curve.heights) == sorted(from_curve.heights, reverse=True)


class TestCurveValidation:
    """Each ``Curve`` check fires exactly, with its message."""

    @pytest.mark.parametrize(
        "segments, width, message",
        [
            ((), F(1), "curve needs at least one segment"),
            (((F(0), F(2)), (F(1), F(1, 2))), F(2), "segment height 0 must be positive"),
            (((F(3, 2), F(1)), (F(-1, 2), F(1, 2))), F(2), "segment height -1/2 must be positive"),
            (((F(1), F(0)),), F(2), "segment slope 0 must be positive"),
            (((F(1), F(-1, 3)),), F(2), "segment slope -1/3 must be positive"),
            (((F(1, 2), F(1)), (F(1, 2), F(1))), F(2), "segment slopes must strictly decrease"),
            (((F(1, 2), F(1, 2)), (F(1, 2), F(1))), F(3), "segment slopes must strictly decrease"),
            (((F(1, 2), F(1)),), F(1), "segment heights sum to 1/2, not 1"),
            (
                ((F(1, 2), F(1)), (F(1, 2) - F(1, 10**30), F(1, 2))),
                F(2),
                f"segment heights sum to {1 - F(1, 10**30)}, not 1",
            ),
            (((F(1), F(1, 2)),), F(2) - F(1, 10**30), "sloped width exceeds total width"),
        ],
        ids=[
            "empty", "zero-height", "negative-height", "zero-slope", "negative-slope",
            "equal-slopes", "rising-slopes", "heights-below-one", "heights-just-below-one",
            "sloped-width-beyond-total",
        ],
    )
    def test_check_fires(self, segments, width, message):
        with pytest.raises(InvalidCurve, match=f"^{re.escape(message)}$"):
            Curve(tuple(Segment(h, x) for h, x in segments), width)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Curve((Segment(0.5, 1.0), Segment(0.5, 0.5)), 3), "0.5"),
            (lambda: canonical_curve([(0.5, 1.0), (0.5, 0.5)], 3), "0.5"),
            (lambda: Curve((Segment(1, 1),), 1.5), "1.5"),
        ],
        ids=["curve-float-segments", "canonical-float-pairs", "curve-float-width"],
    )
    def test_rejects_non_rational_values(self, build, bad):
        with pytest.raises(ParseError, match=f"^not a rational: {re.escape(bad)}$"):
            build()

    def test_boundaries_accepted(self):
        # Slopes 10^-40 apart still strictly decrease; sloped width may equal the total.
        c = Curve((Segment(F(1, 2), F(1) + F(1, 10**40)), Segment(F(1, 2), F(1))), F(1))
        assert c.sloped_width < 1
        assert Curve((Segment(F(1), F(1, 2)),), F(2)).sloped_width == 2

    @pytest.mark.parametrize("x", [0.1, True, float("nan"), "1/2"], ids=repr)
    def test_evaluate_rejects_non_rational_abscissa(self, x):
        c = Curve((Segment(F(1, 2), F(2)), Segment(F(1, 2), F(1, 2))), F(2))
        with pytest.raises(ParseError, match=f"^not a rational: {re.escape(repr(x))}$"):
            evaluate(c, x)
        assert evaluate(c, F(1, 10)) == F(1, 5) and evaluate(c, 1) == F(7, 8)

    def test_errors_are_library_value_errors(self):
        assert issubclass(InvalidCurve, ThermomajorError) and issubclass(InvalidCurve, ValueError)
        c = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        with pytest.raises(OutsideDomain, match=re.escape("x=3 outside [0, 2]")):
            evaluate(c, F(3))


class TestCurveOf:
    def test_two_level_uniform_weights(self):
        c = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        assert c.segments == (Segment(F(2, 3), F(2, 3)), Segment(F(1, 3), F(1, 3)))
        assert c.total_width == 2
        assert breakpoints(c) == [(0, 0), (1, F(2, 3)), (2, 1)]

    def test_gibbs_is_a_line(self):
        s = make_state(("2/3", "1/3"), (2, 1))
        c = curve_of(s)
        assert c.segments == (Segment(F(1), F(1, 3)),)

    def test_beta_order_picks_the_concave_arrangement(self):
        c = curve_of(make_state(("1/2", "1/2"), (2, 1)))
        assert c.segments == (Segment(F(1, 2), F(1, 2)), Segment(F(1, 2), F(1, 4)))
        assert breakpoints(c) == [(0, 0), (1, F(1, 2)), (3, 1)]

    def test_zero_probability_widens_flat_tail(self):
        c = curve_of(make_state((1, 0), (1, 3)))
        assert c.sloped_width == 1
        assert c.total_width == 4
        assert breakpoints(c)[-1] == (4, 1)

    def test_matches_upper_envelope_of_all_orderings(self):
        # Brute-force oracle: among all level orderings, the cumulative
        # (weight, probability) polyline of the beta-order is the pointwise
        # maximum.  Compare exactly at every candidate breakpoint.
        from itertools import permutations

        rng = seeded(2)
        for _ in range(25):
            s = random_state(rng, rng.randint(2, 4), allow_zero=True)
            c = curve_of(s)
            xs = sorted({x for x, _ in breakpoints(c)})
            for perm in permutations(range(s.dim)):
                cum_x, cum_y = [F(0)], [F(0)]
                for i in perm:
                    cum_x.append(cum_x[-1] + s.weights[i])
                    cum_y.append(cum_y[-1] + s.probs[i])

                def polyline(x):
                    for (x0, y0), (x1, y1) in zip(
                        zip(cum_x, cum_y), zip(cum_x[1:], cum_y[1:])
                    ):
                        if x <= x1:
                            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
                    return F(1)

                xs_all = sorted(set(xs) | set(cum_x))
                assert all(evaluate(c, x) >= polyline(x) for x in xs_all)

    @HYPO
    @given(states())
    def test_concave_and_monotone(self, s):
        c = curve_of(s)
        slopes = [seg.slope for seg in c.segments]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        pts = breakpoints(c)
        assert pts[0] == (0, 0)
        assert pts[-1] == (c.total_width, 1)
        assert all(
            x0 < x1 and y0 <= y1 for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        )


class TestSlopeCount:
    def test_gibbs_single_slope(self):
        assert num_distinct_slopes(curve_of(gibbs_of(make_state((1, 0), (2, 5))))) == 1

    def test_erasure_joint_merges_to_two(self):
        # The eight-level joint has four occupied levels but only two distinct
        # slopes after coarse-graining; that is what lets it coincide with the
        # two-slope final curve.
        system = make_state(("1/3", "2/3"), (1, 1))
        work = make_state(("1/3", "2/3", 0, 0), (1, 2, 3, 3))
        assert num_distinct_slopes(curve_of(tensor(system, work))) == 2

    def test_three_distinct_slopes(self):
        assert num_distinct_slopes(curve_of(make_state(("1/2", "1/3", "1/6"), (1, 1, 1)))) == 3

    def test_pure_state_single_slope(self):
        assert num_distinct_slopes(curve_of(make_state((0, 1, 0), (1, 1, 1)))) == 1


class TestMajorizes:
    def test_pure_above_uniform(self):
        pure = curve_of(make_state((1, 0), (1, 1)))
        uniform = curve_of(make_state(("1/2", "1/2"), (1, 1)))
        assert majorizes(pure, uniform)
        assert not majorizes(uniform, pure)

    def test_mixed_below_pure(self):
        sigma = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        pure = curve_of(make_state((1, 0), (1, 1)))
        assert majorizes(pure, sigma)
        assert not majorizes(sigma, pure)

    def test_reflexive(self):
        c = random_curve(seeded(3))
        assert majorizes(c, c)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            majorizes(
                curve_of(make_state((1, 0), (1, 1))),
                curve_of(make_state((1, 0), (1, 2))),
            )

    def test_flattest_slope_decides(self):
        # Only at a's flattest slope, 1/8, does a's dual fall below b's:
        # L_a(2) = 7/8 < 1 = L_b(2).  A walk that stops one slope early
        # accepts.
        a = curve_of(make_state(("1/8", "1/8", "3/4"), (1, 1, 1)))
        b = curve_of(make_state((0, "1/4", "3/4"), (1, 1, 1)))
        assert a.segments[-1].slope == F(1, 8)
        assert not majorizes(a, b)
        assert majorizes(b, a)

    @HYPO
    @given(states(min_dim=2, max_dim=4))
    def test_everything_majorizes_its_gibbs(self, s):
        assert majorizes(curve_of(s), curve_of(gibbs_of(s)))

    @HYPO
    @given(states(min_dim=2, max_dim=4))
    def test_gibbs_majorizes_only_itself(self, s):
        gibbs = curve_of(gibbs_of(s))
        if majorizes(gibbs, curve_of(s)):
            assert coincide(gibbs, curve_of(s))

    @pytest.mark.parametrize("collapse", [True, False])
    @HYPO
    @given(data=st.data())
    def test_slope_walk_matches_evaluate_at_every_breakpoint(self, collapse, data):
        def brute_force(a, b):
            xs = {x for x, _ in breakpoints(a)} | {x for x, _ in breakpoints(b)}
            return all(evaluate(a, x) >= evaluate(b, x) for x in xs)

        a, b, b_is_mixture = data.draw(product_pairs(collapse))
        assert majorizes(a, b) == brute_force(a, b)
        assert majorizes(b, a) == brute_force(b, a)
        if b_is_mixture:
            assert majorizes(a, b)

    def test_partial_order_on_random_triples(self):
        rng = seeded(4)
        checked_transitive = 0
        for _ in range(300):
            dim = rng.randint(2, 4)
            weights = tuple(rng.choice(_PALETTE) for _ in range(dim))
            a, b, c = (
                curve_of(random_state(rng, dim, allow_zero=True, weights=weights))
                for _ in range(3)
            )
            # antisymmetry: mutual majorization collapses to coincidence
            if majorizes(a, b) and majorizes(b, a):
                assert coincide(a, b)
            # transitivity
            if majorizes(a, b) and majorizes(b, c):
                assert majorizes(a, c)
                checked_transitive += 1
        assert checked_transitive > 0


class TestCoincide:
    def test_erasure_joint_curves(self):
        system = make_state(("1/3", "2/3"), (1, 1))
        init_work = make_state(("1/3", "2/3", 0, 0), (1, 2, 3, 3))
        fin_system = make_state((1, 0), (1, 1))
        fin_work = make_state((0, 0, "1/3", "2/3"), (1, 2, 3, 3))
        init_curve = curve_of(tensor(system, init_work))
        fin_curve = curve_of(tensor(fin_system, fin_work))
        assert coincide(init_curve, fin_curve)
        assert breakpoints(init_curve)[:3] == [(0, 0), (3, F(2, 3)), (6, 1)]

    def test_copy(self):
        c = random_curve(seeded(5))
        assert coincide(c, canonical_curve([(s.height, s.slope) for s in c.segments], c.total_width))

    def test_distinct_states_differ(self):
        a = curve_of(make_state(("1/2", "1/2"), (1, 1)))
        b = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        assert not coincide(a, b)

    def test_equal_sloped_parts_different_tails_differ(self):
        a = curve_of(make_state((1, 0), (1, 1)))
        b = curve_of(make_state((1, 0), (1, 2)))
        assert a.segments == b.segments
        assert not coincide(a, b)


class TestProduct:
    def test_identity(self):
        c = random_curve(seeded(6))
        assert product(c, identity_curve()) == c

    def test_commutative(self):
        rng = seeded(7)
        for _ in range(50):
            a, b = random_curve(rng), random_curve(rng)
            assert product(a, b) == product(b, a)

    @HYPO
    @given(states(max_dim=3), states(max_dim=3))
    def test_matches_joint_state_curve(self, a, b):
        assert product(curve_of(a), curve_of(b)) == curve_of(tensor(a, b))


class TestDivide:
    def test_round_trip(self):
        rng = seeded(8)
        for _ in range(100):
            a, b = random_curve(rng), random_curve(rng)
            assert divide(product(a, b), a) == b

    def test_self_division_gives_identity(self):
        c = random_curve(seeded(9))
        assert divide(c, c) == identity_curve()

    def test_slope_count_obstruction(self):
        line = curve_of(gibbs_of(make_state((1, 0), (1, 1))))
        two = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        assert divide(line, two) is None

    def test_incompatible_width_fails(self):
        a = curve_of(make_state((1, 0), (1, 1)))  # width 2, sloped 1
        b = curve_of(make_state((1, 0), (1, 3)))  # width 4, same segments
        prod = product(a, b)
        shrunk = canonical_curve(
            [(s.height, s.slope) for s in prod.segments], prod.sloped_width
        )
        # the sloped parts divide, but the flat tail cannot
        assert divide(shrunk, a) is None

    @HYPO
    @given(family_states(12, False), family_states(12, False))
    def test_cancellation_of_generic_twelve_level_curves(self, sa, sq):
        a, q = curve_of(sa), curve_of(sq)
        left = product(a, q)
        assert divide(left, a) == q
        assume(len(left.segments) > 1)
        # Move some height from the flattest segment to the steepest: still a
        # valid curve, no longer a multiple of a.
        segs = list(left.segments)
        moved = segs[-1].height / 2
        segs[0] = Segment(segs[0].height + moved, segs[0].slope)
        segs[-1] = Segment(segs[-1].height - moved, segs[-1].slope)
        assert divide(Curve(tuple(segs), left.total_width), a) is None

    def test_cancellation_on_constructed_equalities(self):
        rng = seeded(10)
        for _ in range(100):
            a = random_curve(rng)
            x = random_curve(rng)
            left = product(a, x)
            recovered = divide(left, a)
            assert recovered == x


    @pytest.mark.parametrize("palette", [True, False], ids=["palette", "generic"])
    @HYPO
    @given(data=st.data())
    def test_matches_fraction_peel(self, palette, data):
        left, a = data.draw(division_cases(palette))
        q = divide(left, a)
        assert q == fraction_divide(left, a)
        assert q is None or all_fractions(q)

    @pytest.mark.parametrize("palette", [True, False], ids=["palette", "generic"])
    @HYPO
    @given(data=st.data())
    def test_negative_remainder_stop_is_an_early_exit(self, palette, data):
        """Run on past a negative remainder, the peel of a non-quotient makes
        a negative height or heights summing past 1: ``Curve`` rejects both."""
        left, a = data.draw(division_cases(palette))

        def run_on(remaining, rows, y, k):
            for x, h in rows:
                remaining[x * y] = remaining.get(x * y, 0) - h * k
            return True

        with mock.patch.object(curves, "_subtract_row", run_on):
            assert divide(left, a) == fraction_divide(left, a)

    def test_flat_tail_of_the_divisor_missing_from_the_product(self):
        """The peel succeeds on the sloped parts, but the quotient's sloped
        width exceeds l.Z / a.Z, so no quotient exists."""
        a = curve_of(make_state(("1/2", "1/2", 0), (1, 2, 3)))
        q = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        full = product(a, q)
        assert divide(full, a) == q
        left = Curve(full.segments, full.sloped_width)
        assert divide(left, a) is None
        assert fraction_divide(left, a) is None

    def test_builds_no_product_measure(self):
        """The peel subtracts a's entries from l's measure, so neither a
        product nor a multiply-back is formed."""
        rng = seeded(8)
        pairs = [(random_curve(rng), random_curve(rng)) for _ in range(50)]
        exact = [(product(a, b), a, b) for a, b in pairs]
        c = random_curve(seeded(9))
        line = curve_of(gibbs_of(make_state((1, 0), (1, 1))))
        two = curve_of(make_state(("1/3", "2/3"), (1, 1)))
        tailed = curve_of(make_state(("1/2", "1/2", 0), (1, 2, 3)))
        cut = product(tailed, two)
        cut = Curve(cut.segments, cut.sloped_width)
        moved = product(two, two)
        segs = list(moved.segments)
        segs[0], segs[-1] = (
            Segment(segs[0].height + segs[-1].height / 2, segs[0].slope),
            Segment(segs[-1].height / 2, segs[-1].slope),
        )
        moved = Curve(tuple(segs), moved.total_width)
        refuse = AssertionError("a product measure was formed")
        with mock.patch.object(curves, "_product_measure", side_effect=refuse):
            for left, a, b in exact:
                assert divide(left, a) == b
            assert divide(c, c) == identity_curve()
            assert divide(line, two) is None
            assert divide(cut, tailed) is None
            assert divide(moved, two) is None


class TestProductsCoincide:
    """The four-measure comparison that ``reservoirs.verify_efficient`` runs
    when the work states are no shifts of the system's.  Each verdict is
    also asked of the row subtraction, ``_same_products``, directly, since
    unequal first moments reject before it runs."""

    @staticmethod
    def measures(*states):
        return [curves._measure_of(s._classes, s._den) for s in states]

    def verdict(self, a, b, c, d):
        measures = self.measures(a, b, c, d)
        verdict = curves._products_coincide(*measures)
        assert curves._same_products(*measures) == verdict
        return verdict

    @HYPO
    @given(states(), states())
    def test_first_moment_is_the_alpha_2_sum_and_multiplies(self, s, t):
        ms, mt = self.measures(s, t)
        moment = F(*curves._moment(ms))
        assert moment == sum(p * p / g for p, g in zip(s.probs, s.weights))
        product_moment = F(*curves._moment(curves._product_measure(ms, mt)))
        assert product_moment == moment * F(*curves._moment(mt))

    def test_same_slopes_other_heights(self):
        # Slopes 2 and 1 on both factors: a (x) b carries heights 1/6, 1/2,
        # 1/3 at slopes 4, 2, 1, and b (x) b carries 1/9, 4/9, 4/9 there.
        a = make_state(("1/2", "1/2"), ("1/4", "1/2"))
        b = make_state(("1/3", "2/3"), ("1/6", "2/3"))
        left, right = product(curve_of(a), curve_of(b)), product(curve_of(b), curve_of(b))
        assert [seg.slope for seg in left.segments] == [seg.slope for seg in right.segments]
        assert left != right
        assert not self.verdict(a, b, b, b)
        assert not self.verdict(b, b, a, b)

    def test_equal_products(self):
        a = make_state(("1/2", "1/2"), ("1/4", "1/2"))
        b = make_state(("1/3", "2/3"), ("1/6", "2/3"))
        one = make_state((1,), (1,))
        assert self.verdict(a, b, tensor(a, b), one)
        assert self.verdict(tensor(b, a), one, a, b)

    def test_equal_moments_reach_the_row_subtraction(self):
        # Slopes 3, 1 and 5, 1, both with first moment 2, times b (slopes
        # 2, 1): the moments agree, the products (slopes 6, 3, 2, 1 against
        # 10, 5, 2, 1) do not.
        a = make_state(("1/2", "1/2"), ("1/6", "1/2"))
        c = make_state(("1/4", "3/4"), ("1/20", "3/4"))
        b = make_state(("1/2", "1/2"), ("1/4", "1/2"))
        measures = self.measures(a, b, c, b)
        assert [F(*curves._moment(m)) for m in measures] == [2, F(3, 2), 2, F(3, 2)]
        spy = mock.patch.object(curves, "_same_products", wraps=curves._same_products)
        with spy as same_products:
            assert not curves._products_coincide(*measures)
        assert same_products.called
        assert not self.verdict(a, b, c, b)


    @staticmethod
    def levels(*pairs):
        """The state of one level per (height, slope) pair."""
        return ThermoState(tuple(F(h) for h, _ in pairs), tuple(F(h) / F(s) for h, s in pairs))

    def test_shifted_factors(self):
        # b and d are c and a with every slope times 3/2, and then a and b
        # are c and d times 2/3: both products are shifts of a (x) c.
        c = self.levels((F(1, 2), 2), (F(1, 2), 1))
        a = self.levels((F(1, 4), 4), (F(3, 4), 1))
        b = self.levels((F(1, 2), 3), (F(1, 2), F(3, 2)))
        d = self.levels((F(1, 4), 6), (F(3, 4), F(3, 2)))
        assert self.verdict(a, b, c, d) and self.verdict(c, d, a, b)
        # One factor another (kappa = 1) and the other two equal too; the
        # rejecting halves are in the test below.
        x = self.levels((F(1, 2), 2), (F(1, 2), 1))
        spread = self.levels((F(1, 2), 1), (F(1, 2), 4))
        point = self.levels((1, F(5, 2)),)
        assert self.verdict(spread, x, x, spread)
        assert self.verdict(x, point, x, point)

    def test_one_half_of_a_certificate_is_not_enough(self):
        # Slopes 1, 4 and the one slope 5/2 share the first moment 5/2, and
        # so do x and itself: in each case one factor is another (kappa =
        # 1), the other pair is not, and the products differ.
        x = self.levels((F(1, 2), 2), (F(1, 2), 1))
        spread = self.levels((F(1, 2), 1), (F(1, 2), 4))
        point = self.levels((1, F(5, 2)),)
        assert not self.verdict(spread, x, x, point)  # b = c only
        assert not self.verdict(x, point, spread, x)  # d = a only
        assert not self.verdict(x, spread, x, point)  # c = a only
        assert not self.verdict(point, x, spread, x)  # b = d only

    def test_a_shift_needs_equal_heights(self):
        # Slopes 1, 2, 3 with heights 1/4, 1/2, 1/4 and 1/3 each: the same
        # slopes and the same first moment 2, but no shift of each other.
        c = self.levels((F(1, 4), 1), (F(1, 2), 2), (F(1, 4), 3))
        b = self.levels((F(1, 3), 1), (F(1, 3), 2), (F(1, 3), 3))
        one = make_state((1,), (1,))
        assert not self.verdict(one, b, c, one)
        assert not self.verdict(c, one, one, b)

    def test_a_shift_needs_integer_slopes(self):
        # b's first moment over c's is 8/13, the one slope of kappa, so the
        # moments agree.  c's slopes 2, 3, 4 times 8/13 round down to 1, 1,
        # 2, slopes of b with the same heights, but b is no shift of c.
        c = self.levels((F(1, 4), 2), (F(1, 4), 3), (F(1, 2), 4))
        b = self.levels((F(1, 4), 1), (F(1, 2), 2), (F(1, 4), 3))
        one, kappa = make_state((1,), (1,)), self.levels((1, F(8, 13)),)
        assert not self.verdict(one, b, c, kappa)
        assert not self.verdict(kappa, c, b, one)


class TestRealizeState:
    @HYPO
    @given(states())
    def test_realization_reproduces_curve(self, s):
        c = curve_of(s)
        assert curve_of(realize_state(c)) == c


class TestIntEntries:
    """A curve with int entries, which ``Curve`` allows, gives the exact
    Fractions its Fraction twin gives: no value passes through a float."""

    ONE_THIRD = Curve((Segment(1, 3),), 1)
    TWIN = Curve((Segment(F(1), F(3)),), F(1))
    TAILED = Curve((Segment(1, 1),), 2)

    def test_breakpoints(self):
        assert breakpoints(self.ONE_THIRD) == [(0, 0), (F(1, 3), 1), (1, 1)]
        points = breakpoints(self.TAILED)
        assert points == [(0, 0), (1, 1), (2, 1)]
        assert all(type(v) is Fraction for point in points for v in point)

    def test_evaluate(self):
        for curve, x, y in ((self.ONE_THIRD, F(1, 6), F(1, 2)), (self.TAILED, F(3, 2), F(1))):
            value = evaluate(curve, x)
            assert value == y and type(value) is Fraction

    def test_majorizes(self):
        assert majorizes(self.TWIN, self.ONE_THIRD) and majorizes(self.ONE_THIRD, self.TWIN)
        # Both reach height 1 at x = 1/19; a float 1/19 read the steeper curve
        # as below the straight one there.
        straight = Curve((Segment(1, 19),), 1)
        steeper = Curve((Segment(F(3, 10), F(32)), Segment(F(7, 10), F(4256, 263))), F(1))
        assert majorizes(steeper, straight) and not majorizes(straight, steeper)

    def test_realize_state(self):
        state = realize_state(self.TAILED)
        assert state.weights == (1, 1) and curve_of(state) == self.TAILED
        assert curve_of(realize_state(self.ONE_THIRD)) == self.TWIN

    def test_divide(self):
        assert divide(self.TAILED, self.TAILED) == identity_curve()
        assert divide(self.ONE_THIRD, self.ONE_THIRD) == identity_curve()
        assert divide(product(self.TAILED, self.ONE_THIRD), self.TAILED) == self.TWIN
