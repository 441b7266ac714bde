"""Deterministic work bounds and the three reservoir constructions."""

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, permutations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from thermomajor import curves, reservoirs
from thermomajor.curves import (
    coincide, curve_of, divide, identity_curve, num_distinct_slopes, product
)
from thermomajor.divergences import renyi, shannon_entropy
from thermomajor.errors import (
    DimensionMismatch,
    GibbsInput,
    NegativeProbability,
    NonPositiveWeight,
    NontrivialHamiltonian,
    ParseError,
    ProbSumNotOne,
    ZeroProbability,
)
from thermomajor.reservoirs import (
    Reservoir,
    alt_product_reservoir,
    average_work,
    characterize_formation_family,
    dimension_lower_bound,
    general_efficient_reservoir,
    joint_states,
    minimal_extraction_reservoir,
    minimal_formation_pair,
    two_level_extraction_bound,
    two_level_formation_bound,
    verify_efficient,
)
from thermomajor.states import (
    ThermoState,
    Transition,
    clock_lift,
    gibbs_of,
    make_state,
    tensor,
)

from conftest import family_states, random_full_support_state, random_state, seeded
from test_states import assert_same_state

F = Fraction


def extraction_transition(p):
    return Transition(p, gibbs_of(p))


def padded(res, e):
    """``res`` tensored in both weight blocks with the state ``e``: still
    efficient, but its work measures are in general no shifts of the
    system's, so the products are compared."""
    initial = tensor(ThermoState(res.r, res.init_weights), e)
    final = tensor(ThermoState(res.r, res.fin_weights), e)
    return Reservoir(initial.probs, initial.weights, final.weights)


def tampered(res):
    """``res`` with its largest-mass final weight times 10001/10000."""
    k = max(range(len(res.r)), key=res.r.__getitem__)
    fin = list(res.fin_weights)
    fin[k] *= F(10001, 10000)
    return Reservoir(res.r, res.init_weights, tuple(fin))


def assert_rejected_without_products(t, res):
    """``verify_efficient`` rejects ``res`` before forming a product measure,
    and the materialised joint states agree."""
    refuse = AssertionError("a product measure was formed")
    with mock.patch.object(curves, "_same_products", side_effect=refuse):
        verdict = verify_efficient(t, res)
    ji, jf = joint_states(t, res)
    assert verdict is False
    assert verdict == coincide(curve_of(ji), curve_of(jf))


#: The kinds of :func:`transitions_with_reservoirs` whose reservoir a
#: library constructor builds.
BUILT_KINDS = ["generic", "palette", "lifted", "extraction", "product"]


@st.composite
def transitions_with_reservoirs(draw, kind):
    """A transition of at most 8 levels and the reservoir built for it.

    ``generic`` and ``palette`` are plain transitions of one family; the
    clock-lifted, extraction and product kinds draw their family.  Product
    transitions have at most 4 equal-weight levels and no zero level.
    ``padded`` takes a reservoir of another kind and pads it with a 2-4
    level non-Gibbs state of full support.
    """
    palette = kind == "palette" or (kind != "generic" and draw(st.booleans()))
    if kind == "padded":
        t, res = draw(transitions_with_reservoirs(draw(st.sampled_from(BUILT_KINDS))))
        e = draw(family_states(draw(st.integers(2, 4)), palette))
        assume(all(e.probs) and e != gibbs_of(e))
        return t, padded(res, e)
    if kind == "product":
        dim = draw(st.integers(1, 4))
        weights = (draw(st.builds(F, st.integers(1, 9), st.integers(1, 9))),) * dim
        t = Transition(
            draw(family_states(dim, palette, weights)), draw(family_states(dim, palette, weights))
        )
        assume(all(t.initial.probs) and all(t.final.probs))
        return t, alt_product_reservoir(t)
    if kind == "lifted":
        t = clock_lift(
            draw(family_states(draw(st.integers(1, 4)), palette)),
            draw(family_states(draw(st.integers(1, 4)), palette)),
        )
        return t, general_efficient_reservoir(t)
    initial = draw(family_states(draw(st.integers(1, 8)), palette))
    if kind == "extraction":
        assume(initial != gibbs_of(initial))
        return extraction_transition(initial), minimal_extraction_reservoir(initial)
    t = Transition(initial, draw(family_states(initial.dim, palette, initial.weights)))
    return t, general_efficient_reservoir(t)


#: Gauge constants that are not rationals, with how the error shows them.
NON_RATIONAL_GAUGES = pytest.mark.parametrize(
    "gauge, shown", [(0.1, "0.1"), (True, "True"), ("3", "'3'")], ids=["float", "bool", "str"]
)


class TestReservoirValidation:
    @pytest.mark.parametrize(
        "r, init_weights, fin_weights, bad",
        [
            ((0.5, F(1, 2)), (F(1), F(1)), (F(1), F(1)), "0.5"),
            ((F(1, 2), F(1, 2)), (F(1), 2.0), (F(1), F(1)), "2.0"),
        ],
        ids=["float-probability", "float-weight"],
    )
    def test_rejects_non_rational_entries(self, r, init_weights, fin_weights, bad):
        with pytest.raises(ParseError, match=f"^not a rational: {bad}$"):
            Reservoir(r, init_weights, fin_weights)

    def test_sum_checked_exactly(self):
        short = F(1, 2) - F(1, 10**30)
        message = f"^reservoir distribution sums to {1 - F(1, 10**30)}$"
        with pytest.raises(ProbSumNotOne, match=message):
            Reservoir((F(1, 2), short), (F(1), F(1)), (F(1), F(1)))


class TestTwoLevelBounds:
    def test_pure_bit_extraction(self):
        assert two_level_extraction_bound(make_state((1, 0), (1, 1))) == math.log(2)

    def test_pure_bit_formation(self):
        assert two_level_formation_bound(make_state((1, 0), (1, 1))) == math.log(2)

    def test_gibbs_state_zero(self):
        g = gibbs_of(make_state((1, 0), (2, 3)))
        assert two_level_extraction_bound(g) == 0.0
        assert two_level_formation_bound(g) == 0.0

    def test_partial_support_extraction(self):
        p = make_state(("1/2", "1/2", 0), (1, 1, 1))
        assert abs(two_level_extraction_bound(p) + math.log(2 / 3)) <= 1e-15

    def test_biased_bit_formation(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        assert abs(two_level_formation_bound(p) - math.log(3 / 2)) <= 1e-15


class TestMinimalReservoir:
    def test_biased_bit_weights(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        res = minimal_extraction_reservoir(p)
        assert res.r == (F(3, 4), F(1, 4))
        assert res.init_weights == (F(3, 4), F(1, 4))
        assert res.fin_weights == (F(1, 2), F(1, 2))

    def test_average_work_matches_kl(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        res = minimal_extraction_reservoir(p)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert abs(average_work(res) - expected) <= 1e-14
        assert abs(average_work(res) - renyi(1.0, p, gibbs_of(p))) <= 1e-14

    def test_gibbs_input_rejected(self):
        with pytest.raises(GibbsInput):
            minimal_extraction_reservoir(gibbs_of(make_state((1, 0), (1, 1))))

    def test_gauge_constant_shifts_all_levels(self):
        p = make_state(("2/3", "1/3"), (1, 2))
        res1 = minimal_extraction_reservoir(p)
        res3 = minimal_extraction_reservoir(p, F(3))
        assert tuple(w * 3 for w in res3.init_weights) == res1.init_weights
        assert tuple(w * 3 for w in res3.fin_weights) == res1.fin_weights

    @NON_RATIONAL_GAUGES
    def test_gauge_constant_must_be_rational(self, gauge, shown):
        with pytest.raises(ParseError) as excinfo:
            minimal_extraction_reservoir(make_state(("2/3", "1/3"), (1, 2)), gauge)
        assert str(excinfo.value) == f"not a rational: {shown}"

    def test_randomized_verification(self):
        rng = seeded(31)
        count = 0
        while count < 40:
            p = random_state(rng, rng.randint(2, 4))
            if p == gibbs_of(p):
                continue
            res = minimal_extraction_reservoir(p)
            assert verify_efficient(extraction_transition(p), res)
            assert abs(average_work(res) - renyi(1.0, p, gibbs_of(p))) <= 1e-10
            count += 1


class TestDimensionLowerBound:
    def test_two_slope_state(self):
        assert dimension_lower_bound(make_state(("1/3", "2/3"), (1, 1))) == 4

    def test_gibbs(self):
        assert dimension_lower_bound(gibbs_of(make_state((1, 0), (1, 2)))) == 2

    def test_three_slopes(self):
        assert dimension_lower_bound(make_state(("1/2", "1/3", "1/6"), (1, 1, 1))) == 6

    @pytest.mark.parametrize("palette", [True, False], ids=["palette", "generic"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_counts_the_curve_segments(self, palette, data):
        p = data.draw(family_states(data.draw(st.integers(1, 8)), palette))
        # A zero level adds no slope class (palette states draw their own too).
        padded = ThermoState(p.probs + (F(0),), p.weights + (F(7, 5),))
        for state in (p, padded):
            assert dimension_lower_bound(state) == 2 * num_distinct_slopes(curve_of(state))

    def test_small_reservoirs_fail_at_m2(self):
        # Coarse sweep here; the acceptance suite runs the full 10^4 grid.
        p = make_state(("3/4", "1/4"), (1, 1))
        t = extraction_transition(p)
        for i in range(1, 21):
            for j in range(1, 21):
                res = Reservoir((F(1),), (F(i, 7),), (F(j, 11),))
                assert not verify_efficient(t, res)


class TestGeneralReservoir:
    def test_worked_two_level_example(self):
        t = Transition(
            make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
        )
        res = general_efficient_reservoir(t)
        assert res.r == (F(1, 3), F(1, 6), F(1, 2))
        assert res.init_weights == (F(1), F(1, 8), F(3, 8))
        assert res.fin_weights == (F(2, 3), F(1, 3), F(1, 2))
        assert verify_efficient(t, res)
        assert abs(average_work(res) + 0.17216) <= 1e-4

    def test_erasure_reproduces_four_level_table(self):
        t = Transition(
            make_state(("1/3", "2/3"), (1, 1)), make_state((1, 0), (1, 1))
        )
        res = general_efficient_reservoir(t)
        assert res.r == (F(1, 3), F(2, 3))
        assert res.init_weights == (F(1), F(2))
        assert res.fin_weights == (F(3), F(3))

    def test_clock_lifted_final_weights(self):
        initial = make_state(("1/2", "1/2"), (1, 2))
        final = make_state(("2/3", "1/3"), (1, 1))
        t = clock_lift(initial, final)
        res = general_efficient_reservoir(t)
        assert verify_efficient(t, res)
        # final weights proportional to (1/3, 4/9, 2/9) * (Z/Z') paired with
        # r = (1/2, 1/3, 1/6)
        pairs = dict(zip(res.r, res.fin_weights))
        scale = pairs[F(1, 2)] / (F(1, 3) * F(3, 2))
        assert pairs[F(1, 3)] == F(4, 9) * F(3, 2) * scale
        assert pairs[F(1, 6)] == F(2, 9) * F(3, 2) * scale

    def test_identity_transition_trivial(self):
        s = make_state(("1/3", "2/3"), (1, 2))
        res = general_efficient_reservoir(Transition(s, s))
        assert res.dim == 2
        assert average_work(res) == 0.0
        assert verify_efficient(Transition(s, s), res)

    def test_anchor_gauge(self):
        t = Transition(
            make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
        )
        res = general_efficient_reservoir(t, anchor_weight=F(5, 7))
        assert res.init_weights[0] == F(5, 7)
        assert verify_efficient(t, res)

    @NON_RATIONAL_GAUGES
    def test_anchor_weight_must_be_rational(self, gauge, shown):
        t = Transition(make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1)))
        with pytest.raises(ParseError) as excinfo:
            general_efficient_reservoir(t, gauge)
        assert str(excinfo.value) == f"not a rational: {shown}"

    def test_single_sided_zeros_handled_directly(self):
        t = Transition(
            make_state(("1/2", "1/2", 0), (1, 1, 1)),
            make_state((0, "1/4", "3/4"), (1, 1, 1)),
        )
        res = general_efficient_reservoir(t)
        assert verify_efficient(t, res)

    def test_both_zero_levels_dropped_from_grid(self):
        t = Transition(
            make_state(("1/2", 0, "1/2"), (1, 5, 1)),
            make_state(("1/4", 0, "3/4"), (1, 5, 1)),
        )
        res = general_efficient_reservoir(t)
        assert verify_efficient(t, res)
        assert len(res.r) <= 3

    def test_randomized_work_identity(self):
        rng = seeded(32)
        for _ in range(40):
            dim = rng.randint(2, 4)
            weights = random_state(rng, dim).weights
            a = random_state(rng, dim, allow_zero=True, weights=weights)
            b = random_state(rng, dim, allow_zero=True, weights=weights)
            t = Transition(a, b)
            res = general_efficient_reservoir(t)
            assert verify_efficient(t, res)
            tau = gibbs_of(a)
            expected = renyi(1.0, a, tau) - renyi(1.0, b, tau)
            assert abs(average_work(res) - expected) <= 1e-10


class TestSlopeClasses:
    """The general walk couples slope classes, not levels."""

    def test_collapsed_slopes_give_fewer_levels(self):
        # p's first two levels share a slope: 3 cells where the level walk
        # makes 4, and the smaller reservoir still verifies.
        t = Transition(
            make_state(("1/4", "1/4", "1/2"), (1, 1, 1)),
            make_state(("1/2", "1/3", "1/6"), (1, 1, 1)),
        )
        res = general_efficient_reservoir(t)
        assert res.r == (F(1, 2), F(1, 3), F(1, 6))
        assert len(reference_general(t, F(1)).r) == 4
        assert verify_efficient(t, res)

    @pytest.mark.parametrize("kind", ["generic", "palette", "lifted"])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_levels_bounded_by_distinct_slopes(self, kind, data):
        t, res = data.draw(transitions_with_reservoirs(kind))
        m = num_distinct_slopes(curve_of(t.initial))
        m_prime = num_distinct_slopes(curve_of(t.final))
        assert len(res.r) <= m + m_prime - 1
        assert verify_efficient(t, res)

    @pytest.mark.parametrize("palette", [False, True], ids=["generic", "palette"])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_extraction_as_small_as_the_minimal_reservoir(self, palette, data):
        p = data.draw(with_zeros(data.draw(family_states(data.draw(st.integers(1, 8)), palette))))
        assume(p != gibbs_of(p))
        t = extraction_transition(p)
        res = general_efficient_reservoir(t)
        assert len(res.r) == len(minimal_extraction_reservoir(p).r)
        assert verify_efficient(t, res)


class TestAltProductReservoir:
    def test_entropy_difference_work(self):
        t = Transition(
            make_state(("1/2", "1/2"), (1, 1)), make_state(("1/3", "2/3"), (1, 1))
        )
        res = alt_product_reservoir(t)
        assert res.dim == 8
        assert verify_efficient(t, res)
        expected = shannon_entropy((F(1, 3), F(2, 3))) - math.log(2)
        assert abs(average_work(res) - expected) <= 1e-12
        assert abs(average_work(res) + 0.0566) <= 1e-4

    def test_identity_gives_zero_work(self):
        s = make_state(("1/4", "3/4"), (2, 2))
        res = alt_product_reservoir(Transition(s, s))
        assert abs(average_work(res)) <= 1e-15
        assert verify_efficient(Transition(s, s), res)

    def test_nontrivial_hamiltonian_rejected(self):
        t = Transition(
            make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
        )
        with pytest.raises(NontrivialHamiltonian):
            alt_product_reservoir(t)

    def test_zero_probability_rejected(self):
        t = Transition(
            make_state((1, 0), (1, 1)), make_state(("1/2", "1/2"), (1, 1))
        )
        with pytest.raises(ZeroProbability):
            alt_product_reservoir(t)

    def test_randomized_verification(self):
        rng = seeded(33)
        for _ in range(25):
            dim = rng.randint(2, 3)
            weights = (F(1),) * dim
            a = random_full_support_state(rng, dim)
            b = random_full_support_state(rng, dim)
            t = Transition(
                make_state(a.probs, weights), make_state(b.probs, weights)
            )
            res = alt_product_reservoir(t)
            assert verify_efficient(t, res)


class TestVerifyEfficient:
    def test_table_reservoir_exact(self):
        t = Transition(
            make_state(("1/3", "2/3"), (1, 1)), make_state((1, 0), (1, 1))
        )
        res = Reservoir((F(1, 3), F(2, 3)), (F(1), F(2)), (F(3), F(3)))
        assert verify_efficient(t, res)
        ji, jf = joint_states(t, res)
        assert coincide(curve_of(ji), curve_of(jf))

    def test_no_two_level_reservoir_erases_a_mixed_bit(self):
        t = Transition(
            make_state(("1/3", "2/3"), (1, 1)), make_state((1, 0), (1, 1))
        )
        for i in range(1, 30):
            for j in range(1, 30):
                res = Reservoir((F(1),), (F(i, 13),), (F(j, 17),))
                assert not verify_efficient(t, res)

    def test_swapped_final_weights_rejected_past_d0(self):
        t = Transition(
            make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
        )
        res = general_efficient_reservoir(t)
        fin = res.fin_weights
        swapped = Reservoir(res.r, res.init_weights, (fin[1], fin[0]) + fin[2:])
        assert fin[0] != fin[1]
        assert sum(swapped.fin_weights) == sum(fin)  # D_0 of the final side is unchanged
        assert verify_efficient(t, res)
        assert not verify_efficient(t, swapped)

    def test_same_slopes_and_d0_but_other_heights_rejected(self):
        # Both curves have slopes 1/6, 1/12, 1/24 and sloped width 14; the
        # heights at them are (1/3, 1/3, 1/3) and (1/2, 1/12, 5/12).
        s = make_state(("1/6",) * 2 + ("1/12",) * 4 + ("1/24",) * 8, (1,) * 14)
        s_prime = make_state(("1/6",) * 3 + ("1/12",) + ("1/24",) * 10, (1,) * 14)
        res = Reservoir((F(1),), (F(1),), (F(1),))
        assert not verify_efficient(Transition(s, s_prime), res)

    def test_shifted_slopes_with_other_heights_rejected(self):
        # Both work measures are s's measure (kappa = 1), so each has the
        # slopes of s_prime's as well, but not its heights.
        s = make_state(("1/6",) * 2 + ("1/12",) * 4 + ("1/24",) * 8, (1,) * 14)
        s_prime = make_state(("1/6",) * 3 + ("1/12",) + ("1/24",) * 10, (1,) * 14)
        weights = (F(2), F(4), F(8))
        res = Reservoir((F(1, 3),) * 3, weights, weights)
        t = Transition(s, s_prime)
        assert not verify_efficient(t, res)
        ji, jf = joint_states(t, res)
        assert not coincide(curve_of(ji), curve_of(jf))

    def test_trivial_reservoir_on_identity(self):
        # The one-level reservoir is a shift of c only when c has one
        # class, as (1/3, 2/3) on (1, 2) and (1/4, 0, 3/4) on (1, 1, 3) do;
        # on two classes the row subtraction decides it.
        res = Reservoir((F(1),), (F(1),), (F(1),))
        states = [
            make_state(("1/3", "2/3"), (1, 2)),
            make_state(("1/4", "0", "3/4"), (1, 1, 3)),
            make_state(("1/3", "2/3"), (1, 1)),
        ]
        assert [len(s._classes) for s in states] == [1, 1, 2]
        for s in states:
            t = Transition(s, s)
            assert verify_efficient(t, res)
            ji, jf = joint_states(t, res)
            assert coincide(curve_of(ji), curve_of(jf))

    def test_moved_trivial_reservoir_on_identity_rejected(self):
        s = make_state(("1/3", "2/3"), (1, 2))
        for fin in (F(2), F(1, 2)):
            assert not verify_efficient(Transition(s, s), Reservoir((F(1),), (F(1),), (fin,)))

    def test_translation_symmetry(self):
        rng = seeded(34)
        for _ in range(20):
            p = random_full_support_state(rng, 3)
            if p == gibbs_of(p):
                continue
            res = minimal_extraction_reservoir(p)
            scale = F(rng.randint(1, 9), rng.randint(1, 9))
            shifted = Reservoir(
                res.r,
                tuple(w * scale for w in res.init_weights),
                tuple(w * scale for w in res.fin_weights),
            )
            t = extraction_transition(p)
            assert verify_efficient(t, shifted) == verify_efficient(t, res)
            assert abs(average_work(shifted) - average_work(res)) <= 1e-12

    def test_reservoir_entropy_conserved_exactly(self):
        rng = seeded(35)
        for _ in range(20):
            dim = rng.randint(2, 4)
            weights = random_state(rng, dim).weights
            a = random_state(rng, dim, allow_zero=True, weights=weights)
            b = random_state(rng, dim, allow_zero=True, weights=weights)
            work = general_efficient_reservoir(Transition(a, b)).work_transition()
            init_probs = sorted(p for p in work.initial.probs if p > 0)
            fin_probs = sorted(p for p in work.final.probs if p > 0)
            assert init_probs == fin_probs


class TestJointStatesAgainstMonoid:
    @pytest.mark.parametrize("tampered", [False, True])
    @pytest.mark.parametrize("kind", BUILT_KINDS + ["padded"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_verdicts_agree(self, kind, tampered, data):
        t, res = data.draw(transitions_with_reservoirs(kind))
        if tampered:
            k = data.draw(st.integers(0, len(res.r) - 1))
            fin = list(res.fin_weights)
            fin[k] *= F(10001, 10000)
            res = Reservoir(res.r, res.init_weights, tuple(fin))
        ji, jf = joint_states(t, res)
        joint_i, joint_f = curve_of(ji), curve_of(jf)
        work = res.work_transition()
        assert joint_i == product(curve_of(t.initial), curve_of(work.initial))
        assert joint_f == product(curve_of(t.final), curve_of(work.final))
        verdict = verify_efficient(t, res)
        assert verdict == coincide(joint_i, joint_f)
        assert verdict is not tampered

    @pytest.mark.parametrize("kind", BUILT_KINDS + ["padded"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_rescaled_final_weights(self, kind, data):
        """Doubling every final weight keeps each built reservoir's work
        measures shifts of the system's, by two different factors, so the
        check of d against a must compare them."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        rescaled = Reservoir(res.r, res.init_weights, tuple(2 * w for w in res.fin_weights))
        verdict = verify_efficient(t, rescaled)
        ji, jf = joint_states(t, rescaled)
        assert verdict == coincide(curve_of(ji), curve_of(jf))
        assert not verdict

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_built_reservoirs_need_no_product_measure(self, kind, data):
        """Every constructor's reservoir for a transition that moves passes
        the levels check, so verifying it never reaches the product
        comparison."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        # An identity's trivial reservoir is no walk over c's classes.
        assume(t.initial != t.final)
        refuse = AssertionError("a product measure was formed")
        with mock.patch.object(curves, "_same_products", side_effect=refuse):
            assert verify_efficient(t, res)

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_tampered_reservoirs_need_no_product_measure(self, kind, data):
        """Bumping a final weight w by T takes its level's mass out of its
        class of T_kappa a, so the levels check rejects; on the fallback it
        changes the final work measure's first moment by h s (1/T - 1) != 0
        at the level's height h and slope s, so the moments reject.  Either
        way no product measure is formed."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        assert_rejected_without_products(t, tampered(res))

    @pytest.mark.parametrize("kind", BUILT_KINDS + ["padded"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_swapped_final_weights(self, kind, data):
        """Swapping two unequal final weights keeps D_0, so the verdict
        comes from comparing the joint measures."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        fin = list(res.fin_weights)
        pairs = [(i, j) for i in range(len(fin)) for j in range(i) if fin[i] != fin[j]]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        fin[i], fin[j] = fin[j], fin[i]
        swapped = Reservoir(res.r, res.init_weights, tuple(fin))
        work = swapped.work_transition()
        sys_i, sys_f = curve_of(t.initial), curve_of(t.final)
        res_i, res_f = curve_of(work.initial), curve_of(work.final)
        assert sys_i.sloped_width * res_i.sloped_width == sys_f.sloped_width * res_f.sloped_width
        verdict = verify_efficient(t, swapped)
        assert verdict == coincide(product(sys_i, res_i), product(sys_f, res_f))
        ji, jf = joint_states(t, swapped)
        assert verdict == coincide(curve_of(ji), curve_of(jf))


def permuted(res, order):
    """``res`` with its levels in ``order``, through the public constructor."""
    fields = (res.r, res.init_weights, res.fin_weights)
    return Reservoir(*[tuple(xs[i] for i in order) for xs in fields])


def assert_decided_from_levels(t, res):
    """``verify_efficient`` decides ``res`` with neither work state's slope
    classes read, and agrees with the materialised joint states."""
    verdict = verify_efficient(t, res)
    assert "_classes" not in vars(res._initial) and "_classes" not in vars(res._final)
    ji, jf = joint_states(t, res)
    assert verdict == coincide(curve_of(ji), curve_of(jf))
    return verdict


class TestCancellationVerify:
    """A slope-matched reservoir is decided from its levels: with kappa read
    from the first cell or, in another level order, from the steepest
    slopes, b = T_kappa c, and then d = T_kappa a is the verdict (c
    cancels).  Any other reservoir goes to the four measures."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_built_and_final_tampered_decided_from_levels(self, kind, tamper, data):
        t, res = data.draw(transitions_with_reservoirs(kind))
        # An identity's trivial reservoir is no walk over c's classes.
        assume(t.initial != t.final)
        if tamper:
            res = tampered(res)
        assert assert_decided_from_levels(t, res) is not tamper

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_any_level_order_needs_no_product_measure(self, kind, data):
        """A permuted reservoir may miss the first-cell gauge; the gauge of
        the steepest slopes then fits, so it is decided from its levels,
        plain and tampered."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        assume(t.initial != t.final)
        res = permuted(res, data.draw(st.permutations(range(len(res.r)))))
        assert assert_decided_from_levels(t, res) is True
        assert assert_decided_from_levels(t, tampered(res)) is False

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_initial_weight_tamper_agrees_with_joint_states(self, kind, data):
        """Bumping an initial weight w by T breaks b = T_kappa c for the
        walk's gauge.  If no gauge fits, it changes b's first moment by
        h s (1/T - 1) != 0 and leaves the other three, so the moments
        reject: no product measure is formed either way."""
        t, res = data.draw(transitions_with_reservoirs(kind))
        k = data.draw(st.integers(0, len(res.r) - 1))
        init = list(res.init_weights)
        init[k] *= F(10001, 10000)
        assert_rejected_without_products(t, Reservoir(res.r, tuple(init), res.fin_weights))

    def test_mass_moved_between_classes_rejected(self):
        # Cells 0 and 1 leave p's class at slope 2/3 and cell 2 its class at
        # 1/3.  Doubling cell 1's final weight moves its slope to the other
        # class: both of a's classes stay covered, with masses 1/3 and 2/3
        # where a has 2/3 and 1/3.
        t = Transition(make_state(("2/3", "1/3"), (1, 1)), make_state(("1/3", "2/3"), (1, 1)))
        res = general_efficient_reservoir(t)
        assert res.dim == 6
        fin = list(res.fin_weights)
        fin[1] *= 2
        assert assert_decided_from_levels(t, Reservoir(res.r, res.init_weights, tuple(fin))) is False
        assert assert_decided_from_levels(t, res) is True

    def test_palette_zero_and_lifted_levels(self):
        # Several levels per class and zero levels on both sides, plain and
        # clock-lifted, in walk order and reversed.
        weights = ("1", "2", "1", "2", "1")
        p = make_state(("1/4", "1/2", "0", "0", "1/4"), weights)
        q = make_state(("0", "1/3", "1/6", "1/3", "1/6"), weights)
        for t in (Transition(p, q), Transition(q, p), clock_lift(p, q), clock_lift(q, p)):
            res = general_efficient_reservoir(t)
            assert assert_decided_from_levels(t, res) is True
            assert assert_decided_from_levels(t, tampered(res)) is False
            assert assert_decided_from_levels(t, permuted(res, range(len(res.r))[::-1])) is True

    def test_shifted_work_states_in_any_level_order(self):
        # c has slopes 1, 2 and a slopes 1, 4, the first class not the
        # steepest; b and d carry them times kappa = 3/2.  An order that
        # starts at a work level of slope 3/2 fits the first-cell gauge;
        # any other needs the steepest one.  Run backwards, c and a swap
        # roles.
        c = ThermoState((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)))
        a = ThermoState((F(3, 4), F(1, 4)), (F(3, 4), F(1, 16)))
        r = (F(1, 4), F(1, 4), F(1, 2))
        b_weights, d_weights = (F(1, 12), F(1, 12), F(1, 3)), (F(1, 24), F(1, 6), F(1, 3))
        for t, res in [
            (clock_lift(a, c), Reservoir(r, b_weights, d_weights)),
            (clock_lift(c, a), Reservoir(r, d_weights, b_weights)),
        ]:
            for order in permutations(range(3)):
                shuffled = permuted(res, order)
                assert assert_decided_from_levels(t, shuffled) is True
                assert assert_decided_from_levels(t, tampered(shuffled)) is False

    def test_shift_check_covers_every_class(self):
        # One level at slope 1 against classes at slopes 1 and 1/2: the
        # level matches, but the second class is left without its mass.
        one = make_state((1,), (1,))
        assert reservoirs._is_shifted(one, {(1, 1): 1}, 1, (1, 1))
        assert not reservoirs._is_shifted(one, {(1, 1): 1, (1, 2): 1}, 1, (1, 1))
        assert not reservoirs._is_shifted(one, {(1, 2): 1, (1, 1): 1}, 1, (1, 1))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_shift_check_any_order(self, data):
        """A state whose weights are g_i / kappa carries T_kappa of the
        state's classes in any order of its occupied levels, and a changed
        weight breaks it."""
        s = data.draw(family_states(data.draw(st.integers(1, 6)), data.draw(st.booleans())))
        kappa = (data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        levels = [(p, g / F(*kappa)) for p, g in zip(s.probs, s.weights) if p]
        levels = data.draw(st.permutations(levels))
        shifted = ThermoState(*[tuple(xs) for xs in zip(*levels)])
        assert reservoirs._is_shifted(shifted, s._classes, s._den, kappa)
        k = data.draw(st.integers(0, len(levels) - 1))
        weights = list(shifted.weights)
        weights[k] *= 3
        changed = ThermoState(shifted.probs, tuple(weights))
        assert not reservoirs._is_shifted(changed, s._classes, s._den, kappa)


def reference_general(t, anchor):
    """The cumulative-grid definition: refine both cumulative sums on their
    merged breakpoints and find each cell's levels by bisection."""
    p, q, g = t.initial.probs, t.final.probs, t.weights
    if p == q:
        return Reservoir((F(1),), (anchor,), (anchor,))
    cum_p, cum_q = list(accumulate(p)), list(accumulate(q))
    grid = sorted((set(cum_p) | set(cum_q)) - {0})
    cells = [b - a for a, b in zip([F(0)] + grid, grid)]
    lam = [bisect_left(cum_q, value) for value in grid]
    lam_prime = [bisect_left(cum_p, value) for value in grid]
    kappa = cells[0] * g[lam[0]] / (q[lam[0]] * anchor)
    return Reservoir(
        tuple(cells),
        tuple(m * g[i] / (kappa * q[i]) for m, i in zip(cells, lam)),
        tuple(m * g[j] / (kappa * p[j]) for m, j in zip(cells, lam_prime)),
    )


def reference_slope_classes(t, anchor):
    """The north-west-corner walk over slope classes: each side's occupied
    levels merged by their Fraction slope p_i / g_i, in order of first
    occurrence, each cell taking what is left of the current initial and
    final class."""
    p, q, g = t.initial.probs, t.final.probs, t.weights
    if p == q:
        return Reservoir((F(1),), (anchor,), (anchor,))

    def classes(probs):
        out = {}
        for x, w in zip(probs, g):
            if x:
                out[F(x) / w] = out.get(F(x) / w, F(0)) + x
        return [[slope, mass] for slope, mass in out.items()]

    initials, finals = classes(p), classes(q)
    cells, j = [], 0
    for s, left in initials:
        while left:
            if not finals[j][1]:
                j += 1
            m = min(left, finals[j][1])
            cells.append((m, s, finals[j][0]))
            left -= m
            finals[j][1] -= m
    kappa = cells[0][0] / (cells[0][2] * anchor)
    return Reservoir(
        tuple(m for m, _, _ in cells),
        tuple(m / (kappa * s_prime) for m, _, s_prime in cells),
        tuple(m / (kappa * s) for m, s, _ in cells),
    )


def reference_minimal(p, c):
    """Curve heights r_i with weights r_i / c and r_i / (c Z a_i)."""
    segments = curve_of(p).segments
    r = tuple(seg.height for seg in segments)
    return Reservoir(
        r,
        tuple(x / c for x in r),
        tuple(x / (c * p.z * seg.slope) for x, seg in zip(r, segments)),
    )


def reference_product(t):
    """Product distribution p_i p'_j with weights p_i and p'_j."""
    p, q = t.initial.probs, t.final.probs
    return Reservoir(
        tuple(pi * qj for pi in p for qj in q),
        tuple(pi for pi in p for _ in q),
        tuple(qj for _ in p for qj in q),
    )


def reference_work_states(res):
    """``r`` zero-padded onto the concatenated weight blocks."""
    zeros = (F(0),) * len(res.r)
    weights = res.init_weights + res.fin_weights
    return ThermoState(res.r + zeros, weights), ThermoState(zeros + res.r, weights)


@st.composite
def with_zeros(draw, state):
    """``state`` with a drawn set of levels emptied and the rest rescaled."""
    keep = draw(st.lists(st.booleans(), min_size=state.dim, max_size=state.dim))
    probs = [x if k else F(0) for x, k in zip(state.probs, keep)]
    total = sum(probs)
    assume(total > 0)
    return ThermoState(tuple(x / total for x in probs), state.weights)


class TestConstructorsMatchReference:
    """Every constructor returns exactly the reservoir of its reference
    definition, and its work transition is the zero-padded pair."""

    gauges = st.builds(F, st.integers(1, 50), st.integers(1, 50))

    @pytest.mark.parametrize("palette", [False, True], ids=["generic", "palette"])
    @pytest.mark.parametrize("kind", ["plain", "lifted", "extraction", "product"])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_equals_reference(self, kind, palette, data):
        draw = data.draw
        dim = draw(st.integers(1, 8))
        if kind == "product":
            weights = (draw(self.gauges),) * dim
            initial = draw(family_states(dim, palette, weights))
            final = draw(family_states(dim, palette, weights))
            assume(all(initial.probs) and all(final.probs))
            t = Transition(initial, final)
            res, expected = alt_product_reservoir(t), reference_product(t)
        elif kind == "extraction":
            p = draw(with_zeros(draw(family_states(dim, palette))))
            assume(p != gibbs_of(p))
            c = draw(self.gauges)
            res, expected = minimal_extraction_reservoir(p, c), reference_minimal(p, c)
        else:
            if kind == "lifted":
                t = clock_lift(
                    draw(with_zeros(draw(family_states(draw(st.integers(1, 4)), palette)))),
                    draw(with_zeros(draw(family_states(draw(st.integers(1, 4)), palette)))),
                )
            else:
                initial = draw(with_zeros(draw(family_states(dim, palette))))
                final = draw(family_states(dim, palette, initial.weights))
                t = Transition(initial, draw(with_zeros(final)))
            anchor = draw(self.gauges)
            res = general_efficient_reservoir(t, anchor)
            # Palette slopes collapse, and the walk is over slope classes.
            reference = reference_slope_classes if palette else reference_general
            expected = reference(t, anchor)
        assert res == expected
        work = res.work_transition()
        assert (work.initial, work.final) == reference_work_states(expected)

    @pytest.mark.parametrize(
        "t",
        [
            Transition(ThermoState((1, 0), (1, 2)), ThermoState((0, 1), (1, 2))),
            Transition(
                ThermoState((F(1, 2), 0, F(1, 2)), (1, 2, 3)),
                ThermoState((0, F(1, 3), F(2, 3)), (1, 2, 3)),
            ),
            clock_lift(ThermoState((1, 0), (1, 3)), ThermoState((F(1, 4), F(3, 4)), (2, 1))),
            Transition(ThermoState((1,), (3,)), ThermoState((1,), (3,))),
        ],
        ids=["pure", "mixed", "lifted", "single"],
    )
    def test_int_entries(self, t):
        """Plain ints, accepted by ThermoState, build the same reservoirs,
        and each verifies while a tamper of its largest-mass final weight
        does not."""
        built = []
        for anchor in (1, F(3, 7)):
            res = general_efficient_reservoir(t, anchor)
            assert res == reference_general(t, F(anchor))
            built.append((t, res))
        if t.initial != gibbs_of(t.initial):
            res = minimal_extraction_reservoir(t.initial)
            assert res == reference_minimal(t.initial, F(1))
            built.append((extraction_transition(t.initial), res))
        if len(set(t.weights)) == 1 and all(t.initial.probs) and all(t.final.probs):
            res = alt_product_reservoir(t)
            assert res == reference_product(t)
            built.append((t, res))
        for transition, res in built:
            assert verify_efficient(transition, res)
            k = max(range(len(res.r)), key=res.r.__getitem__)
            fin = list(res.fin_weights)
            fin[k] *= F(10001, 10000)
            assert not verify_efficient(transition, Reservoir(res.r, res.init_weights, tuple(fin)))


class TestFormationFamily:
    def test_minimal_pair_is_a_member(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        x1, y1 = minimal_formation_pair(p)
        assert characterize_formation_family(p, x1, y1)

    def test_products_with_common_factor(self):
        rng = seeded(36)
        p = make_state(("3/4", "1/4"), (1, 1))
        x1, y1 = minimal_formation_pair(p)
        for _ in range(20):
            b = curve_of(random_state(rng, rng.randint(1, 3)))
            assert characterize_formation_family(p, product(b, x1), product(b, y1))

    def test_mismatched_factors_rejected(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        x1, y1 = minimal_formation_pair(p)
        b1 = curve_of(make_state(("1/4", "3/4"), (1, 3)))
        b2 = curve_of(make_state(("1/5", "4/5"), (1, 1)))
        assert not characterize_formation_family(p, product(b1, x1), product(b2, y1))

    def test_non_quotient_rejected_at_either_division(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        x1, y1 = minimal_formation_pair(p)
        # Both pair curves are twice as wide as identity_curve: neither divides it.
        assert divide(identity_curve(), x1) is None
        assert not characterize_formation_family(p, identity_curve(), y1)
        assert divide(identity_curve(), y1) is None
        assert not characterize_formation_family(p, x1, identity_curve())

    def test_gibbs_input_rejected(self):
        g = gibbs_of(make_state((1, 0), (1, 1)))
        x1, y1 = minimal_formation_pair(make_state(("3/4", "1/4"), (1, 1)))
        with pytest.raises(GibbsInput):
            characterize_formation_family(g, x1, y1)


def large_denominator_state(rng, dim, weights=None, zeros=False):
    """Weights p/q with p, q <= 10^6 (the engine's denominator cap) and
    masses 1..999, some of them emptied when ``zeros`` is set."""
    if weights is None:
        weights = tuple(F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(dim))
    masses = [rng.randint(1, 999) * (not zeros or rng.random() < 0.7) for _ in weights]
    masses[rng.randrange(dim)] = rng.randint(1, 999)
    return ThermoState(tuple(F(m, sum(masses)) for m in masses), weights)


def large_denominator_case(rng, kind):
    """A transition of at most 16 levels with 10^6-scale weights and the
    reservoir its constructor builds."""
    if kind == "lifted":
        t = clock_lift(
            large_denominator_state(rng, rng.randint(1, 8)),
            large_denominator_state(rng, rng.randint(1, 8), zeros=True),
        )
        return t, general_efficient_reservoir(t)
    p = large_denominator_state(rng, rng.randint(2, 16), zeros=kind == "general")
    if kind == "minimal":
        return extraction_transition(p), minimal_extraction_reservoir(p)
    t = Transition(p, large_denominator_state(rng, p.dim, p.weights, zeros=True))
    return t, general_efficient_reservoir(t)


class TestLargeDenominators:
    """Weights at the 10^6 denominator scale of ``engine.APPROX_DENOMINATOR``,
    where the integer readings grow to hundreds of bits."""

    @pytest.mark.parametrize("kind", ["general", "lifted", "minimal"])
    def test_verdicts_and_work(self, kind):
        rng = seeded({"general": 61, "lifted": 62, "minimal": 63}[kind])
        for _ in range(12):
            t, res = large_denominator_case(rng, kind)
            assert max(w.denominator for w in res.init_weights + res.fin_weights) > 10**6
            ji, jf = joint_states(t, res)
            assert verify_efficient(t, res)
            assert coincide(curve_of(ji), curve_of(jf))
            tau = gibbs_of(t.initial)
            expected = renyi(1.0, t.initial, tau) - renyi(1.0, t.final, tau)
            assert abs(average_work(res) - expected) <= 1e-10
            bumped = tampered(res)
            ji, jf = joint_states(t, bumped)
            assert not verify_efficient(t, bumped)
            assert not coincide(curve_of(ji), curve_of(jf))

    @pytest.mark.parametrize("kind", ["general", "lifted", "minimal"])
    def test_tampered_reservoirs_need_no_product_measure(self, kind):
        rng = seeded({"general": 64, "lifted": 65, "minimal": 66}[kind])
        for _ in range(12):
            t, res = large_denominator_case(rng, kind)
            assert_rejected_without_products(t, tampered(res))


class TestIntegerReservoir:
    """A built reservoir keeps integer levels and makes its Fraction fields
    on first access; as a value it is the reservoir of those fields."""

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_value_as_the_public_constructor(self, kind, data):
        t, res = data.draw(transitions_with_reservoirs(kind))
        # A second build whose fields nothing has read yet.
        fresh = {
            "extraction": lambda: minimal_extraction_reservoir(t.initial),
            "product": lambda: alt_product_reservoir(t),
        }.get(kind, lambda: general_efficient_reservoir(t))()
        public = Reservoir(res.r, res.init_weights, res.fin_weights)
        assert hash(fresh) == hash(public)
        assert repr(fresh) == repr(public)
        assert fresh == public and public == fresh
        assert fresh._asdict() == public._asdict()
        assert (fresh._initial._pairs, fresh._final._pairs) == (
            public._initial._pairs, public._final._pairs)
        assert all(type(x) is F for x in fresh.r + fresh.init_weights + fresh.fin_weights)

    @pytest.mark.parametrize("kind", BUILT_KINDS + ["padded"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_average_work_is_the_fraction_formula_bit_for_bit(self, kind, data):
        _, res = data.draw(transitions_with_reservoirs(kind))
        work = average_work(res)
        log = math.log
        expected = sum(
            float(x)
            * ((log(wi.numerator) - log(wi.denominator))
               - (log(wf.numerator) - log(wf.denominator)))
            for x, wi, wf in zip(res.r, res.init_weights, res.fin_weights)
        )
        assert work.hex() == expected.hex()

    @pytest.mark.parametrize(
        "masses, den, init_pairs, fin_pairs, error, message",
        [
            ([1, 2], 3, [(1, 1)], [(1, 1), (1, 1)], DimensionMismatch,
             "r, init_weights, fin_weights must share a length"),
            ([], 1, [], [], DimensionMismatch, "reservoir needs at least one occupied level"),
            ([3, -1], 2, [(1, 1)] * 2, [(1, 1)] * 2, NegativeProbability,
             "reservoir probability -1/2 must be positive"),
            ([2, 0], 2, [(1, 1)] * 2, [(1, 1)] * 2, NegativeProbability,
             "reservoir probability 0 must be positive"),
            ([1, 1], 3, [(1, 1)] * 2, [(1, 1)] * 2, ProbSumNotOne,
             "reservoir distribution sums to 2/3"),
            ([2, 2], 4, [(1, 1), (0, 5)], [(1, 1)] * 2, NonPositiveWeight,
             "reservoir weight 0 must be positive"),
            ([2, 2], 4, [(1, 1)] * 2, [(1, 1), (-4, 6)], NonPositiveWeight,
             "reservoir weight -2/3 must be positive"),
        ],
        ids=["lengths", "empty", "negative-mass", "zero-mass", "sum", "zero-weight",
             "negative-weight"],
    )
    def test_integer_path_checks_like_the_public_one(
        self, masses, den, init_pairs, fin_pairs, error, message
    ):
        # The walk's path: a bare reservoir checked on its integers.
        with pytest.raises(error, match=f"^{message}$"):
            Reservoir.__new__(Reservoir)._store(masses, den, init_pairs, fin_pairs)
        fields = (
            tuple(F(m, den) for m in masses),
            tuple(F(*w) for w in init_pairs),
            tuple(F(*w) for w in fin_pairs),
        )
        with pytest.raises(error, match=f"^{message}$"):
            Reservoir(*fields)

    @pytest.mark.parametrize("kind", BUILT_KINDS + ["padded"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_work_states_are_the_public_states(self, kind, data):
        _, res = data.draw(transitions_with_reservoirs(kind))
        assert_same_state(res._initial, ThermoState(res.r, res.init_weights))
        assert_same_state(res._final, ThermoState(res.r, res.fin_weights))


@st.composite
def built_with_derived_states(draw, kind):
    """A transition, the reservoir built for it and the states of the
    transition derived from checked integers (clock-lift halves and Gibbs
    states); ``identity`` has equal endpoints."""
    palette = draw(st.booleans())
    p = draw(family_states(draw(st.integers(1, 6)), palette))
    if kind == "lifted":
        t = clock_lift(p, draw(family_states(draw(st.integers(1, 6)), palette)))
        return t, general_efficient_reservoir(t), [t.initial, t.final]
    if kind == "minimal":
        assume(p != gibbs_of(p))
        t = extraction_transition(p)
        return t, minimal_extraction_reservoir(p), [t.final]
    if kind == "product":
        p = draw(family_states(p.dim, palette, (p.weights[0],) * p.dim))
        q = draw(family_states(p.dim, palette, p.weights))
        assume(all(p.probs) and all(q.probs))
        t = Transition(p, q)
        return t, alt_product_reservoir(t), []
    q = p if kind == "identity" else draw(family_states(p.dim, palette, p.weights))
    t = Transition(p, q)
    return t, general_efficient_reservoir(t), []


class TestLazyFields:
    """Build, verify and work read states in their integer form: no state
    derived from checked integers makes its ``probs`` or ``weights``."""

    @pytest.mark.parametrize("kind", ["general", "lifted", "minimal", "product", "identity"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_build_verify_work(self, kind, data):
        t, res, derived = data.draw(built_with_derived_states(kind))
        assert verify_efficient(t, res)
        average_work(res)
        work = res.work_transition()
        curve_of(work.initial), curve_of(work.final)
        for state in derived + [res._initial, res._final, work.initial, work.final]:
            assert "probs" not in vars(state) and "weights" not in vars(state)
