"""State construction, Gibbs normalization, clock lifting, JSON round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thermomajor.curves import Segment, coincide, curve_of, majorizes
from thermomajor.errors import (
    DimensionMismatch,
    NegativeProbability,
    NonPositiveWeight,
    ParseError,
    ProbSumNotOne,
)
from thermomajor.states import (
    ThermoState,
    Transition,
    as_rat,
    clock_lift,
    gibbs_of,
    make_state,
    state_from_dict,
    state_to_dict,
    tensor,
)

from conftest import family_states, random_state, seeded


class TestMakeState:
    def test_valid_state(self):
        s = make_state(("1/3", "2/3"), (1, 1))
        assert s.z == 2
        assert s.probs == (Fraction(1, 3), Fraction(2, 3))

    def test_pure_state_with_zero(self):
        s = make_state((1, 0), (1, 1))
        assert s.probs == (Fraction(1), Fraction(0))

    def test_prob_sum_not_one(self):
        with pytest.raises(ProbSumNotOne):
            make_state(("1/2", "1/3"), (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_state((1,), (1, 1))

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            make_state((1, 0), (1, 0))

    def test_negative_probability(self):
        with pytest.raises(NegativeProbability):
            make_state(("3/2", "-1/2"), (1, 1))

    def test_rejects_floats(self):
        with pytest.raises(ParseError):
            as_rat(0.5)

    def test_decimal_strings_exact(self):
        assert as_rat("0.5") == Fraction(1, 2)

    @pytest.mark.parametrize(
        "text, value",
        [
            (" 1e4300 ", Fraction(10**4300)),
            ("1E-4_300", Fraction(1, 10**4300)),
            ("2.5e0003", Fraction(2500)),
        ],
        ids=["at-cap", "at-cap-negative", "leading-zeros"],
    )
    def test_decimal_exponent_up_to_cap(self, text, value):
        assert as_rat(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1e4301", "1e-999999999", "1e999999999 ", "1e" + "9" * 5000],
        ids=["cap-plus-one", "huge-negative", "huge-trailing-space", "beyond-int-digit-cap"],
    )
    def test_decimal_exponent_beyond_cap_rejected(self, text):
        with pytest.raises(ParseError, match="decimal exponent beyond 4300"):
            as_rat(text)

    @pytest.mark.parametrize(
        "probs, weights, bad",
        [
            ((0.5, 0.5), (1, 1), "0.5"),
            ((Fraction(1, 2), Fraction(1, 2)), (1.0, 1), "1.0"),
            ((Fraction(1, 2), Fraction(1, 2)), (True, 1), "True"),
        ],
        ids=["float-probabilities", "float-weights", "bool-weight"],
    )
    def test_state_rejects_non_rational_entries(self, probs, weights, bad):
        with pytest.raises(ParseError, match=f"^not a rational: {bad}$"):
            ThermoState(probs, weights)

    def test_int_entries_accepted(self):
        s = ThermoState((1, 0), (1, 2))
        assert s.z == 3
        assert curve_of(s).segments == (Segment(Fraction(1), Fraction(1)),)
        assert type(curve_of(s).segments[0].slope) is Fraction


class TestGibbs:
    def test_normalization(self):
        assert gibbs_of(make_state((1, 0), (2, 1))).probs == (
            Fraction(2, 3),
            Fraction(1, 3),
        )

    def test_uniform(self):
        assert gibbs_of(make_state((1, 0), (1, 1))).probs == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_weight_rescaling_invariance(self):
        rng = seeded(11)
        for _ in range(25):
            s = random_state(rng, rng.randint(1, 4))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = make_state(s.probs, tuple(w * c for w in s.weights))
            assert gibbs_of(scaled).probs == gibbs_of(s).probs

    def test_idempotent(self):
        rng = seeded(12)
        for _ in range(25):
            s = random_state(rng, rng.randint(1, 4))
            g = gibbs_of(s)
            assert gibbs_of(g).probs == g.probs
            assert g == gibbs_of(g)


class TestTransition:
    def test_shared_weights_enforced(self):
        a = make_state((1, 0), (1, 1))
        b = make_state((1, 0), (1, 2))
        with pytest.raises(DimensionMismatch):
            Transition(a, b)


class TestClockLift:
    def test_four_level_lift(self):
        initial = make_state(("1/2", "1/2"), (1, 2))
        final = make_state(("2/3", "1/3"), (1, 1))
        t = clock_lift(initial, final)
        assert t.dim == 4
        assert t.weights == (1, 2, 1, 1)
        assert t.initial.probs == (Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert t.final.probs == (0, 0, Fraction(2, 3), Fraction(1, 3))

    def test_marginals_reproduced(self):
        initial = make_state(("1/4", "3/4"), (1, 3))
        final = make_state(("1/5", "2/5", "2/5"), (1, 1, 2))
        t = clock_lift(initial, final)
        assert t.initial.probs[: initial.dim] == initial.probs
        assert t.final.probs[initial.dim :] == final.probs

    def test_pure_to_pure_disjoint_support(self):
        t = clock_lift(make_state((1,), (1,)), make_state((1,), (2,)))
        support_init = {i for i, p in enumerate(t.initial.probs) if p > 0}
        support_fin = {i for i, p in enumerate(t.final.probs) if p > 0}
        assert support_init.isdisjoint(support_fin)

    def test_degenerate_clock_matches_direct_transition(self):
        # Same Hamiltonian on both sides: the lifted curves keep the direct
        # curves' sloped parts (widths double via the idle clock branch), so
        # the majorization verdict is unchanged.
        initial = make_state(("1/3", "2/3"), (1, 1))
        final = make_state(("3/4", "1/4"), (1, 1))
        lifted = clock_lift(initial, final)
        direct = Transition(initial, final)
        lifted_verdict = majorizes(curve_of(lifted.initial), curve_of(lifted.final))
        direct_verdict = majorizes(curve_of(direct.initial), curve_of(direct.final))
        assert lifted_verdict == direct_verdict
        assert curve_of(lifted.initial).segments == curve_of(initial).segments


def assert_same_state(derived, public):
    """``derived`` is the state the public constructor makes: equal, same
    hash, and the same integer reading, weight pairs and slope classes, in
    order."""
    assert derived == public and hash(derived) == hash(public)
    assert (derived._masses, derived._den) == (public._masses, public._den)
    assert derived._pairs == public._pairs
    assert list(derived._classes.items()) == list(public._classes.items())


def gibbs_reference(state):
    """The Gibbs state of ``state``'s weights through the public
    constructor: probabilities g_i / Z, Z the sum of the weights."""
    weights = [Fraction(g) for g in state.weights]
    z = sum(weights)
    return ThermoState(tuple(g / z for g in weights), state.weights)


class TestDerivedStates:
    """``clock_lift`` and ``gibbs_of`` build their states from validated ones
    without re-validating them; each must be the state the public
    constructor makes from the same fields."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_clock_lift(self, data):
        p, q = (
            data.draw(family_states(data.draw(st.integers(1, 5)), data.draw(st.booleans())))
            for _ in range(2)
        )
        t = clock_lift(p, q)
        for lifted, half in ((t.initial, p), (t.final, q)):
            assert_same_state(lifted, ThermoState(lifted.probs, lifted.weights))
            assert lifted._classes is not half._classes

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_gibbs_of(self, data):
        s = data.draw(family_states(data.draw(st.integers(1, 6)), data.draw(st.booleans())))
        assert_same_state(gibbs_of(s), gibbs_reference(s))

    @pytest.mark.parametrize(
        "state",
        [
            ThermoState((1, 0), (1, 1)),
            ThermoState((0, 1, 0), (2, 4, 6)),
            ThermoState((Fraction(1, 2), 0, Fraction(1, 2)), (Fraction(2, 3), 4, Fraction(4, 9))),
        ],
        ids=["int-entries", "common-factor", "mixed"],
    )
    def test_int_entries_and_common_factors(self, state):
        t = clock_lift(state, state)
        for lifted in (t.initial, t.final):
            assert_same_state(lifted, ThermoState(lifted.probs, lifted.weights))
        assert_same_state(gibbs_of(state), gibbs_reference(state))


class TestTensor:
    def test_joint_dimensions(self):
        a = make_state(("1/2", "1/2"), (1, 1))
        b = make_state(("1/3", "2/3"), (2, 1))
        joint = tensor(a, b)
        assert joint.dim == 4
        assert joint.z == a.z * b.z


class TestJson:
    """The dict forms through JSON text; the CLI's loader turns text that is
    not JSON, deep nesting included, into a ParseError (tests/test_cli.py)."""

    def test_round_trip_exact(self):
        s = make_state(("1/3", "2/3"), ("1/7", 5))
        assert state_from_dict(json.loads(json.dumps(state_to_dict(s)))) == s

    def test_schema_shapes(self):
        s = state_from_dict(json.loads('{"probs": ["1/3", "2/3"], "weights": [1, "1"]}'))
        assert s.weights == (1, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            state_from_dict(json.loads('{"probs": ["1/0", "1"], "weights": [1, 1]}'))

    def test_deterministic_output(self):
        s = make_state(("1/3", "2/3"), (1, 1))
        assert state_to_dict(s) == {"probs": ["1/3", "2/3"], "weights": ["1", "1"]}

    def test_coincide_after_round_trip(self):
        rng = seeded(13)
        for _ in range(10):
            s = random_state(rng, 3)
            back = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
            assert coincide(curve_of(s), curve_of(back))
