"""The frozen value classes: equality, hashing, repr, immutability, construction."""

from fractions import Fraction

import pytest

from thermomajor.catalysis import CtoVerdict
from thermomajor.curves import Curve, Segment
from thermomajor.divergences import AlphaProfile
from thermomajor.engine import EngineReport, EngineSpec, LevelRow
from thermomajor.errors import (
    DimensionMismatch,
    InvalidCurve,
    InvalidTemperatures,
    NegativeProbability,
    NonPositiveWeight,
    ParseError,
    ProbSumNotOne,
)
from thermomajor.reservoirs import Reservoir
from thermomajor.states import ThermoState, Transition

HALF = Fraction(1, 2)
STATE = dict(probs=(HALF, HALF), weights=(Fraction(1), Fraction(2)))
FINAL = dict(probs=(Fraction(1, 3), Fraction(2, 3)), weights=(Fraction(1), Fraction(2)))
TILTED = dict(probs=(HALF, HALF), weights=(Fraction(2), Fraction(1)))
SEGMENT = dict(height=Fraction(1), slope=HALF)
ROW = dict(probability=0.25, energies=(0.0, 1.5, -1.0))
RESERVOIR = dict(r=(Fraction(1),), init_weights=(Fraction(2),), fin_weights=(Fraction(1, 3),))

STATE_REPR = (
    "ThermoState(probs=(Fraction(1, 2), Fraction(1, 2)), weights=(Fraction(1, 1), Fraction(2, 1)))"
)
SEGMENT_REPR = "Segment(height=Fraction(1, 1), slope=Fraction(1, 2))"
ROW_REPR = "LevelRow(probability=0.25, energies=(0.0, 1.5, -1.0))"
RESERVOIR_REPR = (
    "Reservoir(r=(Fraction(1, 1),), init_weights=(Fraction(2, 1),), fin_weights=(Fraction(1, 3),))"
)

# Each class with keyword arguments in parameter order, and its repr.
CASES = {
    "ThermoState": (ThermoState, STATE, STATE_REPR),
    "Transition": (
        Transition,
        dict(initial=ThermoState(**STATE), final=ThermoState(**FINAL)),
        f"Transition(initial={STATE_REPR}, final=ThermoState(probs=(Fraction(1, 3), "
        "Fraction(2, 3)), weights=(Fraction(1, 1), Fraction(2, 1))))",
    ),
    "Segment": (Segment, SEGMENT, SEGMENT_REPR),
    "Curve": (
        Curve,
        dict(segments=(Segment(**SEGMENT),), total_width=Fraction(3)),
        f"Curve(segments=({SEGMENT_REPR},), total_width=Fraction(3, 1))",
    ),
    "Reservoir": (Reservoir, RESERVOIR, RESERVOIR_REPR),
    "AlphaProfile": (
        AlphaProfile,
        dict(alphas=(0.0, 1.0), values=(0.5, 0.125)),
        "AlphaProfile(alphas=(0.0, 1.0), values=(0.5, 0.125))",
    ),
    "CtoVerdict": (
        CtoVerdict,
        dict(feasible=True, witnessed=((0.5, 0.25, 0.125),), grid_only=True),
        "CtoVerdict(feasible=True, witnessed=((0.5, 0.25, 0.125),), grid_only=True)",
    ),
    "EngineSpec": (
        EngineSpec,
        dict(epsilon=1.0, beta_h=0.5, beta_c=1.0),
        "EngineSpec(epsilon=1.0, beta_h=0.5, beta_c=1.0)",
    ),
    "LevelRow": (LevelRow, ROW, ROW_REPR),
    "EngineReport": (
        EngineReport,
        dict(
            p_c=0.25, p_h=0.375, s_c=0.5, s_h=0.625, q_h=0.125, q_c=-0.0625, w=0.0625, eta=0.5,
            reservoir_levels=(LevelRow(**ROW),), hot_reservoir=Reservoir(**RESERVOIR),
            cold_reservoir=None, hot_step_certified=True, cold_step_certified=False,
            approximation_gap=0.0,
        ),
        "EngineReport(p_c=0.25, p_h=0.375, s_c=0.5, s_h=0.625, q_h=0.125, q_c=-0.0625, "
        f"w=0.0625, eta=0.5, reservoir_levels=({ROW_REPR},), hot_reservoir={RESERVOIR_REPR}, "
        "cold_reservoir=None, hot_step_certified=True, cold_step_certified=False, "
        "approximation_gap=0.0)",
    ),
}

# One field of each case set to another valid value.
CHANGED = {
    "ThermoState": ("probs", (Fraction(1), Fraction(0))),
    "Transition": ("final", ThermoState(**STATE)),
    "Segment": ("slope", Fraction(1)),
    "Curve": ("total_width", Fraction(2)),
    "Reservoir": ("fin_weights", (Fraction(1),)),
    "AlphaProfile": ("values", (0.5, 0.25)),
    "CtoVerdict": ("grid_only", False),
    "EngineSpec": ("beta_c", 2.0),
    "LevelRow": ("probability", 0.5),
    "EngineReport": ("cold_reservoir", Reservoir(**RESERVOIR)),
}


@pytest.mark.parametrize("name", CASES)
class TestValueClass:
    def test_equal_instances_hash_alike(self, name):
        cls, kwargs, _ = CASES[name]
        a, b = cls(**kwargs), cls(*kwargs.values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_class_with_the_same_fields_differs(self, name):
        cls, kwargs, _ = CASES[name]
        twin = type("Twin", (cls,), {})(**kwargs)
        assert cls(**kwargs) != twin
        assert twin != cls(**kwargs)
        assert cls(**kwargs) != tuple(kwargs.values())

    def test_repr(self, name):
        cls, kwargs, text = CASES[name]
        assert repr(cls(**kwargs)) == text

    def test_fields_are_read_only(self, name):
        cls, kwargs, _ = CASES[name]
        value = cls(**kwargs)
        for field, given in kwargs.items():
            assert getattr(value, field) is given
            with pytest.raises(AttributeError):
                setattr(value, field, given)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert value == cls(**kwargs)

    def test_a_changed_field_breaks_equality(self, name):
        cls, kwargs, _ = CASES[name]
        field, value = CHANGED[name]
        assert cls(**{**kwargs, field: value}) != cls(**kwargs)

    def test_a_bad_binding_names_the_class(self, name):
        cls, kwargs, _ = CASES[name]
        values = list(kwargs.values())
        first, *others = kwargs
        for args, given in [
            (values, {"unknown": 1}),
            (values, {first: values[0]}),
            (values[:1], {}),
            ([], {key: kwargs[key] for key in others}),
            ([*values, None], {}),
        ]:
            with pytest.raises(TypeError, match=rf"^{name}\b"):
                cls(*args, **given)


# Keyword calls that break an invariant, and the error each class raises.
INVALID = {
    ThermoState: (dict(probs=(Fraction(1),), weights=(0,)), NonPositiveWeight),
    Transition: (
        dict(initial=ThermoState(**STATE), final=ThermoState(**TILTED)), DimensionMismatch
    ),
    Curve: (dict(segments=(), total_width=1), InvalidCurve),
    Reservoir: (dict(r=(Fraction(1),), init_weights=(), fin_weights=(1,)), DimensionMismatch),
    EngineSpec: (dict(epsilon=-1.0, beta_h=0.5, beta_c=1.0), InvalidTemperatures),
}


@pytest.mark.parametrize("cls", INVALID, ids=lambda cls: cls.__name__)
def test_checks_run_on_keyword_calls(cls):
    kwargs, error = INVALID[cls]
    with pytest.raises(error):
        cls(**kwargs)


def test_cto_verdict_grid_only_defaults_true():
    verdict = CtoVerdict(feasible=False, witnessed=())
    assert verdict.grid_only is True
    assert verdict == CtoVerdict(False, (), True)


def test_cached_properties_stay_cached():
    state = ThermoState(**STATE)
    assert "z" not in vars(state)
    assert state.z == Fraction(3)
    assert state.z is state.z
    assert "z" in vars(state)
    curve = Curve(segments=(Segment(**SEGMENT),), total_width=Fraction(3))
    assert curve.sloped_width == Fraction(2)
    assert curve.sloped_width is curve.sloped_width
    assert "sloped_width" in vars(curve)
    # A cached value takes no part in equality or hashing.
    assert state == ThermoState(**STATE) and hash(state) == hash(ThermoState(**STATE))


# The validating classes store list arguments as tuples.
LISTED = {
    "ThermoState": (ThermoState, STATE),
    "Reservoir": (Reservoir, RESERVOIR),
    "Curve": (Curve, dict(segments=(Segment(**SEGMENT),), total_width=Fraction(3))),
}


@pytest.mark.parametrize("name", LISTED)
def test_list_arguments_are_stored_as_tuples(name):
    cls, kwargs = LISTED[name]
    sequences = [key for key, value in kwargs.items() if type(value) is tuple]
    expected = cls(**kwargs)
    # Every sequence given as a list, then only the first one (mixed).
    for listed in (sequences, sequences[:1]):
        value = cls(**{**kwargs, **{key: list(kwargs[key]) for key in listed}})
        assert all(type(getattr(value, key)) is tuple for key in sequences)
        assert value == expected and expected == value
        assert hash(value) == hash(expected)
        assert len({value, expected}) == 1


def test_mixed_lists_and_tuples():
    # Concatenating a list with tuples raised a bare TypeError in the check.
    res = Reservoir([Fraction(1)], (Fraction(1),), (Fraction(2),))
    assert res == Reservoir((Fraction(1),), (Fraction(1),), (Fraction(2),))
    assert hash(res) == hash(Reservoir((Fraction(1),), (Fraction(1),), (Fraction(2),)))
    state = ThermoState([HALF, HALF], [1, 1])
    assert state == ThermoState((HALF, HALF), (1, 1))
    assert hash(state) == hash(ThermoState((HALF, HALF), (1, 1)))


F = Fraction
NEG, BOOL, FLOAT, ZERO = F(-1, 2), True, 0.5, F(0)

# Inputs with one fault or several, and the error that names the first.  A
# state is read in one pass over its levels after the length checks: the
# first faulty level raises, checking its probability's type, its weight's
# type, its weight's sign, then its probability's sign; the sum comes last.
STATE_FAULTS = {
    # One fault each.
    "lengths": (((HALF, HALF), (1,)), DimensionMismatch, "2 probabilities vs 1 weights"),
    "empty": (((), ()), DimensionMismatch, "state needs at least one level"),
    "prob-type": (((FLOAT, HALF), (1, 1)), ParseError, "not a rational: 0.5"),
    "weight-type": (((HALF, HALF), (1, BOOL)), ParseError, "not a rational: True"),
    "weight-sign": (((HALF, HALF), (1, ZERO)), NonPositiveWeight, "weight 0 is not positive"),
    "prob-sign": (((F(3, 2), NEG), (1, 1)), NegativeProbability, "probability -1/2 is negative"),
    "sum": (((HALF, F(1, 3)), (1, 1)), ProbSumNotOne, "probabilities sum to 5/6, not 1"),
    # Several faults.
    "lengths-before-types": (((FLOAT,), (1, BOOL)), DimensionMismatch,
                             "1 probabilities vs 2 weights"),
    "level-prob-type-first": (((FLOAT, HALF), (BOOL, 1)), ParseError, "not a rational: 0.5"),
    "level-weight-type-before-prob-sign": (((NEG, F(3, 2)), (BOOL, 1)), ParseError,
                                           "not a rational: True"),
    "level-weight-sign-before-prob-sign": (((NEG, F(3, 2)), (-1, 1)), NonPositiveWeight,
                                           "weight -1 is not positive"),
    "earlier-prob-sign-before-later-type": (((F(3, 2), NEG, ZERO), (1, 1, BOOL)),
                                            NegativeProbability, "probability -1/2 is negative"),
    "earlier-weight-sign-before-later-type": (((HALF, FLOAT), (ZERO, 1)), NonPositiveWeight,
                                              "weight 0 is not positive"),
    "earlier-prob-sign-before-later-weight-sign": (((NEG, F(3, 2)), (1, ZERO)),
                                                   NegativeProbability,
                                                   "probability -1/2 is negative"),
    "earlier-weight-type-before-later-prob-type": (((HALF, FLOAT), (BOOL, 1)), ParseError,
                                                   "not a rational: True"),
    "sign-before-sum": (((NEG, HALF), (1, 1)), NegativeProbability,
                        "probability -1/2 is negative"),
}

# A reservoir checks its lengths, then the type of every entry (r, then
# init_weights, then fin_weights), then emptiness, each probability's sign,
# the sum, and each weight's sign (init_weights, then fin_weights).
RESERVOIR_FAULTS = {
    # One fault each.
    "lengths": (((HALF, HALF), (1,), (1, 1)), DimensionMismatch,
                "r, init_weights, fin_weights must share a length"),
    "empty": (((), (), ()), DimensionMismatch, "reservoir needs at least one occupied level"),
    "type": (((HALF, HALF), (1, 1), (1, FLOAT)), ParseError, "not a rational: 0.5"),
    "prob-sign": (((ZERO, 1), (1, 1), (1, 1)), NegativeProbability,
                  "reservoir probability 0 must be positive"),
    "sum": (((HALF, F(1, 3)), (1, 1), (1, 1)), ProbSumNotOne, "reservoir distribution sums to 5/6"),
    "weight-sign": (((HALF, HALF), (1, 1), (NEG, 1)), NonPositiveWeight,
                    "reservoir weight -1/2 must be positive"),
    # Several faults.
    "lengths-before-types": (((BOOL,), (1, 1), (1,)), DimensionMismatch,
                             "r, init_weights, fin_weights must share a length"),
    "r-type-first": (((HALF, FLOAT), (BOOL, 1), (1, 1)), ParseError, "not a rational: 0.5"),
    "type-before-signs": (((NEG, F(3, 2)), (1, 1), (BOOL, 1)), ParseError,
                          "not a rational: True"),
    "prob-sign-before-weight-sign": (((F(3, 2), NEG), (ZERO, 1), (1, 1)), NegativeProbability,
                                     "reservoir probability -1/2 must be positive"),
    "sum-before-weight-sign": (((HALF, HALF, HALF), (1, 1, 1), (1, 1, NEG)), ProbSumNotOne,
                               "reservoir distribution sums to 3/2"),
    "init-weight-before-fin-weight": (((HALF, HALF), (1, ZERO), (NEG, 1)), NonPositiveWeight,
                                      "reservoir weight 0 must be positive"),
}


@pytest.mark.parametrize(
    "cls, fields, error, message",
    [(ThermoState, *case) for case in STATE_FAULTS.values()]
    + [(Reservoir, *case) for case in RESERVOIR_FAULTS.values()],
    ids=[f"state-{key}" for key in STATE_FAULTS] + [f"reservoir-{key}" for key in RESERVOIR_FAULTS],
)
def test_error_precedence(cls, fields, error, message):
    with pytest.raises(error) as raised:
        cls(*fields)
    assert type(raised.value) is error
    assert str(raised.value) == message
