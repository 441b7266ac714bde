"""Qubit Carnot cycle driven by zero-dissipation work reservoirs.

The engine is a gap-epsilon qubit cycled between a hot and a cold bath.  Work
is exchanged only in the two isothermal strokes (cold populations relaxing at
the hot bath, then hot populations relaxing at the cold bath), each handled
by the minimal efficient reservoir at that bath's temperature, so the cycle
dissipates nothing and the efficiency is exactly Carnot's.

Populations are irrational for generic parameters; each stroke is certified
by rationalizing the populations and weights (denominator cap 10^6) and
running the exact curve-coincidence verifier on the approximated values, with
the approximation gap reported alongside.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidTemperatures
from .reservoirs import Reservoir, minimal_extraction_reservoir, verify_efficient
from .states import ThermoState, Transition, _Value, gibbs_of, make_state

APPROX_DENOMINATOR = 10**6


class EngineSpec(_Value):
    """Qubit gap and the two inverse temperatures (k_B = 1).

    Requires 0 < beta_h <= beta_c (the hot bath is at least as hot) and a
    positive gap.  Equal temperatures are legal and give a null cycle.
    """

    _fields = ("epsilon", "beta_h", "beta_c")

    def _check(self) -> None:
        if not (self.epsilon > 0):
            raise InvalidTemperatures(f"epsilon={self.epsilon} must be positive")
        if not (0 < self.beta_h <= self.beta_c):
            raise InvalidTemperatures(
                f"need 0 < beta_h <= beta_c, got beta_h={self.beta_h}, beta_c={self.beta_c}"
            )

    @classmethod
    def from_temperatures(cls, epsilon: float, t_hot: float, t_cold: float) -> "EngineSpec":
        if t_hot <= 0 or t_cold <= 0:
            raise InvalidTemperatures("temperatures must be positive")
        return cls(epsilon, 1.0 / t_hot, 1.0 / t_cold)


class LevelRow(_Value):
    """One occupied probability with its energy in each reservoir stage."""

    _fields = ("probability", "energies")


class EngineReport(_Value):
    """Heats, work, efficiency, and the certified reservoirs for one cycle."""

    _fields = (
        "p_c", "p_h", "s_c", "s_h", "q_h", "q_c", "w", "eta", "reservoir_levels",
        "hot_reservoir", "cold_reservoir", "hot_step_certified", "cold_step_certified",
        "approximation_gap",
    )


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def excited_population(beta: float, epsilon: float) -> float:
    x = math.exp(-beta * epsilon)
    return x / (1.0 + x)


def _cycle_numbers(spec: EngineSpec) -> tuple[float, float, float, float]:
    """Excited populations and Boltzmann factors: (p_c, p_h, w_c, w_h)."""
    return (
        excited_population(spec.beta_c, spec.epsilon),
        excited_population(spec.beta_h, spec.epsilon),
        math.exp(-spec.beta_c * spec.epsilon),
        math.exp(-spec.beta_h * spec.epsilon),
    )


def reservoir_level_table(
    spec: EngineSpec, c1: float = 1.0, c2: float = 1.0
) -> tuple[LevelRow, ...]:
    """Level table of the combined reservoir across both strokes.

    Rows are the four occupied probabilities p(i)q(j) with p in {p_c, 1-p_c}
    and q in {p_h, 1-p_h}; columns are the three reservoir stages.  The hot
    stroke swaps the cold-population factor for its hot counterpart, the cold
    stroke then swaps the hot factor back to cold, each contributing
    -(1/beta) ln(c * population) at its own temperature.  c1 and c2 are free
    offsets (translation symmetry of efficient reservoirs).
    """
    if c1 <= 0 or c2 <= 0:
        raise InvalidTemperatures("level-table constants must be positive")
    p_c, p_h = _cycle_numbers(spec)[:2]
    rows = []
    for cold_excited, hot_excited in ((True, True), (True, False), (False, True), (False, False)):
        cold_part = p_c if cold_excited else 1.0 - p_c
        hot_part = p_h if hot_excited else 1.0 - p_h
        swapped_cold = p_h if cold_excited else 1.0 - p_h
        swapped_hot = p_c if hot_excited else 1.0 - p_c
        e1 = -math.log(c1 * cold_part) / spec.beta_h - math.log(c2 * hot_part) / spec.beta_c
        e2 = -math.log(c1 * swapped_cold) / spec.beta_h - math.log(c2 * hot_part) / spec.beta_c
        e3 = (
            -math.log(c1 * swapped_cold) / spec.beta_h
            - math.log(c2 * swapped_hot) / spec.beta_c
        )
        rows.append(LevelRow(cold_part * hot_part, (e1, e2, e3)))
    return tuple(rows)


def _certify_stroke(state: ThermoState, target: ThermoState) -> tuple[bool, Reservoir | None]:
    """Verify exactly the minimal reservoir that relaxes ``state`` to ``target``."""
    if state.probs == target.probs:
        return True, None
    res = minimal_extraction_reservoir(state)
    return verify_efficient(Transition(state, target), res), res


def run_carnot(spec: EngineSpec) -> EngineReport:
    """One full cycle: populations, heats, work, efficiency, certified strokes.

    Zero dissipation ties each stroke's heat to the entropy swing:
    beta_h q_h = s_c - s_h and beta_c q_c = s_h - s_c (heats counted into the
    baths), so beta_c q_c + beta_h q_h = 0, w = -q_h - q_c, and the efficiency
    is exactly 1 - beta_h / beta_c.  The strokes are certified on the
    rationalized :func:`stage_states`: the hot stroke takes panel 2 to panel 3,
    the cold stroke panel 4 to panel 1.
    """
    numbers = _cycle_numbers(spec)
    p_c, p_h = numbers[:2]
    s_c = _binary_entropy(p_c)
    s_h = _binary_entropy(p_h)
    q_h = (s_c - s_h) / spec.beta_h
    q_c = (s_h - s_c) / spec.beta_c
    w = -q_h - q_c + 0.0  # + 0.0: no -0.0
    eta = 1.0 - spec.beta_h / spec.beta_c

    cold_eq, cold_at_hot, hot_eq, hot_at_cold = stage_states(spec)
    hot_ok, hot_res = _certify_stroke(cold_at_hot, hot_eq)
    cold_ok, cold_res = _certify_stroke(hot_at_cold, cold_eq)
    rationals = (
        cold_at_hot.probs[1],
        hot_at_cold.probs[1],
        hot_at_cold.weights[1],
        cold_at_hot.weights[1],
    )
    return EngineReport(
        p_c=p_c,
        p_h=p_h,
        s_c=s_c,
        s_h=s_h,
        q_h=q_h,
        q_c=q_c,
        w=w,
        eta=eta,
        reservoir_levels=reservoir_level_table(spec),
        hot_reservoir=hot_res,
        cold_reservoir=cold_res,
        hot_step_certified=hot_ok,
        cold_step_certified=cold_ok,
        approximation_gap=max(abs(float(x) - v) for x, v in zip(rationals, numbers)),
    )


def stage_states(spec: EngineSpec) -> tuple[ThermoState, ThermoState, ThermoState, ThermoState]:
    """Rationalized system states for the four cycle panels.

    Order: equilibrium at the cold bath, cold populations at the hot bath,
    equilibrium at the hot bath, hot populations at the cold bath.
    Populations and Boltzmann factors get denominators of at most
    ``APPROX_DENOMINATOR``; a factor that rounds to 0 is rejected.
    """
    numbers = _cycle_numbers(spec)
    p_c, p_h, w_c, w_h = (Fraction(x).limit_denominator(APPROX_DENOMINATOR) for x in numbers)
    if w_c == 0:  # beta_c >= beta_h, so w_c <= w_h rounds to 0 first
        raise InvalidTemperatures(
            f"Boltzmann factor exp(-beta_c*epsilon) = {numbers[2]:.3g} rounds to 0 "
            "at the 10^6 denominator cap"
        )
    return (
        gibbs_of(make_state((1, 0), (1, w_c))),
        make_state((1 - p_c, p_c), (1, w_h)),
        gibbs_of(make_state((1, 0), (1, w_h))),
        make_state((1 - p_h, p_h), (1, w_c)),
    )
