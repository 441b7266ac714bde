"""Exact states over Gibbs-weighted energy levels.

Probabilities and Gibbs weights are :class:`fractions.Fraction` values
throughout, so the curve geometry downstream can be decided by exact
comparison rather than floating-point tolerance.  Energies are carried
implicitly as weights ``g_i = exp(-e_i)`` in units of ``k_B T`` (beta folded
in); the energy itself is ``-ln(g_i)``, a display-only float.

Zero probabilities are legal (reservoir supports need them); zero weights are
not, since they would encode an infinite energy.

A state has one integer form: masses over one denominator (the lcm of the
probabilities' reduced denominators) and each weight a reduced (numerator,
denominator) pair.  Validation makes it in one pass over the levels,
reading each entry once, and keeps the masses of its exact-sum check.  The
slope classes, each reduced slope p_i / g_i mapped to its summed mass in
order of first occurrence, are read from those integers by the one level
reader, ``_read_levels``, on first use and cached; curves, reservoir
synthesis and verification all start from that reading.  A state built
from integers that are already checked (``ThermoState._derived``:
:func:`clock_lift`, :func:`gibbs_of` and a reservoir's two work states) is
not validated again, and makes its ``probs`` and ``weights`` tuples only
when they are read.

The library's ten value classes derive from ``_Value``, whose one
constructor binds their fields; each class adds only its checks.  No file
format lives here: the CLI reads and writes a value by its fields.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    NegativeProbability,
    NonPositiveWeight,
    ParseError,
    ProbSumNotOne,
)

_ONE = Fraction(1)
_ZERO = Fraction(0)

#: Largest decimal exponent :func:`as_rat` accepts (``"1e4300"``), Python's
#: default int-from-string digit cap; each unit of exponent is one more digit.
_MAX_DECIMAL_EXPONENT = 4300


def as_rat(value: object) -> Fraction:
    """Coerce an int, Fraction, or string like ``"2/3"`` to an exact rational.

    Decimal strings are converted exactly (``"0.5"`` becomes 1/2), with a
    decimal exponent of at most ``_MAX_DECIMAL_EXPONENT`` either way.  Floats
    are rejected: silent binary-fraction conversion would defeat the point of
    an exact core, so callers must rationalize floats explicitly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        too_long = len(exponent) > len(str(_MAX_DECIMAL_EXPONENT))
        if exponent.isdecimal() and (too_long or int(exponent) > _MAX_DECIMAL_EXPONENT):
            raise ParseError(
                f"not a rational: {value!r} (decimal exponent beyond {_MAX_DECIMAL_EXPONENT})"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"expected int, Fraction or 'p/q' string, got {type(value).__name__}")


def _show(x: object) -> str:
    """``x`` as text for an error message: its ``str``, or, for a rational
    with more digits than Python converts to a string, that limit in its
    place, so a message about bad input never fails to be built."""
    try:
        return str(x)
    except ValueError:
        return f"(a rational of more than {sys.get_int_max_str_digits()} digits)"


def _scaled(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integer ratios (n, d) as numerators over the lcm of their d."""
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _ratio(a: Fraction, b: Fraction) -> Fraction:
    """a / b built from numerators and denominators, so ints divide exactly
    too."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)


def _exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of rationals: one integer sum over the lcm of their
    denominators, normalised once, instead of a Fraction per partial sum."""
    numerators, den = _scaled([v.as_integer_ratio() for v in values])
    return Fraction(sum(numerators), den)


def _read_levels(
    masses: Sequence[int], pairs: Iterable[tuple[int, int]], den: int
) -> dict[tuple[int, int], int]:
    """The one reader of levels: occupied levels merged by slope, in order
    of first occurrence.  ``masses`` are integers over ``den`` and each
    weight a pair (n, d) of positive ints; the slope m d / (den n) of each
    occupied level is reduced with one gcd and maps to its summed mass."""
    classes: dict[tuple[int, int], int] = {}
    for m, (n, d) in zip(masses, pairs):
        if m:
            num, slope_den = m * d, den * n
            common = gcd(num, slope_den)
            slope = (num // common, slope_den // common)
            classes[slope] = classes.get(slope, 0) + m
    return classes


def _check_rationals(values: Iterable[object]) -> None:
    """Reject any entry that is not an int (bools excluded) or a Fraction,
    the rule :func:`as_rat` applies to parsed input."""
    for x in values:
        if type(x) is not Fraction and (type(x) is bool or not isinstance(x, (Fraction, int))):
            raise ParseError(f"not a rational: {x!r}")


class _Value:
    """Base of the frozen value classes.

    A subclass names its fields in ``_fields``.  The one constructor binds
    positional then keyword arguments to them in order, like a signature
    with no defaults, and sets each with ``object.__setattr__`` (writing to
    ``__dict__`` instead would make CPython build the dict, and every later
    attribute read slower); an unknown, repeated or missing field, or one
    positional argument too many, raises TypeError naming the class.  Then
    it calls ``_check``, which does nothing here: a class with invariants
    overrides it to validate its bound fields and raise.  Instances of one
    class are equal when their fields are, hash as the tuple of their
    fields, and print as ``Name(field=value, ...)``; assigning or deleting
    an attribute raises AttributeError.  ``__dict__`` stays, so
    ``cached_property`` still caches.
    """

    _fields: tuple[str, ...]

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            name = type(self).__name__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
            for key in kwargs:
                if key not in rest:
                    raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            try:
                args += tuple([kwargs[key] for key in rest])
            except KeyError as exc:
                raise TypeError(f"{name}() missing argument {exc.args[0]!r}") from None
        for key, value in zip(fields, args):
            object.__setattr__(self, key, value)
        self._check()

    def _check(self) -> None:
        pass

    def _as_tuples(self) -> list[tuple]:
        """Store each field as a tuple, so a value given lists is hashable."""
        values = [tuple(getattr(self, name)) for name in self._fields]
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ThermoState(_Value):
    """A probability vector paired with positive Gibbs weights of equal length.

    Invariants (enforced at construction): entries are ints or Fractions;
    probabilities are nonnegative and sum to exactly one; weights are
    strictly positive; lengths match and are at least one.
    """

    _fields = ("probs", "weights")

    def _check(self) -> None:
        if len(self.probs) != len(self.weights):
            raise DimensionMismatch(
                f"{len(self.probs)} probabilities vs {len(self.weights)} weights"
            )
        if len(self.probs) < 1:
            raise DimensionMismatch("state needs at least one level")
        probs, weights = self._as_tuples()
        # One pass; the first faulty level raises, checking the probability's
        # type, the weight's type and sign, then the probability's sign.
        ratios, pairs = [], []
        for p, w in zip(probs, weights):
            if type(p) is not Fraction or type(w) is not Fraction:
                _check_rationals((p, w))
            pair = w.as_integer_ratio()
            if pair[0] <= 0:
                raise NonPositiveWeight(f"weight {_show(w)} is not positive")
            pairs.append(pair)
            ratio = p.as_integer_ratio()
            if ratio[0] < 0:
                raise NegativeProbability(f"probability {_show(p)} is negative")
            ratios.append(ratio)
        # The exact sum's integer reading is kept: ``_masses`` over ``_den``.
        masses, den = _scaled(ratios)
        total = sum(masses)
        if total != den:
            raise ProbSumNotOne(f"probabilities sum to {_show(Fraction(total, den))}, not 1")
        for name, value in (("_masses", masses), ("_den", den), ("_pairs", pairs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _derived(cls, masses: list[int], den: int, pairs: list, classes: dict | None = None):
        """The state of checked integers, with no validation: ``masses``
        over ``den`` as validation reads the probabilities, and ``pairs`` the
        reduced weights.  ``classes``, if given, seeds the cached slope
        classes."""
        state = cls.__new__(cls)
        for name, value in (("_masses", masses), ("_den", den), ("_pairs", pairs)):
            object.__setattr__(state, name, value)
        if classes is not None:
            object.__setattr__(state, "_classes", classes)
        return state

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(m, self._den) for m in self._masses])

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(*w) for w in self._pairs])

    @property
    def dim(self) -> int:
        return len(self._masses)

    @cached_property
    def _classes(self) -> dict[tuple[int, int], int]:
        """The occupied levels merged by slope p_i / g_i, each reduced slope
        pair mapped to its mass over ``_den``, in order of first occurrence."""
        return _read_levels(self._masses, self._pairs, self._den)

    @cached_property
    def z(self) -> Fraction:
        """Partition function: the sum of all Gibbs weights."""
        numerators, den = _scaled(self._pairs)
        return Fraction(sum(numerators), den)


def make_state(probs: Iterable[object], weights: Iterable[object]) -> ThermoState:
    """Validated constructor accepting ints, Fractions, or ``"p/q"`` strings."""
    return ThermoState(tuple(as_rat(p) for p in probs), tuple(as_rat(w) for w in weights))


def gibbs_of(state: ThermoState) -> ThermoState:
    """The equilibrium state with the same weights: probs_i = g_i / Z."""
    # With g_i = n_i / d, g_i / Z = n_i / sum(n); over gcd(n) the masses
    # come out as validation reads the reduced probabilities.
    numerators, _ = _scaled(state._pairs)
    common = gcd(*numerators)
    masses = [n // common for n in numerators]
    return ThermoState._derived(masses, sum(masses), state._pairs)


class Transition(_Value):
    """An initial/final pair over one Hamiltonian (identical weight vectors)."""

    _fields = ("initial", "final")

    def _check(self) -> None:
        if self.initial._pairs != self.final._pairs:
            raise DimensionMismatch(
                "transition endpoints must share the same Gibbs weights; "
                "use clock_lift for a change of Hamiltonian"
            )

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self.initial.weights


def clock_lift(initial_state: ThermoState, final_state: ThermoState) -> Transition:
    """Embed a change-of-Hamiltonian transition into one enlarged Hamiltonian.

    A two-level clock register tensors with the system: the joint level set is
    the disjoint union of the initial levels (clock 0) and the final levels
    (clock 1), with the corresponding weights concatenated.  The lifted
    initial state occupies the clock-0 block, the lifted final state the
    clock-1 block, so the result is an ordinary shared-weights transition.
    """
    # Each lifted state is its half zero-padded, over the half's denominator,
    # with a copy of the half's slope classes: a zero level adds none.
    p, q = initial_state, final_state
    pairs = p._pairs + q._pairs
    lifted_initial = ThermoState._derived(p._masses + [0] * q.dim, p._den, pairs, dict(p._classes))
    lifted_final = ThermoState._derived([0] * p.dim + q._masses, q._den, pairs, dict(q._classes))
    return Transition(lifted_initial, lifted_final)


def tensor(a: ThermoState, b: ThermoState) -> ThermoState:
    """Product state: probabilities and weights multiply pairwise (a-major order)."""
    probs = tuple(pa * pb for pa in a.probs for pb in b.probs)
    weights = tuple(wa * wb for wa in a.weights for wb in b.weights)
    return ThermoState(probs, weights)

