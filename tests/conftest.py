"""Shared generators for the property and acceptance suites (all seeded)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from hypothesis import strategies as st

import thermomajor
from thermomajor.catalysis import cto_feasible
from thermomajor.curves import Curve, curve_of
from thermomajor.oracle import random_state, random_transition
from thermomajor.states import ThermoState, Transition

__all__ = [
    "seeded",
    "random_state",
    "random_transition",
    "random_full_support_state",
    "random_curve",
    "family_states",
    "apply",
    "is_gibbs_stochastic",
    "run_python",
    "alpha_equal",
]

PALETTE = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "4", "2/3"))


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def apply(matrix: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> tuple:
    """The exact image G v."""
    return tuple(sum((a * v for a, v in zip(row, vector)), Fraction(0)) for row in matrix)


def is_gibbs_stochastic(matrix: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]) -> bool:
    """Exactly: n x n, entries >= 0, every column sums to 1, and G g = g."""
    n = len(weights)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return False
    if any(x < 0 for row in matrix for x in row):
        return False
    if any(sum(column) != 1 for column in zip(*matrix)):
        return False
    return apply(matrix, weights) == tuple(weights)


def run_python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` that imports this thermomajor."""
    src = str(Path(thermomajor.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def alpha_equal(a: ThermoState, b: ThermoState) -> bool:
    """D_alpha equality on the default grid: each state reaches the other."""
    return cto_feasible(Transition(a, b)).feasible and cto_feasible(Transition(b, a)).feasible


def random_full_support_state(rng: random.Random, dim: int) -> ThermoState:
    return random_state(rng, dim, allow_zero=False)


def random_curve(rng: random.Random, max_dim: int = 4) -> Curve:
    dim = rng.randint(1, max_dim)
    return curve_of(random_state(rng, dim, allow_zero=True))


@st.composite
def family_states(draw, dim, palette, weights=None):
    """Hypothesis states of one family.

    Palette states take weights from ``PALETTE`` and masses 0..6, so slopes
    collapse; generic states take distinct rational weights and masses
    1..999, so slopes rarely collide.  ``weights`` overrides the draw.
    """
    if weights is None:
        weight = st.sampled_from(PALETTE) if palette else st.builds(
            Fraction, st.integers(1, 60), st.integers(1, 60)
        )
        weights = tuple(
            draw(st.lists(weight, min_size=dim, max_size=dim, unique=not palette))
        )
    mass = st.integers(0, 6) if palette else st.integers(1, 999)
    raw = draw(
        st.lists(mass, min_size=len(weights), max_size=len(weights)).filter(
            lambda xs: sum(xs) > 0
        )
    )
    return ThermoState(tuple(Fraction(x, sum(raw)) for x in raw), weights)
