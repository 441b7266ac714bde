"""Independent brute-force oracle for thermomajorization feasibility.

A transition is implementable iff some stochastic matrix fixes the Gibbs
distribution while mapping the initial probabilities to the final ones.
:func:`lp_feasible` decides that definition directly as an LP feasibility
problem and returns a witness matrix, giving the curve criterion something
independent to be checked against.

The solver is a small dense Phase-I simplex with Bland's rule: at the
dimensions this oracle caps out at (n <= 8, so at most 64 variables and 24
equalities) an industrial LP library buys nothing, and a self-contained
solver keeps the oracle's trust chain short.  Its tableau holds each row
as integers, the exact rational row times a positive scale, and pivots
without division (a gcd is divided out of each row it changes); no float
and no tolerance enters.  So the verdict is exact, and the witness, built
as ``Fraction``s only at the end, satisfies every constraint exactly.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionCapExceeded, DimensionMismatch, NonPositiveWeight
from .states import ThermoState, Transition, _check_rationals

DEFAULT_DIMENSION_CAP = 8

Matrix = tuple[tuple[Fraction, ...], ...]


def _phase1_simplex(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Minimize the total artificial slack of {x >= 0 : Ax = b}, for b >= 0.

    Returns (objective, x); the system is feasible iff the objective is 0.
    Bland's rule (smallest eligible column; ties in the ratio test broken by
    smallest basis variable) rules out cycling, so the loop terminates.

    Entries are ints or Fractions.  Each row and its rhs are held as
    integers: the exact row times a positive scale, ``scale[r]``, the
    coefficient of the row's basic variable.  A pivot sets each row it
    changes to pivot * row - factor * pivot_row, both multipliers divided
    by their gcd, then divides out the gcd of the row, its rhs and its
    scale.  Scaling a row by a positive number changes no sign and no ratio
    rhs / entry, so the pivots are those of the rational tableau, and the
    basic solution, rhs over scale, is the same exactly.
    """
    m, n = len(a), len(a[0])
    tableau, rhs, scale = [], [], []
    for row, value in zip(a, b):
        den = lcm(value.denominator, *(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        top = value.numerator * (den // value.denominator)
        g = gcd(top, den, *ints)
        tableau.append([x // g for x in ints] if g > 1 else ints)
        rhs.append(top // g)
        scale.append(den // g)
    # Artificial i starts basic in row i, with coefficient scale[i].  Its
    # column is not stored: once it leaves the basis it never needs to
    # return, since dropping it keeps the optimum 0 exactly when
    # {x >= 0 : Ax = b} is non-empty.
    basis = list(range(n, n + m))
    # Phase-I reduced costs with the all-artificial basis, -sum of the exact
    # rows, times the positive lcm of the scales.
    common = lcm(*scale)
    reduced = [0] * n
    for row, s in zip(tableau, scale):
        weight = common // s
        reduced = [c - weight * x for c, x in zip(reduced, row)]
    while True:
        j = next((k for k, cost in enumerate(reduced) if cost < 0), None)
        if j is None:
            break
        # The Phase-I objective is bounded below by 0, so a column with a
        # negative reduced cost always has a positive entry.  Ratios
        # rhs / entry are compared by cross products.
        i = -1
        for r in range(m):
            entry = tableau[r][j]
            if entry > 0:
                if i < 0:
                    i = r
                    continue
                left, right = rhs[r] * tableau[i][j], rhs[i] * entry
                if left < right or (left == right and basis[r] < basis[i]):
                    i = r
        # A row whose basic variable was artificial may now share a factor
        # with its rhs; the new scale is the pivot itself.
        pivot_row = tableau[i]
        g = gcd(rhs[i], *pivot_row)
        if g > 1:
            pivot_row[:] = [x // g for x in pivot_row]
            rhs[i] //= g
        pivot, top = pivot_row[j], rhs[i]
        support = [k for k, y in enumerate(pivot_row) if y]
        for r, row in enumerate(tableau):
            factor = row[j]
            if r != i and factor:
                g = gcd(pivot, factor)
                mult, factor = pivot // g, factor // g
                if mult != 1:
                    row[:] = [mult * x for x in row]
                for k in support:
                    row[k] -= factor * pivot_row[k]
                rhs[r] = mult * rhs[r] - factor * top
                scale[r] *= mult
                g = gcd(rhs[r], scale[r], *row)
                if g > 1:
                    row[:] = [x // g for x in row]
                    rhs[r] //= g
                    scale[r] //= g
        factor = reduced[j]
        reduced = [pivot * c - factor * y for c, y in zip(reduced, pivot_row)]
        g = gcd(*reduced)
        if g > 1:
            reduced = [c // g for c in reduced]
        scale[i] = pivot
        basis[i] = j
    x = [Fraction(0)] * n
    objective = Fraction(0)
    for row, var in enumerate(basis):
        value = Fraction(rhs[row], scale[row])
        if var < n:
            x[var] = value
        else:
            objective += value
    return objective, x


def lp_feasible(t: Transition) -> tuple[bool, Matrix | None]:
    """Decide existence of a Gibbs-fixing stochastic matrix G with G p = p'.

    Constraints, with variables G_ij laid out row-major: every column sums to
    one, G g = g (equivalent to fixing tau, avoids divisions), and G p = p'.
    Returns the exact witness, as a tuple of rows, on success.
    """
    n = t.dim
    if n > DEFAULT_DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {n} exceeds cap {DEFAULT_DIMENSION_CAP}")
    rows = []
    rhs = []
    for j in range(n):  # column sums
        rows.append([int(k % n == j) for k in range(n * n)])
        rhs.append(1)
    # G g = g, then G p = p'
    for vec, image in ((t.weights, t.weights), (t.initial.probs, t.final.probs)):
        for i in range(n):
            row = [0] * (n * n)
            row[i * n : (i + 1) * n] = vec
            rows.append(row)
            rhs.append(image[i])
    objective, x = _phase1_simplex(rows, rhs)
    if objective:
        return False, None
    return True, tuple(tuple(x[i * n : (i + 1) * n]) for i in range(n))


def recovery_map(matrix: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]) -> Matrix:
    """Petz-style reversal R_ij = G_ji g_i / g_j, exactly.

    R fixes the Gibbs distribution whenever G does; when the forward
    transition produced no entropy, R carries the forward image back to the
    original distribution.  Entries and weights are ints or Fractions.
    """
    _check_rationals(x for row in matrix for x in row)
    _check_rationals(weights)
    g = [Fraction(w) for w in weights]
    if any(w <= 0 for w in g):
        raise NonPositiveWeight("weights must be strictly positive")
    n = len(g)
    return tuple(tuple(matrix[j][i] * g[i] / g[j] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Seeded rational generators (property tests and the oracle-check command).
# ---------------------------------------------------------------------------

_WEIGHT_PALETTE = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(4),
    Fraction(2, 3),
)


def random_state(
    rng: random.Random,
    dim: int,
    allow_zero: bool = False,
    weights: Sequence[Fraction] | None = None,
) -> ThermoState:
    """A random exact state with small-denominator entries."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be at least 1, got {dim}")
    while True:
        raw = [rng.randint(0 if allow_zero else 1, 9) for _ in range(dim)]
        if sum(raw) > 0:
            break
    total = sum(raw)
    probs = tuple(Fraction(x, total) for x in raw)
    if weights is None:
        weights = tuple(rng.choice(_WEIGHT_PALETTE) for _ in range(dim))
    return ThermoState(probs, tuple(weights))


def random_rational_gibbs_matrix(
    weights: Sequence[Fraction], rng: random.Random
) -> list[list[Fraction]]:
    """Exact-rational Gibbs-stochastic matrix (mixture of extremal pieces)."""
    n = len(weights)
    z = sum(weights, Fraction(0))
    tau = [w / z for w in weights]
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    all_tau = [[tau[i] for _ in range(n)] for i in range(n)]
    parts = [identity, all_tau]
    if n >= 2:
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            if tau[j] > tau[i]:
                i, j = j, i
            swap = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
            ratio = tau[j] / tau[i]
            swap[i][i] = 1 - ratio
            swap[j][i] = ratio
            swap[i][j] = Fraction(1)
            swap[j][j] = Fraction(0)
            parts.append(swap)
    raw = [Fraction(rng.randint(0, 6)) for _ in parts]
    if sum(raw) == 0:
        raw[0] = Fraction(1)
    total = sum(raw)
    coeffs = [x / total for x in raw]
    out = [[Fraction(0)] * n for _ in range(n)]
    for coeff, part in zip(coeffs, parts):
        if coeff == 0:
            continue
        for i in range(n):
            for j in range(n):
                out[i][j] += coeff * part[i][j]
    return out


def random_transition(
    rng: random.Random, dim: int, feasible_bias: float = 0.5
) -> Transition:
    """A random shared-weights transition.

    With probability ``feasible_bias`` the final state is produced by an exact
    Gibbs-stochastic matrix (feasible by construction); otherwise it is drawn
    independently, which is usually infeasible in at least one direction.
    """
    initial = random_state(rng, dim, allow_zero=True)
    if rng.random() < feasible_bias:
        matrix = random_rational_gibbs_matrix(initial.weights, rng)
        final_probs = tuple(
            sum((matrix[i][j] * initial.probs[j] for j in range(dim)), Fraction(0))
            for i in range(dim)
        )
        final = ThermoState(final_probs, initial.weights)
    else:
        final = random_state(rng, dim, allow_zero=True, weights=initial.weights)
    return Transition(initial, final)
