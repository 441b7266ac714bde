"""Independent reference computations and the checks built on them.

Nothing here imports thermomajor: every expected value is computed from the
benchmark's own inputs with code written apart from the program, so a check
can catch a wrong answer instead of agreeing with it.

A state is a pair ``(probs, weights)`` of tuples of Fractions.  A curve is a
pair ``(segments, width)`` where ``segments`` is a tuple of ``(height,
slope)`` Fractions with strictly decreasing slopes.  Program curves are read
through :func:`as_curve`, so checks accept any object with ``segments`` (each
with ``height`` and ``slope``) and ``total_width``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

ALPHA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
FLOAT_TOL = 1e-9
WITNESS_TOL = 1e-9
TAMPER = Fraction(10001, 10000)


class CheckFailed(Exception):
    """A program output disagrees with the independent reference."""


# ---------------------------------------------------------------------------
# Floats from exact states
# ---------------------------------------------------------------------------


def ln(x: Fraction) -> float:
    """Natural log of a positive rational, exact up to the final rounding."""
    return math.log(x.numerator) - math.log(x.denominator)


def free_energy(probs: Sequence[Fraction], weights: Sequence[Fraction]) -> float:
    """F = sum_i p_i ln(p_i / g_i) in nats (k_B T = 1, energies -ln g_i)."""
    return math.fsum(float(p) * (ln(p) - ln(g)) for p, g in zip(probs, weights) if p > 0)


def work_of(r, init_weights, fin_weights) -> float:
    """Expected energy a reservoir releases: sum_k r_k ln(init_k / fin_k)."""
    return math.fsum(float(x) * (ln(a) - ln(b)) for x, a, b in zip(r, init_weights, fin_weights))


def divergence(alpha: float, probs, weights) -> float:
    """D_alpha(p || tau) in nats by log-sum-exp over the support.

    The convention follows the library's documented one: sgn(alpha)/(alpha-1)
    in front of the log for alpha < 0, the usual limits at 0, 1 and inf.
    States are expected to have full support where alpha < 0 or alpha > 1.
    """
    z = sum(weights, Fraction(0))
    support = [(p, g) for p, g in zip(probs, weights) if p > 0]
    # log of p_i / tau_i = ln p_i - ln g_i + ln Z
    log_ratio = [ln(p) - ln(g) + ln(z) for p, g in support]
    if alpha == 1:
        return math.fsum(float(p) * lr for (p, _), lr in zip(support, log_ratio))
    if alpha == 0:
        return -ln(sum((g for _, g in support), Fraction(0)) / z)
    if math.isinf(alpha):
        return max(log_ratio)
    terms = [ln(p) + (alpha - 1.0) * lr for (p, _), lr in zip(support, log_ratio)]
    top = max(terms)
    lse = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    return lse / (1.0 - alpha) if alpha < 0 else lse / (alpha - 1.0)


# ---------------------------------------------------------------------------
# Exact curves
# ---------------------------------------------------------------------------


def curve(probs, weights) -> tuple[tuple[tuple[Fraction, Fraction], ...], Fraction]:
    """Canonical curve of a state: one segment per distinct slope p/g."""
    heights: dict[Fraction, Fraction] = {}
    for p, g in zip(probs, weights):
        if p > 0:
            slope = p / g
            heights[slope] = heights.get(slope, Fraction(0)) + p
    segments = tuple((heights[s], s) for s in sorted(heights, reverse=True))
    return segments, sum(weights, Fraction(0))


def tensor(a, b):
    """Product state (a-major order) of two ``(probs, weights)`` pairs."""
    return (
        tuple(x * y for x in a[0] for y in b[0]),
        tuple(x * y for x in a[1] for y in b[1]),
    )


def as_curve(program_curve):
    """A program ``Curve`` read into the reference representation."""
    segments = tuple((s.height, s.slope) for s in program_curve.segments)
    return segments, program_curve.total_width


def elbows(c) -> list[tuple[Fraction, Fraction]]:
    """Elbow points of a curve from (0, 0) to (Z, 1), the flat-tail end included."""
    points = [(Fraction(0), Fraction(0))]
    x = y = Fraction(0)
    for height, slope in c[0]:
        x += height / slope
        y += height
        points.append((x, y))
    if x < c[1]:
        points.append((c[1], Fraction(1)))
    return points


def majorizes(a, b) -> bool:
    """Exact merge walk: does curve ``a`` lie on or above curve ``b``?

    Both are concave and piecewise linear on [0, Z], so comparing at the
    union of elbows suffices.  One pass over the two sorted elbow lists
    evaluates each curve at the other's elbows by interpolation.
    """
    if a[1] != b[1]:
        raise ValueError("curves of different widths are not comparable")
    pa, pb = elbows(a), elbows(b)

    def value(points, i, x):
        # points[i-1].x <= x <= points[i].x
        (x0, y0), (x1, y1) = points[i - 1], points[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    i = j = 1
    while i < len(pa) and j < len(pb):
        xa, ya = pa[i]
        xb, yb = pb[j]
        if xa == xb:
            if ya < yb:
                return False
            i += 1
            j += 1
        elif xa < xb:
            if ya < value(pb, j, xa):
                return False
            i += 1
        else:
            if value(pa, i, xb) < yb:
                return False
            j += 1
    return True


# ---------------------------------------------------------------------------
# Gibbs-stochastic matrices
# ---------------------------------------------------------------------------


def gibbs_mixture(weights: Sequence[Fraction], rng: random.Random) -> list[list[Fraction]]:
    """A rational column-stochastic matrix G with G g = g.

    Convex mixture of the identity, the map sending everything to tau, and
    two-level partial swaps (level j's whole mass goes to i, and the share
    g_j/g_i of level i's mass goes to j, for g_i >= g_j).  Every piece fixes
    g, so every mixture does.
    """
    n = len(weights)
    z = sum(weights, Fraction(0))
    pieces = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    pieces.append([[weights[i] / z for _ in range(n)] for i in range(n)])
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if weights[i] < weights[j]:
            i, j = j, i
        piece = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        ratio = weights[j] / weights[i]
        piece[i][i], piece[j][i] = 1 - ratio, ratio
        piece[i][j], piece[j][j] = Fraction(1), Fraction(0)
        pieces.append(piece)
    raw = [rng.randint(1, 6) for _ in pieces]
    total = sum(raw)
    out = [[Fraction(0)] * n for _ in range(n)]
    for share, piece in zip(raw, pieces):
        coeff = Fraction(share, total)
        for i in range(n):
            for j in range(n):
                out[i][j] += coeff * piece[i][j]
    return out


def apply(matrix, probs):
    return tuple(sum((row[j] * probs[j] for j in range(len(probs))), Fraction(0)) for row in matrix)


# ---------------------------------------------------------------------------
# Checks: each raises CheckFailed with a reason, or returns None
# ---------------------------------------------------------------------------


def check_equal(what: str, actual, expected) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: got {actual!r}, expected {expected!r}")


def check_close(what: str, actual: float, expected: float, tol: float = FLOAT_TOL) -> None:
    if not (abs(actual - expected) <= tol * max(1.0, abs(expected))):
        raise CheckFailed(f"{what}: got {actual!r}, expected {expected!r} (tol {tol})")


def check_curve(what: str, program_curve, expected) -> None:
    if program_curve is None:
        raise CheckFailed(f"{what}: got no curve")
    check_equal(what, as_curve(program_curve), expected)


def check_witness(matrix, weights, probs, final, tol: float = WITNESS_TOL) -> None:
    """G >= 0, columns sum to 1, G g = g and G p = p', all to ``tol``.

    Entries are read through float(), so float and exact witnesses alike are
    accepted; rows may be any sequence (a numpy array, lists of Fractions).
    """
    rows = [[float(x) for x in row] for row in matrix]
    n = len(weights)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise CheckFailed(f"witness is not {n}x{n}")
    if min(min(row) for row in rows) < -tol:
        raise CheckFailed("witness has a negative entry")
    for j in range(n):
        if abs(math.fsum(rows[i][j] for i in range(n)) - 1.0) > tol:
            raise CheckFailed(f"witness column {j} does not sum to 1")
    for vec, image, name in ((weights, weights, "G g = g"), (probs, final, "G p = p'")):
        for i in range(n):
            got = math.fsum(rows[i][j] * float(vec[j]) for j in range(n))
            if abs(got - float(image[i])) > tol:
                raise CheckFailed(f"witness breaks {name} at row {i}")
