"""Catalytic feasibility and catalyst elimination in the zero-dissipation regime.

Catalytic thermal operations are governed by monotonicity of every real-order
Renyi divergence, which no finite sample can certify; verdicts therefore carry
an explicit grid-only caveat.  Rejection, by contrast, is sound: one violated
grid point settles infeasibility.  In the zero-dissipation regime the
all-alpha condition collapses to exact curve coincidence, where catalysts are
provably useless; :func:`strip_catalyst` is that statement run as code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curves import coincide, curve_of
from .divergences import (
    DEFAULT_ALPHA_GRID,
    d0_support_mass,
    dinf_max_ratio,
    renyi,
)
from .errors import (
    CatalystMarginalMismatch,
    CurvesDiffer,
    DimensionMismatch,
    NotProductState,
)
from .states import ThermoState, Transition, gibbs_of

_ZERO = Fraction(0)

#: Largest |D_alpha(a) - D_alpha(b)| that :func:`coincide_iff_alpha_equal` reads as equal.
_ALPHA_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class CtoVerdict:
    """Outcome of a catalytic-feasibility check over an alpha grid.

    ``feasible=False`` is an exact rejection (some witnessed alpha violates
    monotonicity); ``feasible=True`` only certifies the sampled grid, hence
    ``grid_only`` stays True as a standing caveat.
    """

    feasible: bool
    witnessed: tuple[tuple[float, float, float], ...]
    grid_only: bool = True


def cto_feasible(
    t: Transition,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    nonnegative_only: bool = False,
) -> CtoVerdict:
    """Check D_alpha(initial || tau) >= D_alpha(final || tau) on a grid.

    ``nonnegative_only`` restricts to alpha >= 0, the regime where an
    infinitesimal work investment is allowed.  The endpoints alpha = 0 and
    alpha = inf are compared exactly through their inner rationals; interior
    points use floats with a 1e-12 slack.
    """
    tau = gibbs_of(t.initial)
    grid = tuple(float(a) for a in alpha_grid)
    if nonnegative_only:
        # Drop the negative reals only: nan and -inf go on to be refused.
        grid = tuple(a for a in grid if not -math.inf < a < 0)
    witnessed = []
    feasible = True
    for alpha in grid:
        d_init = renyi(alpha, t.initial, tau)
        d_fin = renyi(alpha, t.final, tau)
        witnessed.append((alpha, d_init, d_fin))
        if alpha == 0:
            # D_0 compares the tau-mass of supports, larger mass = smaller D.
            if d0_support_mass(t.initial, tau) > d0_support_mass(t.final, tau):
                feasible = False
        elif math.isinf(alpha) and alpha > 0:
            ratio_init = dinf_max_ratio(t.initial, tau)
            ratio_fin = dinf_max_ratio(t.final, tau)
            if ratio_init is not None and (ratio_fin is None or ratio_init < ratio_fin):
                feasible = False
        else:
            if math.isinf(d_init):
                continue
            if math.isinf(d_fin) or d_fin > d_init + 1e-12:
                feasible = False
    return CtoVerdict(feasible, tuple(witnessed))


def _factor_product(
    state: ThermoState, catalyst_dim: int
) -> tuple[ThermoState, ThermoState]:
    """Split a system-major joint state into (system, catalyst) marginals.

    Raises NotProductState unless both the probabilities and the weights
    factor exactly; the weight split anchors the catalyst factor at the first
    system level, which fixes the (physically irrelevant) scale.
    """
    n_total = state.dim
    if catalyst_dim < 1 or n_total % catalyst_dim != 0:
        raise DimensionMismatch(
            f"joint dimension {n_total} not divisible by catalyst dimension {catalyst_dim}"
        )
    n_sys = n_total // catalyst_dim

    def cell(s: int, k: int) -> int:
        return s * catalyst_dim + k

    sys_probs = tuple(
        sum((state.probs[cell(s, k)] for k in range(catalyst_dim)), _ZERO)
        for s in range(n_sys)
    )
    cat_probs = tuple(
        sum((state.probs[cell(s, k)] for s in range(n_sys)), _ZERO)
        for k in range(catalyst_dim)
    )
    for s in range(n_sys):
        for k in range(catalyst_dim):
            if state.probs[cell(s, k)] != sys_probs[s] * cat_probs[k]:
                raise NotProductState(
                    f"probability at joint level ({s}, {k}) does not factor"
                )
    cat_weights = tuple(state.weights[cell(0, k)] for k in range(catalyst_dim))
    sys_weights = tuple(
        state.weights[cell(s, 0)] / cat_weights[0] for s in range(n_sys)
    )
    for s in range(n_sys):
        for k in range(catalyst_dim):
            if state.weights[cell(s, k)] != sys_weights[s] * cat_weights[k]:
                raise NotProductState(
                    f"weight at joint level ({s}, {k}) does not factor"
                )
    return ThermoState(sys_probs, sys_weights), ThermoState(cat_probs, cat_weights)


def strip_catalyst(
    joint_init: ThermoState, joint_fin: ThermoState, catalyst_dim: int
) -> bool:
    """Remove a shared catalyst from a zero-dissipation product transition.

    Preconditions: both joints are system (x) catalyst products (system-major
    indexing) over the same weights, the catalyst marginals agree, and the
    joint curves coincide.  Under those hypotheses the system marginals'
    curves must coincide too (peeling matched top segments off the two equal
    joint curves forces the system segments to agree one by one), so the
    catalyst was never needed.  Returns that coincidence verdict.
    """
    if joint_init.weights != joint_fin.weights:
        raise DimensionMismatch("joint states must share the same weights")
    sys_init, cat_init = _factor_product(joint_init, catalyst_dim)
    sys_fin, cat_fin = _factor_product(joint_fin, catalyst_dim)
    if cat_init.probs != cat_fin.probs or cat_init.weights != cat_fin.weights:
        raise CatalystMarginalMismatch("catalyst marginal changed across the transition")
    if not coincide(curve_of(joint_init), curve_of(joint_fin)):
        raise CurvesDiffer(
            "joint curves do not coincide; strip_catalyst only applies in the "
            "zero-dissipation regime"
        )
    return coincide(curve_of(sys_init), curve_of(sys_fin))


def coincide_iff_alpha_equal(a: ThermoState, b: ThermoState) -> tuple[bool, bool]:
    """Compare curve coincidence against D_alpha equality on the default grid.

    Coincidence implies equality at every real alpha, so the first True must
    force the second.  The converse direction holds up to grid coverage: a
    finite grid can in principle miss the separating alpha.
    """
    if a.weights != b.weights:
        raise DimensionMismatch("states must share the same weights")
    tau = gibbs_of(a)
    curves_equal = coincide(curve_of(a), curve_of(b))
    alphas_equal = True
    for alpha in DEFAULT_ALPHA_GRID:
        da = renyi(alpha, a, tau)
        db = renyi(alpha, b, tau)
        if math.isinf(da) and math.isinf(db):
            continue
        if math.isinf(da) or math.isinf(db) or abs(da - db) > _ALPHA_EQUAL_TOL:
            alphas_equal = False
            break
    return curves_equal, alphas_equal
