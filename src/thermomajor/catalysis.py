"""Catalytic feasibility and catalyst elimination in the zero-dissipation regime.

Catalytic thermal operations are governed by monotonicity of every real-order
Renyi divergence, which no finite sample can certify; verdicts therefore carry
an explicit grid-only caveat.  Rejection, by contrast, is sound: one violated
grid point settles infeasibility.  Each state is read once into a term list
and every order comparison comes from ``divergences._order_compare`` on two
lists (exact at alpha = 0 and inf).  In the zero-dissipation regime the
all-alpha condition collapses to exact curve coincidence, where catalysts are
provably useless; :func:`strip_catalyst` is that statement run as code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .curves import coincide, curve_of
from .divergences import DEFAULT_ALPHA_GRID, _order_compare, _Terms
from .errors import (
    CatalystMarginalMismatch,
    CurvesDiffer,
    DimensionMismatch,
    InvalidOrder,
    NotProductState,
)
from .states import ThermoState, Transition, _Value, _exact_sum, gibbs_of, tensor


class CtoVerdict(_Value):
    """Outcome of a catalytic-feasibility check over an alpha grid.

    ``feasible=False`` is an exact rejection (some witnessed alpha violates
    monotonicity); ``feasible=True`` only certifies the sampled grid, hence
    ``grid_only`` stays True as a standing caveat.
    """

    _fields = ("feasible", "witnessed", "grid_only")

    def __init__(self, feasible: bool, witnessed: tuple, grid_only: bool = True) -> None:
        super().__init__(feasible, witnessed, grid_only)


def cto_feasible(
    t: Transition,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    nonnegative_only: bool = False,
) -> CtoVerdict:
    """Check D_alpha(initial || tau) >= D_alpha(final || tau) on a grid.

    ``nonnegative_only`` restricts to alpha >= 0, where an infinitesimal
    work investment is allowed.  Each order is compared from the states'
    term lists by ``divergences._order_compare``: exactly at alpha = 0 and
    inf through their inner rationals, within ``_ORDER_TOL`` elsewhere.  An
    empty grid, given or left by ``nonnegative_only``, raises InvalidOrder:
    no order checked is no verdict.
    """
    tau = gibbs_of(t.initial)
    grid = tuple(float(a) for a in alpha_grid)
    if nonnegative_only:
        # Drop the negative reals only: nan and -inf go on to be refused.
        grid = tuple(a for a in grid if not -math.inf < a < 0)
    if not grid:
        raise InvalidOrder(
            "alpha grid is empty" + (" after dropping negative orders" if nonnegative_only else "")
        )
    pairs = _Terms(t.initial, tau), _Terms(t.final, tau)
    compared = [_order_compare(alpha, *pairs) for alpha in grid]
    return CtoVerdict(
        all(sign >= 0 for _, _, sign in compared),
        tuple((alpha, d_init, d_fin) for alpha, (d_init, d_fin, _) in zip(grid, compared)),
    )


def _factor_product(
    state: ThermoState, catalyst_dim: int
) -> tuple[ThermoState, ThermoState]:
    """Split a system-major joint state into (system, catalyst) marginals.

    Raises NotProductState unless the tensor product of the marginals rebuilds
    the joint exactly, probabilities first, then weights; the weight split
    anchors the catalyst factor at the first system level, which fixes the
    (physically irrelevant) scale.
    """
    n = catalyst_dim
    if n < 1 or state.dim % n != 0:
        raise DimensionMismatch(
            f"joint dimension {state.dim} not divisible by catalyst dimension {n}"
        )
    cat_weights = state.weights[:n]
    anchor = Fraction(cat_weights[0])  # int weights divide exactly too
    sys = ThermoState(
        tuple(_exact_sum(state.probs[s : s + n]) for s in range(0, state.dim, n)),
        tuple(w / anchor for w in state.weights[::n]),
    )
    cat = ThermoState(tuple(_exact_sum(state.probs[k::n]) for k in range(n)), cat_weights)
    joint = tensor(sys, cat)
    for name, got, want in (
        ("probability", state.probs, joint.probs),
        ("weight", state.weights, joint.weights),
    ):
        for i, (x, y) in enumerate(zip(got, want)):
            if x != y:
                raise NotProductState(
                    f"{name} at joint level {divmod(i, n)} does not factor"
                )
    return sys, cat


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
    pairs = _Terms(a, tau), _Terms(b, tau)
    alphas_equal = all(_order_compare(alpha, *pairs)[2] == 0 for alpha in DEFAULT_ALPHA_GRID)
    return curves_equal, alphas_equal
