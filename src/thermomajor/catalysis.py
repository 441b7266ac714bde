"""Catalytic feasibility in the zero-dissipation regime.

Catalytic thermal operations are governed by monotonicity of every real-order
Renyi divergence, which no finite sample can certify; verdicts therefore carry
an explicit grid-only caveat.  Rejection, by contrast, is sound: one violated
grid point settles infeasibility.  Each state is read once into a term list
and every order comparison comes from ``divergences._order_compare`` on two
lists (exact at alpha = 0 and inf).  In the zero-dissipation regime the
all-alpha condition collapses to exact curve coincidence, where catalysts are
provably useless: that is the cancellation law of the curve monoid,
``divide(curve_of(tensor(s, c)), curve_of(c)) == curve_of(s)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .divergences import DEFAULT_ALPHA_GRID, _order_compare, _Terms
from .errors import InvalidOrder
from .states import Transition, _Value, gibbs_of


class CtoVerdict(_Value):
    """Outcome of a catalytic-feasibility check over an alpha grid.

    ``feasible=False`` is an exact rejection (some witnessed alpha violates
    monotonicity); ``feasible=True`` only certifies the sampled grid, hence
    :func:`cto_feasible` sets ``grid_only`` True as a standing caveat.
    """

    _fields = ("feasible", "witnessed", "grid_only")


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
        grid_only=True,
    )
