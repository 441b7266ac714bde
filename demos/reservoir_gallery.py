#!/usr/bin/env python3
"""The three reservoir constructions, side by side.

Minimal (2m levels) for extraction to equilibrium, the general refinement
construction for an arbitrary transition (including a change of Hamiltonian
via the clock register), and the larger product construction for flat
spectra.  Every reservoir is pushed through the exact verifier and its
average work is compared with the free-energy difference.
"""

from fractions import Fraction as F

from thermomajor import (
    Transition,
    alt_product_reservoir,
    average_work,
    clock_lift,
    curve_of,
    characterize_formation_family,
    general_efficient_reservoir,
    gibbs_of,
    make_state,
    minimal_extraction_reservoir,
    product,
    renyi,
    verify_efficient,
)
from thermomajor.reservoirs import minimal_formation_pair


def describe(name, res, t):
    print(f"-- {name}")
    print(f"   r            = {tuple(map(str, res.r))}")
    print(f"   init weights = {tuple(map(str, res.init_weights))}")
    print(f"   fin weights  = {tuple(map(str, res.fin_weights))}")
    print(f"   efficient    = {verify_efficient(t, res)}")
    tau = gibbs_of(t.initial)
    delta_f = renyi(1.0, t.initial, tau) - renyi(1.0, t.final, tau)
    print(f"   <W> = {average_work(res):+.6f},  D1 difference = {delta_f:+.6f}")


def main():
    print("== Minimal reservoir: extract from (3/4, 1/4) on flat levels ==")
    p = make_state(("3/4", "1/4"), (1, 1))
    t = Transition(p, gibbs_of(p))
    describe("minimal (dimension 4)", minimal_extraction_reservoir(p), t)

    print("\n== General construction: (1/2, 1/2) -> (1/3, 2/3), weights (2, 1) ==")
    t2 = Transition(make_state(("1/2", "1/2"), (2, 1)),
                    make_state(("1/3", "2/3"), (2, 1)))
    describe("general (dimension 6)", general_efficient_reservoir(t2), t2)

    print("\n== Change of Hamiltonian through the clock register ==")
    t3 = clock_lift(make_state(("1/2", "1/2"), (1, 2)),
                    make_state(("2/3", "1/3"), (1, 1)))
    describe("general on the lifted space", general_efficient_reservoir(t3), t3)

    print("\n== Product construction on flat levels (dimension 2n^2) ==")
    t4 = Transition(make_state(("1/2", "1/2"), (1, 1)),
                    make_state(("1/3", "2/3"), (1, 1)))
    describe("product (dimension 8)", alt_product_reservoir(t4), t4)

    print("\n== The whole formation family is minimal pair (x) anything ==")
    x1, y1 = minimal_formation_pair(p)
    spectator = curve_of(make_state(("1/4", "3/4"), (1, 3)))
    member = characterize_formation_family(p, product(spectator, x1), product(spectator, y1))
    stranger = characterize_formation_family(p, product(spectator, x1), y1)
    print(f"   b (x) x1, b (x) y1 accepted: {member}")
    print(f"   mismatched pair rejected:    {not stranger}")


if __name__ == "__main__":
    main()
