"""One-off per-layer sweep at n in {4, 16, 64, 256} on both input families.

A reference table for README.md, not a workload: each layer is timed on its
own, in-process, as the median of a few repetitions.  From the repository
root (the n=256 verify alone takes several seconds):

    PYTHONPATH=src python3 bench/sweep.py

Sizes: n levels for states, transitions and curves; for product and divide,
factors of sqrt(n) segments each, so the product has n segments.  The LP
oracle caps its dimension at 8, so it is timed at n=4 only.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

from workloads import generic_state, palette_state

SIZES = (4, 16, 64, 256)


def timed(fn, reps: int) -> float:
    """Median wall time of ``fn()`` in ms."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def toward_gibbs(state, share: Fraction):
    """The image of ``state`` under p -> share*p + (1-share)*tau, a Gibbs-stochastic map."""
    probs, weights = state
    z = sum(weights, Fraction(0))
    return tuple(share * p + (1 - share) * g / z for p, g in zip(probs, weights)), weights


def main() -> None:
    from thermomajor import curves, divergences, engine, oracle, reservoirs, states

    rng = random.Random(0)
    rows = []
    for family_name, family in (("generic", generic_state), ("palette", palette_state)):
        for n in SIZES:
            reps = 5 if n <= 64 else 1
            p = family(rng, n)
            q = family(rng, n, weights=p[1])
            k = math.isqrt(n)
            a, c = family(rng, k), family(rng, k)
            sp, sq = states.ThermoState(*p), states.ThermoState(*q)
            t = states.Transition(sp, sq)
            res = reservoirs.general_efficient_reservoir(t)
            cp = curves.curve_of(sp)
            cb = curves.curve_of(states.ThermoState(*toward_gibbs(p, Fraction(1, 3))))
            ca, cc = curves.curve_of(states.ThermoState(*a)), curves.curve_of(states.ThermoState(*c))
            ac = curves.product(ca, cc)
            cells = {
                "ThermoState": timed(lambda: states.ThermoState(*p), reps),
                "curve_of": timed(lambda: curves.curve_of(sp), reps),
                "majorizes (true)": timed(lambda: curves.majorizes(cp, cb), reps),
                "product": timed(lambda: curves.product(ca, cc), reps),
                "divide": timed(lambda: curves.divide(ac, cc), reps),
                "general_efficient_reservoir": timed(lambda: reservoirs.general_efficient_reservoir(t), reps),
                "verify_efficient": timed(lambda: reservoirs.verify_efficient(t, res), reps),
                "alpha_profile": timed(lambda: divergences.alpha_profile(sp), reps),
                "lp_feasible": timed(lambda: oracle.lp_feasible(t), reps) if n <= 8 else None,
            }
            rows.append((family_name, n, len(cp.segments), res.dim, cells))
    carnot = timed(lambda: engine.run_carnot(engine.EngineSpec.from_temperatures(1.0, 2.0, 1.0)), 5)

    layers = list(rows[0][4])
    print("| family | n | segments | reservoir levels | " + " | ".join(layers) + " |")
    print("|" + " --- |" * (4 + len(layers)))
    for family_name, n, segments, levels, cells in rows:
        values = ["cap" if cells[name] is None else f"{cells[name]:.3g}" for name in layers]
        print(f"| {family_name} | {n} | {segments} | {levels} | " + " | ".join(values) + " |")
    print(f"\nrun_carnot (epsilon 1, T_h 2, T_c 1): {carnot:.3g} ms")


if __name__ == "__main__":
    main()
