"""The pinned reference results behind ``thermomajor reproduce``.

Each target rebuilds one result (the four-level erasure reservoir of Table 1,
Examples 1 and 2, the Carnot engine) and returns its named checks.  Only the
``reproduce`` subcommand loads this module, so no other command compiles it.
A rebuilt reservoir must equal the paper's exactly: the construction's walk
fixes the level order and its ``anchor_weight`` the gauge.  Library
functions are read off their modules at call time, so a function rebound on
its module after this one loads (a tracing wrapper) is the one that runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import reservoirs, states


def _within(name: str, actual: float, tolerance: float, expected: float | None = None) -> dict:
    """The check that ``actual`` is within ``tolerance`` of ``expected``,
    or of 0 when no ``expected`` is given (the check then has no such key)."""
    check = {"name": name, "actual": actual, "tolerance": tolerance}
    if expected is not None:
        check["expected"] = expected
        actual -= expected
    check["ok"] = abs(actual) <= tolerance
    return check


def table1() -> dict:
    t = states.Transition(
        states.make_state(("1/3", "2/3"), (1, 1)), states.make_state((1, 0), (1, 1))
    )
    res = reservoirs.Reservoir(
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1), Fraction(2)),
        (Fraction(3), Fraction(3)),
    )
    checks = []
    efficient = reservoirs.verify_efficient(t, res)
    checks.append({"name": "four_level_erasure_reservoir_efficient", "ok": efficient})
    work = reservoirs.average_work(res)
    expected = (1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3)
    checks.append(_within("erasure_average_work", work, 1e-12, expected))
    # The default anchor puts weight 1 on the walk's first level, as here.
    checks.append(
        {
            "name": "general_construction_equals_table1",
            "ok": reservoirs.general_efficient_reservoir(t) == res,
        }
    )
    return {"target": "table1", "checks": checks}


def example1() -> dict:
    t = states.Transition(
        states.make_state(("1/2", "1/2"), (2, 1)), states.make_state(("1/3", "2/3"), (2, 1))
    )
    res = reservoirs.general_efficient_reservoir(t)
    checks = [{"name": "reservoir_efficient", "ok": reservoirs.verify_efficient(t, res)}]
    # The paper's weights, in walk order, in the gauge of first initial weight 2/3.
    expected = reservoirs.Reservoir(
        (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(1, 12), Fraction(1, 4)),
        (Fraction(4, 9), Fraction(2, 9), Fraction(1, 3)),
    )
    checks.append(
        {
            "name": "weight_ratios_exact",
            "ok": reservoirs.general_efficient_reservoir(t, Fraction(2, 3)) == expected,
        }
    )
    work = reservoirs.average_work(res)
    checks.append(_within("average_work", work, 1e-4, -0.17216))
    return {"target": "example1", "checks": checks}


def example2() -> dict:
    initial = states.make_state(("1/2", "1/2"), (1, 2))
    final = states.make_state(("2/3", "1/3"), (1, 1))
    t = states.clock_lift(initial, final)
    res = reservoirs.general_efficient_reservoir(t)
    checks = [{"name": "reservoir_efficient", "ok": reservoirs.verify_efficient(t, res)}]
    work = reservoirs.average_work(res)
    z_ratio_log = math.log(float(final.z)) - math.log(float(initial.z))
    z_free = work - z_ratio_log
    checks.append(_within("z_independent_work_component", z_free, 1e-6, 0.0022585))
    return {"target": "example2", "checks": checks}


def engine() -> dict:
    from .engine import EngineSpec, run_carnot  # the only target that runs the engine

    spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
    report = run_carnot(spec)
    # The efficiency is read off the heats, which run_carnot derives from the
    # stroke entropies, and held against Carnot's bound.
    eta = report.w / -report.q_h
    carnot = 1.0 - spec.beta_h / spec.beta_c
    checks = [
        _within("carnot_efficiency_exact", eta, 1e-12, carnot),
        _within("entropy_balance", spec.beta_c * report.q_c + spec.beta_h * report.q_h, 1e-10),
        _within("energy_conservation", report.w + report.q_h + report.q_c, 1e-12),
        {
            "name": "strokes_certified",
            "ok": report.hot_step_certified and report.cold_step_certified,
        },
    ]
    return {"target": "engine", "checks": checks}


TARGETS = {"table1": table1, "example1": example1, "example2": example2, "engine": engine}
