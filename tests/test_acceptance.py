"""Acceptance suite: one test per pinned criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from fractions import Fraction

from thermomajor.curves import (
    coincide,
    curve_of,
    divide,
    identity_curve,
    majorizes,
    product,
)
from thermomajor.divergences import DEFAULT_ALPHA_GRID, renyi
from thermomajor.engine import EngineSpec, run_carnot
from thermomajor.oracle import lp_feasible, random_transition
from thermomajor.reservoirs import (
    Reservoir,
    average_work,
    general_efficient_reservoir,
    joint_states,
    minimal_extraction_reservoir,
    two_level_extraction_bound,
    two_level_formation_bound,
    verify_efficient,
)
from thermomajor.states import Transition, clock_lift, gibbs_of, make_state

from conftest import random_curve, random_state, seeded

F = Fraction


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}")


def test_general_reservoir_worked_two_level_example():
    start = time.perf_counter()
    t = Transition(
        make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
    )
    res = general_efficient_reservoir(t)
    expected = {
        F(1, 2): (F(1, 4), F(1, 3)),
        F(1, 3): (F(2, 3), F(4, 9)),
        F(1, 6): (F(1, 12), F(2, 9)),
    }
    actual = {x: (wi, wf) for x, wi, wf in zip(res.r, res.init_weights, res.fin_weights)}
    ratios_ok = set(actual) == set(expected)
    if ratios_ok:
        some_r = next(iter(expected))
        scale = actual[some_r][0] / expected[some_r][0]
        ratios_ok = scale > 0 and all(
            actual[x] == (scale * wi, scale * wf) for x, (wi, wf) in expected.items()
        )
    work = average_work(res)
    work_ok = abs(work - (-0.17216)) <= 1e-4
    elapsed = time.perf_counter() - start
    ok = ratios_ok and work_ok and verify_efficient(t, res) and elapsed < 1.0
    report(
        "worked-example-reservoir-ratios-and-work",
        ok,
        f"work={work:.6f}, {elapsed:.3f}s",
    )
    assert ratios_ok
    assert work_ok
    assert elapsed < 1.0


def test_four_level_erasure_reservoir_exact():
    start = time.perf_counter()
    t = Transition(make_state(("1/3", "2/3"), (1, 1)), make_state((1, 0), (1, 1)))
    res = Reservoir((F(1, 3), F(2, 3)), (F(1), F(2)), (F(3), F(3)))
    efficient = verify_efficient(t, res)
    work = average_work(res)
    expected = (1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3)
    work_ok = abs(work - expected) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        "erasure-reservoir-exact-coincidence-and-work",
        efficient and work_ok and elapsed < 1.0,
        f"work={work:.6f}, {elapsed:.3f}s",
    )
    assert efficient
    assert work_ok
    assert elapsed < 1.0


def test_time_dependent_hamiltonian_via_clock_lift():
    start = time.perf_counter()
    initial = make_state(("1/2", "1/2"), (1, 2))
    final = make_state(("2/3", "1/3"), (1, 1))
    t = clock_lift(initial, final)
    res = general_efficient_reservoir(t)
    efficient = verify_efficient(t, res)
    work = average_work(res)
    z_free = work - (math.log(float(final.z)) - math.log(float(initial.z)))
    value_ok = abs(z_free - 0.0022585) <= 1e-6
    elapsed = time.perf_counter() - start
    report(
        "clock-lifted-transition-z-independent-work",
        efficient and value_ok and elapsed < 1.0,
        f"z_free={z_free:.9f}, {elapsed:.3f}s",
    )
    assert efficient
    assert value_ok
    assert elapsed < 1.0


def test_two_level_bounds_pure_bit():
    pure = make_state((1, 0), (1, 1))
    extraction = two_level_extraction_bound(pure)
    formation = two_level_formation_bound(pure)
    ok = extraction == math.log(2) and formation == math.log(2)
    report(
        "two-level-bounds-pure-bit-ln2",
        ok,
        f"extraction={extraction!r}, formation={formation!r}",
    )
    assert extraction == math.log(2)
    assert formation == math.log(2)


def test_lp_oracle_agrees_with_curve_criterion():
    start = time.perf_counter()
    rng = seeded(101)
    trials = 500
    agree = 0
    for index in range(trials):
        dim = 2 + index % 4
        t = random_transition(rng, dim)
        curve_verdict = majorizes(curve_of(t.initial), curve_of(t.final))
        lp_verdict, _ = lp_feasible(t)
        if curve_verdict == lp_verdict:
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == trials and elapsed < 30.0
    report(
        "lp-oracle-curve-agreement",
        ok,
        f"{agree}/{trials} agree, {elapsed:.2f}s",
    )
    assert agree == trials
    assert elapsed < 30.0


def test_zero_dissipation_constructions():
    start = time.perf_counter()
    rng = seeded(102)
    checked = 0
    while checked < 200:
        dim = rng.randint(2, 4)
        p = random_state(rng, dim)
        if p == gibbs_of(p):
            continue
        tau = gibbs_of(p)
        minimal = minimal_extraction_reservoir(p)
        t_min = Transition(p, tau)
        assert verify_efficient(t_min, minimal)
        assert abs(average_work(minimal) - renyi(1.0, p, tau)) <= 1e-10

        final = random_state(rng, dim, allow_zero=True, weights=p.weights)
        t_gen = Transition(p, final)
        general = general_efficient_reservoir(t_gen)
        assert verify_efficient(t_gen, general)
        expected = renyi(1.0, p, tau) - renyi(1.0, final, tau)
        assert abs(average_work(general) - expected) <= 1e-10
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 30.0
    report(
        "zero-dissipation-reservoir-suite",
        ok,
        f"{checked} states, {elapsed:.2f}s",
    )
    assert elapsed < 30.0


def test_engine_identities_random_specs():
    start = time.perf_counter()
    rng = seeded(103)
    for _ in range(50):
        epsilon = rng.uniform(0.1, 3.0)
        t_cold = rng.uniform(0.2, 2.0)
        t_hot = t_cold * rng.uniform(1.01, 5.0)
        spec = EngineSpec.from_temperatures(epsilon, t_hot, t_cold)
        rep = run_carnot(spec)
        assert rep.eta == 1.0 - spec.beta_h / spec.beta_c
        assert abs(spec.beta_c * rep.q_c + spec.beta_h * rep.q_h) <= 1e-10
        assert abs(rep.w + rep.q_h + rep.q_c) <= 1e-12
        assert rep.hot_step_certified and rep.cold_step_certified
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report("carnot-engine-identities", ok, f"50 specs, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_curve_coincidence_matches_alpha_divergences():
    rng = seeded(104)

    def joints_for(state):
        res = minimal_extraction_reservoir(state)
        return joint_states(Transition(state, gibbs_of(state)), res)

    agree_failures = 0
    for _ in range(100):
        dim = rng.randint(2, 3)
        p = random_state(rng, dim)
        if p == gibbs_of(p):
            continue
        a, b = joints_for(p)
        assert coincide(curve_of(a), curve_of(b))
        tau = gibbs_of(a)
        for alpha in DEFAULT_ALPHA_GRID:
            da = renyi(alpha, a, tau)
            db = renyi(alpha, b, tau)
            if math.isinf(da) and math.isinf(db):
                continue
            if abs(da - db) > 1e-12:
                agree_failures += 1
                break

    separated = 0
    missed = []
    trials = 0
    while trials < 100:
        dim = rng.randint(2, 3)
        p = random_state(rng, dim)
        if p == gibbs_of(p):
            continue
        res = minimal_extraction_reservoir(p)
        bumped = Reservoir(
            res.r,
            res.init_weights,
            (res.fin_weights[0] * F(10001, 10000),) + res.fin_weights[1:],
        )
        a, b = joint_states(Transition(p, gibbs_of(p)), bumped)
        if coincide(curve_of(a), curve_of(b)):
            continue
        trials += 1
        tau = gibbs_of(a)
        for alpha in DEFAULT_ALPHA_GRID:
            da = renyi(alpha, a, tau)
            db = renyi(alpha, b, tau)
            if math.isinf(da) != math.isinf(db) or (
                not math.isinf(da) and abs(da - db) > 1e-12
            ):
                separated += 1
                break
        else:
            missed.append((p.probs, p.weights))
    for probs, weights in missed:
        print(f"  note: grid missed separation for probs={probs}, weights={weights}")
    ok = agree_failures == 0 and separated >= 95
    report(
        "coincidence-iff-alpha-equality",
        ok,
        f"coincident disagreements={agree_failures}/100, separated={separated}/100",
    )
    assert agree_failures == 0
    assert separated >= 95


def test_monoid_laws_and_cancellation():
    rng = seeded(105)
    for _ in range(300):
        a, b, c = random_curve(rng), random_curve(rng), random_curve(rng)
        assert product(product(a, b), c) == product(a, product(b, c))
        assert product(a, b) == product(b, a)
        assert product(a, identity_curve()) == a
    for _ in range(300):
        a, b = random_curve(rng), random_curve(rng)
        assert divide(product(a, b), a) == b
    report("curve-monoid-laws-and-cancellation", True, "300 triples, 300 divisions")


def test_two_level_reservoirs_cannot_serve_two_slopes():
    start = time.perf_counter()
    p = make_state(("3/4", "1/4"), (1, 1))
    t = Transition(p, gibbs_of(p))
    grid = 100
    passing = 0
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            res = Reservoir((F(1),), (F(i, grid + 1),), (F(j, grid + 1),))
            if verify_efficient(t, res):
                passing += 1
    elapsed = time.perf_counter() - start
    ok = passing == 0 and elapsed < 60.0
    report(
        "dimension-lower-bound-grid-search",
        ok,
        f"{grid * grid} grid points, {passing} passed, {elapsed:.2f}s",
    )
    assert passing == 0
    assert elapsed < 60.0
