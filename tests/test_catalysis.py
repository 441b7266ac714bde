"""Catalytic feasibility checks and the catalyst-elimination results."""

import math
from fractions import Fraction

import pytest

from thermomajor.catalysis import (
    coincide_iff_alpha_equal,
    cto_feasible,
    strip_catalyst,
)
from thermomajor.curves import coincide, curve_of, divide
from thermomajor.divergences import DEFAULT_ALPHA_GRID, renyi
from thermomajor.errors import (
    CatalystMarginalMismatch,
    CurvesDiffer,
    NotProductState,
    ThermomajorError,
)
from thermomajor.oracle import random_transition
from thermomajor.reservoirs import joint_states, minimal_extraction_reservoir
from thermomajor.states import Transition, gibbs_of, is_gibbs, make_state, tensor

from conftest import random_full_support_state, random_state, seeded

F = Fraction


def coincident_joint_pair(rng, dim=3):
    """A pair of distinct states sharing one curve, built from a reservoir joint."""
    while True:
        p = random_state(rng, dim)
        if not is_gibbs(p):
            break
    res = minimal_extraction_reservoir(p)
    t = Transition(p, gibbs_of(p))
    return joint_states(t, res)


class TestCtoFeasible:
    def test_identity_feasible(self):
        s = make_state(("1/2", "1/2"), (1, 1))
        verdict = cto_feasible(Transition(s, s))
        assert verdict.feasible
        assert verdict.grid_only

    def test_mixing_toward_gibbs_feasible_reverse_not(self):
        mixed = make_state(("1/3", "2/3"), (1, 1))
        uniform = make_state(("1/2", "1/2"), (1, 1))
        forward = cto_feasible(Transition(mixed, uniform))
        reverse = cto_feasible(Transition(uniform, mixed))
        assert forward.feasible
        assert not reverse.feasible
        # D_0 ties (both full support), alpha = 1 is a witness
        by_alpha = {alpha: (di, df) for alpha, di, df in reverse.witnessed}
        d_init, d_fin = by_alpha[0.0]
        assert d_init == d_fin == 0.0
        d_init, d_fin = by_alpha[1.0]
        assert d_fin > d_init

    def test_thermomajorization_feasible_implies_cto_feasible(self):
        rng = seeded(41)
        for _ in range(40):
            t = random_transition(rng, rng.randint(2, 4), feasible_bias=1.0)
            assert cto_feasible(t).feasible

    def test_invariant_under_joint_relabeling(self):
        rng = seeded(42)
        for _ in range(20):
            dim = rng.randint(2, 4)
            t = random_transition(rng, dim)
            perm = list(range(dim))
            rng.shuffle(perm)
            permuted = Transition(
                make_state(
                    tuple(t.initial.probs[i] for i in perm),
                    tuple(t.weights[i] for i in perm),
                ),
                make_state(
                    tuple(t.final.probs[i] for i in perm),
                    tuple(t.weights[i] for i in perm),
                ),
            )
            assert cto_feasible(t).feasible == cto_feasible(permuted).feasible

    def test_nonnegative_only_restricts_grid(self):
        s = make_state(("1/2", "1/2"), (1, 1))
        verdict = cto_feasible(Transition(s, s), nonnegative_only=True)
        assert all(alpha >= 0 for alpha, _, _ in verdict.witnessed)


class TestStripCatalyst:
    def test_coincident_systems_with_any_catalyst(self):
        rng = seeded(43)
        sys_init, sys_fin = coincident_joint_pair(rng)
        catalyst = random_full_support_state(rng, 2)
        joint_init = tensor(sys_init, catalyst)
        joint_fin = tensor(sys_fin, catalyst)
        assert strip_catalyst(joint_init, joint_fin, catalyst.dim)

    def test_divide_recovers_system_curve(self):
        rng = seeded(44)
        for _ in range(20):
            sys = random_state(rng, rng.randint(2, 3))
            catalyst = random_full_support_state(rng, rng.randint(1, 3))
            joint = tensor(sys, catalyst)
            quotient = divide(curve_of(joint), curve_of(catalyst))
            assert quotient == curve_of(sys)

    def test_engineered_joint_coincidence(self):
        rng = seeded(45)
        for _ in range(10):
            sys_init, sys_fin = coincident_joint_pair(rng, dim=2)
            catalyst = random_full_support_state(rng, 2)
            assert strip_catalyst(
                tensor(sys_init, catalyst), tensor(sys_fin, catalyst), catalyst.dim
            )

    def test_not_product_state(self):
        correlated = make_state(("1/2", 0, 0, "1/2"), (1, 1, 1, 1))
        with pytest.raises(NotProductState):
            strip_catalyst(correlated, correlated, 2)

    def test_catalyst_marginal_mismatch(self):
        sys = make_state(("1/2", "1/2"), (1, 1))
        cat_a = make_state(("1/3", "2/3"), (1, 1))
        cat_b = make_state(("2/3", "1/3"), (1, 1))
        with pytest.raises(CatalystMarginalMismatch):
            strip_catalyst(tensor(sys, cat_a), tensor(sys, cat_b), 2)

    def test_dissipative_joint_rejected(self):
        sys_init = make_state(("1/2", "1/2"), (1, 1))
        sys_fin = make_state(("1/3", "2/3"), (1, 1))
        catalyst = make_state(("1/4", "3/4"), (1, 1))
        with pytest.raises(ValueError):
            strip_catalyst(
                tensor(sys_init, catalyst), tensor(sys_fin, catalyst), catalyst.dim
            )


    def test_dissipative_joint_error_is_a_library_error(self):
        catalyst = make_state(("1/4", "3/4"), (1, 1))
        with pytest.raises(CurvesDiffer, match="joint curves do not coincide"):
            strip_catalyst(
                tensor(make_state(("1/2", "1/2"), (1, 1)), catalyst),
                tensor(make_state(("1/3", "2/3"), (1, 1)), catalyst),
                catalyst.dim,
            )
        assert issubclass(CurvesDiffer, ThermomajorError)


class TestCoincideIffAlphaEqual:
    def test_equal_states(self):
        s = make_state(("1/3", "2/3"), (1, 2))
        assert coincide_iff_alpha_equal(s, s) == (True, True)

    def test_erasure_joint_states(self):
        system = make_state(("1/3", "2/3"), (1, 1))
        init_work = make_state(("1/3", "2/3", 0, 0), (1, 2, 3, 3))
        fin_system = make_state((1, 0), (1, 1))
        fin_work = make_state((0, 0, "1/3", "2/3"), (1, 2, 3, 3))
        a = tensor(system, init_work)
        b = tensor(fin_system, fin_work)
        assert coincide_iff_alpha_equal(a, b) == (True, True)

    def test_constructed_coincident_pairs_agree_everywhere(self):
        rng = seeded(46)
        for _ in range(25):
            a, b = coincident_joint_pair(rng, dim=rng.randint(2, 3))
            curves_equal, alphas_equal = coincide_iff_alpha_equal(a, b)
            assert curves_equal and alphas_equal

    def test_nearly_matched_low_orders_still_separated(self):
        # Search three-level states over a small rational grid for the pair
        # with equal D_0 (full support), minimal |D_1| gap, and distinct
        # curves; the grid must still separate them at some alpha.
        candidates = []
        den = 12
        for a in range(1, den - 1):
            for b in range(1, den - a):
                c = den - a - b
                if c < 1:
                    continue
                candidates.append(make_state((F(a, den), F(b, den), F(c, den)), (1, 1, 1)))
        best = None
        for i, p in enumerate(candidates):
            for q in candidates[i + 1 :]:
                if coincide(curve_of(p), curve_of(q)):
                    continue
                gap = abs(
                    renyi(1.0, p, gibbs_of(p)) - renyi(1.0, q, gibbs_of(q))
                )
                if best is None or gap < best[0]:
                    best = (gap, p, q)
        gap, p, q = best
        assert gap < 0.02
        assert renyi(0.0, p, gibbs_of(p)) == renyi(0.0, q, gibbs_of(q)) == 0.0
        curves_equal, alphas_equal = coincide_iff_alpha_equal(p, q)
        assert curves_equal is False
        assert alphas_equal is False
