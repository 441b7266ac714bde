"""Renyi divergences, entropy production, free energies, and the ratio identity."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thermomajor.curves import curve_of
from thermomajor.divergences import (
    DEFAULT_ALPHA_GRID,
    alpha_free_energy,
    alpha_profile,
    curve_alpha_divergence,
    d0_support_mass,
    dinf_max_ratio,
    entropy_production,
    jarzynski_ratio_check,
    ln_frac,
    renyi,
    shannon_entropy,
)
from thermomajor import divergences
from thermomajor.catalysis import coincide_iff_alpha_equal, cto_feasible
from thermomajor.errors import DimensionMismatch, InvalidOrder, OutsideDomain, ThermomajorError
from thermomajor.oracle import random_transition
from thermomajor.reservoirs import Reservoir, minimal_extraction_reservoir
from thermomajor.states import ThermoState, Transition, gibbs_of, make_state, tensor

from conftest import family_states, random_full_support_state, random_state, seeded

F = Fraction
NONNEG_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)


class TestRenyi:
    def test_pure_bit_d0_is_ln2(self):
        p = make_state((1, 0), (1, 1))
        q = make_state(("1/2", "1/2"), (1, 1))
        assert renyi(0.0, p, q) == math.log(2)

    def test_pure_bit_dinf_is_ln2(self):
        p = make_state((1, 0), (1, 1))
        q = make_state(("1/2", "1/2"), (1, 1))
        assert renyi(math.inf, p, q) == math.log(2)

    def test_identical_states_vanish(self):
        rng = seeded(21)
        for _ in range(10):
            p = random_full_support_state(rng, rng.randint(1, 4))
            for alpha in DEFAULT_ALPHA_GRID:
                assert abs(renyi(alpha, p, p)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            renyi(1.0, make_state((1,), (1,)), make_state((1, 0), (1, 1)))

    def test_nonnegative_with_equality_iff_equal(self):
        rng = seeded(22)
        for _ in range(40):
            dim = rng.randint(2, 4)
            p = random_state(rng, dim)
            q = random_full_support_state(rng, dim)
            q = make_state(q.probs, p.weights)
            for alpha in NONNEG_GRID:
                d = renyi(alpha, p, q)
                assert d >= -1e-12
                if p.probs != q.probs and alpha > 0:
                    pass  # strictness only guaranteed for alpha > 0
            if p.probs != q.probs:
                assert renyi(1.0, p, q) > 0 or renyi(2.0, p, q) > 0

    def test_nondecreasing_in_alpha(self):
        rng = seeded(23)
        for _ in range(40):
            dim = rng.randint(2, 4)
            p = random_state(rng, dim)
            q = gibbs_of(p)
            values = [renyi(a, p, q) for a in NONNEG_GRID]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12

    def test_negative_orders_nonnegative_and_order_swapped(self):
        # The sign-flipped family at alpha < 0 equals
        # (-alpha/(1-alpha)) * D_{1-alpha}(q || p): nonnegative, and zero only
        # for identical distributions.
        rng = seeded(24)
        for _ in range(40):
            p = random_full_support_state(rng, rng.randint(2, 4))
            q = gibbs_of(p)
            for alpha in (-2.0, -1.0, -0.5):
                value = renyi(alpha, p, q)
                assert value >= -1e-12
                mirrored = (-alpha / (1.0 - alpha)) * renyi(1.0 - alpha, q, p)
                assert abs(value - mirrored) <= 1e-10

    def test_negative_orders_decrease_under_gibbs_maps(self):
        rng = seeded(28)
        for _ in range(40):
            t = random_transition(rng, rng.randint(2, 4), feasible_bias=1.0)
            tau = gibbs_of(t.initial)
            for alpha in (-2.0, -1.0, -0.5):
                d_init = renyi(alpha, t.initial, tau)
                d_fin = renyi(alpha, t.final, tau)
                if math.isinf(d_init):
                    continue
                assert d_fin <= d_init + 1e-10

    def test_negative_alpha_zero_prob_convention(self):
        p = make_state((1, 0), (1, 1))
        q = make_state(("1/2", "1/2"), (1, 1))
        assert renyi(-1.0, p, q) == math.inf

    def test_alpha_above_one_off_support(self):
        p = make_state(("1/2", "1/2"), (1, 1))
        q = make_state((1, 0), (1, 1))
        assert renyi(2.0, p, q) == math.inf
        assert renyi(1.0, p, q) == math.inf

    def test_tiny_weight_stays_finite(self):
        # exp(alpha ln p + (1 - alpha) ln q) leaves double range here for
        # |alpha| >= 2, although every D_alpha is finite.
        p = make_state(("1/2", "1/2"), (1, F(1, 10**200)))
        tau = gibbs_of(p)
        c = curve_of(p)
        for alpha in DEFAULT_ALPHA_GRID:
            d = renyi(alpha, p, tau)
            assert math.isfinite(d)
            assert abs(curve_alpha_divergence(c, alpha) - d) <= 1e-12 * max(1.0, d)
        d4 = 200 * math.log(10) - 4 / 3 * math.log(2)
        assert abs(renyi(4.0, p, tau) - d4) <= 1e-10


    @pytest.mark.parametrize("alpha", [math.nan, -math.inf], ids=["nan", "minus-inf"])
    def test_nan_and_minus_inf_orders_refused_everywhere(self, alpha):
        s = make_state(("1/3", "2/3"), (1, 1))
        tau = gibbs_of(s)
        calls = [
            lambda: renyi(alpha, s, tau),
            lambda: curve_alpha_divergence(curve_of(s), alpha),
            lambda: alpha_profile(s, alphas=(0.0, alpha)),
            lambda: cto_feasible(Transition(s, tau), (0.0, alpha)),
            lambda: cto_feasible(Transition(s, tau), (alpha,), nonnegative_only=True),
        ]
        for call in calls:
            with pytest.raises(InvalidOrder, match="alpha must be a real number or inf"):
                call()
        assert issubclass(InvalidOrder, ThermomajorError)


#: Orders just off 1, where D_alpha divides a sum's log by alpha - 1.
NEAR_ONE = (1 - 2**-53, 1 - 2**-52, 1 + 2**-52, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6)


def decimal_renyi(alpha, p, q):
    """D_alpha(p || q), for q positive on p's support and alpha not 0, 1 or
    inf, from 50-digit decimal logs and exps."""

    def ln(x):
        return (Decimal(x.numerator) / Decimal(x.denominator)).ln()

    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        total = sum(
            ((a * ln(pi) + (1 - a) * ln(qi)).exp() for pi, qi in zip(p.probs, q.probs) if pi),
            Decimal(0),
        )
        value = total.ln() / (a - 1)
        return float(-value if alpha < 0 else value)


class TestNearOrderOne:
    """D_alpha near alpha = 1 sums p_i r_i^(alpha-1) - 1 with expm1 terms,
    so it neither cancels to noise nor loses the sign of a tiny value."""

    q = make_state(("1/2", "1/2"), (1, 2))
    tau = gibbs_of(q)

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_gibbs_state_vanishes(self, alpha):
        assert renyi(alpha, self.tau, self.tau) == 0.0
        assert curve_alpha_divergence(curve_of(self.tau), alpha) == 0.0

    @pytest.mark.parametrize("alpha", NEAR_ONE[:3])
    def test_continuous_at_one(self, alpha):
        d1 = renyi(1.0, self.q, self.tau)
        assert abs(renyi(alpha, self.q, self.tau) - d1) <= 1e-12
        assert abs(curve_alpha_divergence(curve_of(self.q), alpha) - d1) <= 1e-12

    def test_gibbs_target_not_falsely_rejected(self):
        assert cto_feasible(Transition(self.q, self.tau), (1 - 2**-53,)).feasible

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_decimal_reference(self, data):
        """Within 1e-14 relative where D_alpha >= 1e-2.  Nearer the
        reference the sum cancels to second order, so a value below 1e-2 is
        held to 1e-16 absolute."""
        p = data.draw(family_states(data.draw(st.integers(1, 6)), False))
        gibbs = data.draw(st.booleans())
        q = gibbs_of(p) if gibbs else data.draw(family_states(p.dim, False, p.weights))
        alpha = data.draw(st.sampled_from(NEAR_ONE + (-2.0, -1.0, -0.5, 0.25, 0.5, 2.0, 4.0)))
        expected = decimal_renyi(alpha, p, q)
        values = [renyi(alpha, p, q)]
        if gibbs:
            values.append(curve_alpha_divergence(curve_of(p), alpha))
        for value in values:
            assert abs(value - expected) <= 1e-14 * max(abs(expected), 1e-2)


class TestEntropyProduction:
    def test_erasure_with_two_level_reservoir_is_free(self):
        # Joint uniform (x) lower-level -> pure (x) upper-level with the
        # weight doubling that pays exactly ln 2: curves coincide, so the
        # joint entropy production vanishes.
        joint_init = make_state(("1/2", 0, "1/2", 0), (1, 2, 1, 2))
        joint_fin = make_state((0, 1, 0, 0), (1, 2, 1, 2))
        sigma = entropy_production(Transition(joint_init, joint_fin))
        assert abs(sigma) <= 1e-14

    def test_bare_erasure_needs_work(self):
        t = Transition(
            make_state(("1/2", "1/2"), (1, 1)), make_state((1, 0), (1, 1))
        )
        assert abs(entropy_production(t) + math.log(2)) <= 1e-14

    def test_identity_transition(self):
        s = make_state(("1/3", "2/3"), (2, 1))
        assert entropy_production(Transition(s, s)) == 0.0

    def test_reverse_direction_needs_work(self):
        t = Transition(
            make_state(("1/2", "1/2"), (2, 1)), make_state(("1/3", "2/3"), (2, 1))
        )
        sigma = entropy_production(t)
        assert abs(sigma - (0.05889 - 0.23105)) <= 1e-4
        assert abs(sigma + 0.17216) <= 1e-4

    def test_nonnegative_on_feasible_transitions(self):
        rng = seeded(25)
        count = 0
        for _ in range(60):
            t = random_transition(rng, rng.randint(2, 4), feasible_bias=1.0)
            assert entropy_production(t) >= -1e-9
            count += 1
        assert count == 60


class TestAlphaFreeEnergy:
    def test_gibbs_state_pins_equilibrium_value(self):
        s = gibbs_of(make_state((1, 0, 0), (1, 2, 3)))
        for alpha in NONNEG_GRID:
            assert abs(alpha_free_energy(alpha, s) + math.log(6)) <= 1e-12

    def test_pure_bit_at_alpha_one(self):
        s = make_state((1, 0), (1, 1))
        assert abs(alpha_free_energy(1.0, s)) <= 1e-15

    def test_monotone_in_alpha(self):
        rng = seeded(26)
        for _ in range(20):
            s = random_full_support_state(rng, rng.randint(2, 4))
            values = [alpha_free_energy(a, s) for a in NONNEG_GRID]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12


class TestAlphaProfile:
    def test_profile_defaults_to_gibbs_reference(self):
        s = make_state(("3/4", "1/4"), (1, 1))
        profile = alpha_profile(s, alphas=NONNEG_GRID)
        assert profile.alphas == NONNEG_GRID
        assert profile.values[0] == renyi(0.0, s, gibbs_of(s))

    def test_curve_formula_matches_state_formula(self):
        # Every order on full-support states; with zero-probability levels
        # the two agree at alpha >= 0 (negative orders: see the next test).
        rng = seeded(27)
        for _ in range(20):
            for s, grid in (
                (random_full_support_state(rng, rng.randint(2, 4)), DEFAULT_ALPHA_GRID),
                (random_state(rng, rng.randint(2, 4), allow_zero=True), NONNEG_GRID),
            ):
                c = curve_of(s)
                for alpha in grid:
                    assert abs(
                        curve_alpha_divergence(c, alpha) - renyi(alpha, s, gibbs_of(s))
                    ) <= 1e-10

    def test_negative_orders_on_a_zero_probability_level(self):
        # renyi sees the empty level and diverges; the curve's flat tail
        # carries no segment, so the curve form stays finite.
        s = make_state(("1/2", "1/2", 0), (1, 2, 3))
        for alpha in (-2.0, -1.0, -0.5):
            assert renyi(alpha, s, gibbs_of(s)) == math.inf
            assert math.isfinite(curve_alpha_divergence(curve_of(s), alpha))


class TestJarzynskiRatio:
    def test_minimal_extraction_reservoir_satisfies_identity(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        res = minimal_extraction_reservoir(p)
        assert jarzynski_ratio_check(res, p, alphas=(0.5, 2.0))
        assert jarzynski_ratio_check(res, p)

    def test_reversed_reservoir_also_accepted(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        res = minimal_extraction_reservoir(p)
        formation = Reservoir(res.r, res.fin_weights, res.init_weights)
        assert jarzynski_ratio_check(formation, p)

    def test_gibbs_system_gives_unit_ratio(self):
        s = gibbs_of(make_state((1, 0), (1, 2)))
        trivial = Reservoir((F(1),), (F(1),), (F(1),))
        assert jarzynski_ratio_check(trivial, s)

    def test_perturbed_reservoir_fails(self):
        p = make_state(("3/4", "1/4"), (1, 1))
        res = minimal_extraction_reservoir(p)
        bad = Reservoir(
            res.r,
            res.init_weights,
            (res.fin_weights[0] * F(101, 100),) + res.fin_weights[1:],
        )
        assert not jarzynski_ratio_check(bad, p)


class TestHelpers:
    def test_shannon_entropy(self):
        assert abs(shannon_entropy((F(1, 2), F(1, 2))) - math.log(2)) <= 1e-15
        assert shannon_entropy((F(1), F(0))) == 0.0

    def test_pure_state_entropy_is_positive_zero(self):
        assert math.copysign(1.0, shannon_entropy((F(1), F(0)))) == 1.0

    def test_ln_frac_rejects_non_positive(self):
        with pytest.raises(OutsideDomain, match="ln of non-positive rational 0"):
            ln_frac(F(0))
        assert issubclass(OutsideDomain, ThermomajorError)
        assert issubclass(OutsideDomain, ValueError)

    def test_ln_frac_handles_huge_rationals(self):
        big = F(10**400, 3)
        assert abs(ln_frac(big) - (400 * math.log(10) - math.log(3))) <= 1e-9

    def test_d0_support_mass_exact(self):
        p = make_state(("1/2", "1/2", 0), (1, 1, 1))
        tau = gibbs_of(p)
        assert d0_support_mass(p, tau) == F(2, 3)
        assert abs(renyi(0.0, p, tau) + math.log(2 / 3)) <= 1e-15

    def test_int_entries_give_an_exact_max_ratio(self):
        # Plain ints, which ThermoState accepts, divide exactly: no float ratio.
        p = ThermoState((1, 0), (1, 1))
        ratio = dinf_max_ratio(p, p)
        assert ratio == 1 and type(ratio) is F

    def test_int_entries_at_order_infinity(self):
        p = ThermoState((1, 0), (1, 1))
        assert renyi(math.inf, p, p) == 0.0


def decimal_ln(x):
    """ln of a positive rational from 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(x.numerator) / Decimal(x.denominator)).ln()


class TestLnNearOne:
    """ln_frac of a rational near 1 is taken from log1p of the exact
    difference, so the quantities read through it keep their relative
    accuracy where log(num) - log(den) cancels."""

    @staticmethod
    def assert_close(value, expected):
        assert abs(Decimal(value) - expected) <= Decimal(1e-15) * abs(expected)

    def test_dinf_of_a_nudged_gibbs_state(self):
        nudge = F(1, 10**9)
        p = make_state((F(1, 6) + nudge, F(1, 3) - nudge, F(1, 2)), (1, 2, 3))
        expected = decimal_ln(1 + 6 * nudge)
        self.assert_close(renyi(math.inf, p, gibbs_of(p)), expected)
        self.assert_close(curve_alpha_divergence(curve_of(p), math.inf), expected)

    def test_d0_with_a_tiny_unoccupied_weight(self):
        p = make_state((1, 0), (1, F(1, 10**12)))
        expected = decimal_ln(1 + F(1, 10**12))
        self.assert_close(renyi(0.0, p, gibbs_of(p)), expected)
        self.assert_close(curve_alpha_divergence(curve_of(p), 0.0), expected)

    def test_entropy_of_a_nearly_pure_state(self):
        tiny = F(1, 10**12)
        probs = (1 - tiny, tiny)
        with localcontext() as ctx:
            ctx.prec = 50
            expected = -sum(
                (Decimal(x.numerator) / Decimal(x.denominator)) * decimal_ln(x) for x in probs
            )
        self.assert_close(shannon_entropy(probs), expected)

    def test_free_energy_with_a_partition_function_near_one(self):
        s = gibbs_of(make_state((1, 0), (1, F(1, 10**12))))
        expected = -decimal_ln(1 + F(1, 10**12))
        for alpha in DEFAULT_ALPHA_GRID:
            self.assert_close(alpha_free_energy(alpha, s), expected)


class TestOneTermListPerPair:
    """Each multi-order caller reads its pair (or curve) once into one term
    list: no per-order entry point runs, and each term's log is taken once."""

    @staticmethod
    def transitions():
        rng = seeded(61)
        huge = make_state(("1/2", "1/2"), (1, F(1, 10**200)))
        out = [random_transition(rng, rng.randint(1, 6)) for _ in range(30)]
        return out + [Transition(huge, gibbs_of(huge))]

    @staticmethod
    def results(t):
        return (
            cto_feasible(t),
            cto_feasible(t, nonnegative_only=True),
            coincide_iff_alpha_equal(t.initial, t.final),
            alpha_profile(t.initial),
            alpha_profile(t.initial, t.final),
        )

    @staticmethod
    def logged(monkeypatch):
        """The (num, den) of every ``_ln_ratio`` call from here on."""
        calls = []
        ln_ratio = divergences._ln_ratio

        def counted(num, den):
            calls.append((num, den))
            return ln_ratio(num, den)

        monkeypatch.setattr(divergences, "_ln_ratio", counted)
        return calls

    def test_no_per_order_function_is_called(self, monkeypatch):
        expected = [self.results(t) for t in self.transitions()]

        def refuse(*args):
            raise AssertionError("a multi-order caller read its pair per order")

        for name in ("renyi", "d0_support_mass", "dinf_max_ratio"):
            monkeypatch.setattr(divergences, name, refuse)
        assert [self.results(t) for t in self.transitions()] == expected

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_each_term_is_logged_once(self, monkeypatch, n):
        rng = seeded(62 + n)
        p = random_full_support_state(rng, n)
        q = make_state(random_full_support_state(rng, n).probs, p.weights)
        t = Transition(p, q)
        calls = self.logged(monkeypatch)
        # Every term of both lists once, and one log per exact rational at
        # alpha = 0 and inf (coincide stops at the first unequal order, so it
        # compares p with itself to run the whole grid).
        for check, expected in (
            (lambda: cto_feasible(t), 2 * n + 4),
            (lambda: cto_feasible(t, nonnegative_only=True), 2 * n + 4),
            (lambda: coincide_iff_alpha_equal(p, p), 2 * n + 4),
            (lambda: alpha_profile(p), n + 2),
        ):
            calls.clear()
            check()
            assert len(calls) == expected

    def test_one_term_list_per_state(self, monkeypatch):
        t = self.transitions()[0]
        built = []
        init = divergences._Terms.__init__

        def counted(self, p, q):
            built.append((p, q))
            init(self, p, q)

        monkeypatch.setattr(divergences._Terms, "__init__", counted)
        cto_feasible(t)
        assert built == [(t.initial, gibbs_of(t.initial)), (t.final, gibbs_of(t.initial))]

    def test_each_curve_term_is_logged_once(self, monkeypatch):
        p = make_state(("1/2", "1/3", "1/6"), (1, 2, 3))
        res = minimal_extraction_reservoir(p)
        work = res.work_transition()
        segments = sum(len(curve_of(s).segments) for s in (p, work.initial, work.final))
        calls = self.logged(monkeypatch)
        assert jarzynski_ratio_check(res, p)
        # Three curves, one log per segment, and one per exact rational at
        # alpha = 0 and inf for each curve.
        assert len(calls) == segments + 6
