"""Catalytic feasibility checks and the catalyst-elimination results."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thermomajor.catalysis import cto_feasible
from thermomajor.curves import coincide, curve_of, divide
from thermomajor.divergences import DEFAULT_ALPHA_GRID, _Terms, renyi
from thermomajor.errors import InvalidOrder, ThermomajorError
from thermomajor.oracle import random_transition
from thermomajor.reservoirs import joint_states, minimal_extraction_reservoir
from thermomajor.states import ThermoState, Transition, gibbs_of, make_state, tensor

from conftest import alpha_equal, family_states, random_full_support_state, random_state, seeded

F = Fraction


def coincident_joint_pair(rng, dim=3):
    """A pair of distinct states sharing one curve, built from a reservoir joint."""
    while True:
        p = random_state(rng, dim)
        if p != gibbs_of(p):
            break
    res = minimal_extraction_reservoir(p)
    t = Transition(p, gibbs_of(p))
    return joint_states(t, res)


def near_tie_pair():
    """Two states whose D_0 differ by about 5e-15 nats, below any float tolerance.

    Moving a mass of 1e-20 between two levels of tiny weight changes only the
    tau-mass of the support; the exact D_0 rationals still tell them apart.
    """
    weights = (1, 1, F(1, 10**14), F(2, 10**14))
    half, tiny = F(1, 2), F(1, 10**20)
    p = ThermoState((half, half - tiny, 0, tiny), weights)
    q = ThermoState((half, half - tiny, tiny, 0), weights)
    return p, q


@st.composite
def catalytic_systems(draw, kind):
    """(system initial, system final, catalyst) states of one family: a
    ``coincident`` system pair is a zero-dissipation joint, a ``product``
    pair two arbitrary states."""
    palette = draw(st.booleans())
    sys = draw(family_states(draw(st.integers(1, 3)), palette))
    catalyst = draw(family_states(draw(st.integers(1, 3)), palette))
    if kind == "coincident" and sys != gibbs_of(sys):
        t = Transition(sys, gibbs_of(sys))
        return (*joint_states(t, minimal_extraction_reservoir(sys)), catalyst)
    return sys, draw(family_states(sys.dim, palette, sys.weights)), catalyst


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

    @pytest.mark.parametrize(
        "grid, nonnegative_only", [((), False), ((), True), ((-1.0, -2.0), True)]
    )
    def test_empty_grid_is_no_verdict(self, grid, nonnegative_only):
        # Equilibrium to non-equilibrium: no catalytic operation does it, so a
        # grid with no order left must not come back feasible.
        s = make_state(("1/2", "1/4", "1/4"), (2, 1, 1))
        with pytest.raises(InvalidOrder, match="alpha grid is empty"):
            cto_feasible(Transition(gibbs_of(s), s), grid, nonnegative_only=nonnegative_only)

    def test_exact_d0_rejection_below_float_resolution(self):
        p, q = near_tie_pair()
        verdict = cto_feasible(Transition(p, q))
        assert verdict.feasible is False
        by_alpha = {alpha: (di, df) for alpha, di, df in verdict.witnessed}
        d_init, d_fin = by_alpha[0.0]
        assert abs(d_fin - d_init) < 1e-12


class TestStripCatalyst:
    """Stripping a catalyst is dividing its curve out of the joint curve, so
    a catalyst is useless in the zero-dissipation regime."""

    def test_coincident_systems_with_any_catalyst(self):
        rng = seeded(43)
        systems = coincident_joint_pair(rng)
        catalyst = random_full_support_state(rng, 2)
        joints = [curve_of(tensor(s, catalyst)) for s in systems]
        assert coincide(*joints)
        assert [divide(j, curve_of(catalyst)) for j in joints] == [curve_of(s) for s in systems]

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
            joint = curve_of(tensor(sys_init, catalyst))
            assert coincide(joint, curve_of(tensor(sys_fin, catalyst)))
            assert coincide(divide(joint, curve_of(catalyst)), curve_of(sys_fin))

    def test_int_entries_factor_exactly(self):
        """Plain int weights, accepted by ThermoState, divide without floats."""
        sys = ThermoState((F(1, 2), F(1, 2)), (1, 2))
        catalyst = ThermoState((F(1, 3), F(2, 3)), (1, 1))
        assert divide(curve_of(tensor(sys, catalyst)), curve_of(catalyst)) == curve_of(sys)

    def test_dissipative_joint_rejected(self):
        sys_init = make_state(("1/2", "1/2"), (1, 1))
        sys_fin = make_state(("1/3", "2/3"), (1, 1))
        catalyst = make_state(("1/4", "3/4"), (1, 1))
        joints = [curve_of(tensor(s, catalyst)) for s in (sys_init, sys_fin)]
        assert not coincide(*joints)
        assert not coincide(curve_of(sys_init), curve_of(sys_fin))

    @pytest.mark.parametrize("kind", ["coincident", "product"])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_catalyst_cancels(self, kind, data):
        """Joint curves coincide exactly when the system curves do, and
        dividing out the catalyst's curve returns each system curve."""
        *systems, catalyst = data.draw(catalytic_systems(kind))
        curves = [curve_of(s) for s in systems]
        joints = [curve_of(tensor(s, catalyst)) for s in systems]
        assert coincide(*joints) == coincide(*curves)
        assert [divide(j, curve_of(catalyst)) for j in joints] == curves


class TestCoincideIffAlphaEqual:
    def test_equal_states(self):
        s = make_state(("1/3", "2/3"), (1, 2))
        assert alpha_equal(s, s)

    def test_erasure_joint_states(self):
        system = make_state(("1/3", "2/3"), (1, 1))
        init_work = make_state(("1/3", "2/3", 0, 0), (1, 2, 3, 3))
        fin_system = make_state((1, 0), (1, 1))
        fin_work = make_state((0, 0, "1/3", "2/3"), (1, 2, 3, 3))
        a = tensor(system, init_work)
        b = tensor(fin_system, fin_work)
        assert coincide(curve_of(a), curve_of(b)) and alpha_equal(a, b)

    def test_constructed_coincident_pairs_agree_everywhere(self):
        rng = seeded(46)
        for _ in range(25):
            a, b = coincident_joint_pair(rng, dim=rng.randint(2, 3))
            assert coincide(curve_of(a), curve_of(b)) and alpha_equal(a, b)

    def test_d0_separated_exactly_below_float_resolution(self):
        p, q = near_tie_pair()
        assert not coincide(curve_of(p), curve_of(q)) and not alpha_equal(p, q)

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
        assert not alpha_equal(p, q)


# ---------------------------------------------------------------------------
# Cross-check against an index-by-index restatement of the order rules,
# written without the shared comparison.
# ---------------------------------------------------------------------------


def reference_cto(t, alpha_grid, nonnegative_only):
    """(feasible, witnessed) from a three-branch rule over the grid."""
    tau = gibbs_of(t.initial)
    grid = tuple(float(a) for a in alpha_grid)
    if nonnegative_only:
        grid = tuple(a for a in grid if not -math.inf < a < 0)
    if not grid:
        suffix = " after dropping negative orders" if nonnegative_only else ""
        raise InvalidOrder("alpha grid is empty" + suffix)
    witnessed = []
    feasible = True
    for alpha in grid:
        d_init = renyi(alpha, t.initial, tau)
        d_fin = renyi(alpha, t.final, tau)
        witnessed.append((alpha, d_init, d_fin))
        if alpha == 0:
            if _Terms(t.initial, tau).mass > _Terms(t.final, tau).mass:
                feasible = False
        elif math.isinf(alpha) and alpha > 0:
            ratio_init = _Terms(t.initial, tau).ratio
            ratio_fin = _Terms(t.final, tau).ratio
            if ratio_init is not None and (ratio_fin is None or ratio_init < ratio_fin):
                feasible = False
        else:
            if math.isinf(d_init):
                continue
            if math.isinf(d_fin) or d_fin > d_init + 1e-12:
                feasible = False
    return feasible, tuple(witnessed)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except ThermomajorError as exc:
        return type(exc), str(exc)


#: Orders drawn into cto grids: the default grid, other reals, and the
#: invalid orders that must be refused the same way.
GRID_ORDERS = DEFAULT_ALPHA_GRID + (-0.0, 0.75, 3.0, -3.0, math.nan, -math.inf)


class TestMatchesReferenceRules:
    @pytest.mark.parametrize("palette", [False, True], ids=["generic", "palette"])
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_cto_feasible(self, palette, data):
        dim = data.draw(st.integers(1, 6))
        initial = data.draw(family_states(dim, palette))
        t = Transition(initial, data.draw(family_states(dim, palette, initial.weights)))
        grid = data.draw(
            st.one_of(st.just(DEFAULT_ALPHA_GRID), st.lists(st.sampled_from(GRID_ORDERS), max_size=8))
        )
        for nonnegative_only in (False, True):
            got = outcome(cto_feasible, t, grid, nonnegative_only)
            if got[0] == "returned":
                got = "returned", (got[1].feasible, got[1].witnessed)
            assert got == outcome(reference_cto, t, grid, nonnegative_only)
