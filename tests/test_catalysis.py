"""Catalytic feasibility checks and the catalyst-elimination results."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thermomajor.catalysis import (
    coincide_iff_alpha_equal,
    cto_feasible,
    strip_catalyst,
)
from thermomajor.curves import coincide, curve_of, divide
from thermomajor.divergences import DEFAULT_ALPHA_GRID, d0_support_mass, dinf_max_ratio, renyi
from thermomajor.errors import (
    CatalystMarginalMismatch,
    CurvesDiffer,
    DimensionMismatch,
    NotProductState,
    ThermomajorError,
)
from thermomajor.oracle import random_transition
from thermomajor.reservoirs import joint_states, minimal_extraction_reservoir
from thermomajor.states import (
    ThermoState,
    Transition,
    gibbs_of,
    is_gibbs,
    make_state,
    tensor,
)

from conftest import family_states, random_full_support_state, random_state, seeded

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

    def test_exact_d0_rejection_below_float_resolution(self):
        p, q = near_tie_pair()
        verdict = cto_feasible(Transition(p, q))
        assert verdict.feasible is False
        by_alpha = {alpha: (di, df) for alpha, di, df in verdict.witnessed}
        d_init, d_fin = by_alpha[0.0]
        assert abs(d_fin - d_init) < 1e-12


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

    def test_int_entries_factor_exactly(self):
        """Plain int weights, accepted by ThermoState, split without floats."""
        sys = ThermoState((F(1, 2), F(1, 2)), (1, 2))
        catalyst = ThermoState((F(1, 3), F(2, 3)), (1, 1))
        joint = tensor(sys, catalyst)
        assert strip_catalyst(joint, joint, catalyst.dim)

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

    def test_d0_separated_exactly_below_float_resolution(self):
        p, q = near_tie_pair()
        assert coincide_iff_alpha_equal(p, q) == (False, False)

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


# ---------------------------------------------------------------------------
# Cross-check against index-by-index restatements of the order rules and of
# the product factoring, written without the shared comparison or tensor.
# ---------------------------------------------------------------------------


def reference_cto(t, alpha_grid, nonnegative_only):
    """(feasible, witnessed) from a three-branch rule over the grid."""
    tau = gibbs_of(t.initial)
    grid = tuple(float(a) for a in alpha_grid)
    if nonnegative_only:
        grid = tuple(a for a in grid if not -math.inf < a < 0)
    witnessed = []
    feasible = True
    for alpha in grid:
        d_init = renyi(alpha, t.initial, tau)
        d_fin = renyi(alpha, t.final, tau)
        witnessed.append((alpha, d_init, d_fin))
        if alpha == 0:
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
    return feasible, tuple(witnessed)


def reference_factor(state, catalyst_dim):
    """(system, catalyst) marginals of a system-major joint, cell by cell."""
    n_total = state.dim
    if catalyst_dim < 1 or n_total % catalyst_dim != 0:
        raise DimensionMismatch(
            f"joint dimension {n_total} not divisible by catalyst dimension {catalyst_dim}"
        )
    n_sys = n_total // catalyst_dim

    def cell(s, k):
        return s * catalyst_dim + k

    sys_probs = tuple(
        sum((state.probs[cell(s, k)] for k in range(catalyst_dim)), F(0)) for s in range(n_sys)
    )
    cat_probs = tuple(
        sum((state.probs[cell(s, k)] for s in range(n_sys)), F(0)) for k in range(catalyst_dim)
    )
    for s in range(n_sys):
        for k in range(catalyst_dim):
            if state.probs[cell(s, k)] != sys_probs[s] * cat_probs[k]:
                raise NotProductState(f"probability at joint level ({s}, {k}) does not factor")
    cat_weights = tuple(state.weights[cell(0, k)] for k in range(catalyst_dim))
    sys_weights = tuple(state.weights[cell(s, 0)] / cat_weights[0] for s in range(n_sys))
    for s in range(n_sys):
        for k in range(catalyst_dim):
            if state.weights[cell(s, k)] != sys_weights[s] * cat_weights[k]:
                raise NotProductState(f"weight at joint level ({s}, {k}) does not factor")
    return ThermoState(sys_probs, sys_weights), ThermoState(cat_probs, cat_weights)


def reference_strip(joint_init, joint_fin, catalyst_dim):
    if joint_init.weights != joint_fin.weights:
        raise DimensionMismatch("joint states must share the same weights")
    sys_init, cat_init = reference_factor(joint_init, catalyst_dim)
    sys_fin, cat_fin = reference_factor(joint_fin, catalyst_dim)
    if cat_init.probs != cat_fin.probs or cat_init.weights != cat_fin.weights:
        raise CatalystMarginalMismatch("catalyst marginal changed across the transition")
    if not coincide(curve_of(joint_init), curve_of(joint_fin)):
        raise CurvesDiffer(
            "joint curves do not coincide; strip_catalyst only applies in the "
            "zero-dissipation regime"
        )
    return coincide(curve_of(sys_init), curve_of(sys_fin))


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except ThermomajorError as exc:
        return type(exc), str(exc)


#: Orders drawn into cto grids: the default grid, other reals, and the
#: invalid orders that must be refused the same way.
GRID_ORDERS = DEFAULT_ALPHA_GRID + (-0.0, 0.75, 3.0, -3.0, math.nan, -math.inf)


@st.composite
def catalytic_joints(draw, kind):
    """(joint_init, joint_fin, catalyst_dim) for one branch of strip_catalyst.

    ``coincident`` and ``product`` tensor one catalyst onto zero-dissipation
    and arbitrary system pairs, ``mismatch`` changes the catalyst marginal,
    ``perturbed`` breaks the product in the probabilities, the weights or
    both, and ``dimension`` draws a catalyst dimension that may not divide.
    """
    palette = draw(st.booleans())
    sys = draw(family_states(draw(st.integers(1, 3)), palette))
    catalyst = draw(family_states(draw(st.integers(1, 3)), palette))
    if kind == "coincident" and not is_gibbs(sys):
        sys_init, sys_fin = joint_states(
            Transition(sys, gibbs_of(sys)), minimal_extraction_reservoir(sys)
        )
    else:
        sys_init, sys_fin = sys, draw(family_states(sys.dim, palette, sys.weights))
    cat_fin = catalyst
    if kind == "mismatch":
        cat_fin = draw(family_states(catalyst.dim, palette, catalyst.weights))
    joint_init, joint_fin = tensor(sys_init, catalyst), tensor(sys_fin, cat_fin)
    catalyst_dim = catalyst.dim
    if kind == "perturbed":
        probs, weights = joint_init.probs, joint_init.weights
        broken = draw(st.sampled_from(["probs", "weights", "both"]))
        if broken != "weights":
            # Mix in a point mass: still a distribution, rarely a product.
            level, mix = draw(st.integers(0, joint_init.dim - 1)), F(1, draw(st.integers(2, 9)))
            probs = tuple((1 - mix) * x + (mix if i == level else 0) for i, x in enumerate(probs))
        if broken != "probs":
            level = draw(st.integers(0, joint_init.dim - 1))
            weights = tuple(w * 2 if i == level else w for i, w in enumerate(weights))
        joint_init = ThermoState(probs, weights)
        joint_fin = ThermoState(joint_fin.probs, weights)
    elif kind == "dimension":
        catalyst_dim = draw(st.integers(-1, joint_init.dim + 1))
    return joint_init, joint_fin, catalyst_dim


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

    @pytest.mark.parametrize("kind", ["coincident", "product", "mismatch", "perturbed", "dimension"])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_strip_catalyst(self, kind, data):
        case = data.draw(catalytic_joints(kind))
        assert outcome(strip_catalyst, *case) == outcome(reference_strip, *case)
