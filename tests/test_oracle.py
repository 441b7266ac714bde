"""LP feasibility oracle vs the exact curve criterion."""

import re
from fractions import Fraction

import pytest

from thermomajor.curves import coincide, curve_of, majorizes
from thermomajor.divergences import entropy_production
from thermomajor.errors import (
    DimensionCapExceeded, DimensionMismatch, NonPositiveWeight, ParseError
)
from thermomajor.oracle import (
    lp_feasible,
    random_rational_gibbs_matrix,
    random_transition,
    recovery_map,
)
from thermomajor.states import Transition, gibbs_of, make_state

from conftest import apply, is_gibbs_stochastic, random_state, run_python, seeded

F = Fraction


class TestLpFeasible:
    def test_uniform_cannot_be_purified(self):
        t = Transition(
            make_state(("1/2", "1/2"), (1, 1)), make_state((1, 0), (1, 1))
        )
        feasible, witness = lp_feasible(t)
        assert not feasible
        assert witness is None

    def test_anything_reaches_gibbs(self):
        rng = seeded(51)
        for _ in range(20):
            p = random_state(rng, rng.randint(2, 5))
            t = Transition(p, gibbs_of(p))
            feasible, witness = lp_feasible(t)
            assert feasible
            assert is_gibbs_stochastic(witness, t.weights)
            assert apply(witness, p.probs) == t.final.probs

    def test_dimension_cap(self):
        p = make_state((1,) + (0,) * 8, (1,) * 9)
        with pytest.raises(DimensionCapExceeded):
            lp_feasible(Transition(p, p))

    def test_agreement_with_curve_criterion(self):
        rng = seeded(52)
        for _ in range(150):
            t = random_transition(rng, rng.randint(2, 5))
            curve_verdict = majorizes(curve_of(t.initial), curve_of(t.final))
            lp_verdict, witness = lp_feasible(t)
            assert curve_verdict == lp_verdict
            if lp_verdict:
                assert is_gibbs_stochastic(witness, t.weights)
                assert apply(witness, t.initial.probs) == t.final.probs
                # feasible transitions never consume free energy for free
                assert entropy_production(t) >= -1e-9

    def test_every_pair_of_sixths_on_three_levels(self):
        """A small world, exhaustively: every pair of 3-level states with
        masses in sixths on weights (1, 2, 3), 784 pairs."""
        states = [
            make_state((F(i, 6), F(j, 6), F(6 - i - j, 6)), (1, 2, 3))
            for i in range(7)
            for j in range(7 - i)
        ]
        agreed = [
            majorizes(curve_of(p), curve_of(q)) == lp_feasible(Transition(p, q))[0]
            for p in states
            for q in states
        ]
        assert len(agreed) == 784 and all(agreed)


class TestRecoveryMap:
    def test_identity_maps_to_identity(self):
        identity = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
        assert recovery_map(identity, (F(5), F(3), F(2))) == identity

    @pytest.mark.parametrize(
        "matrix, weights, bad",
        [
            (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (0.1, 0.2), "0.1"),
            (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (True, 2), "True"),
            (((0.5, 0.5), (0.5, 0.5)), (1, 2), "0.5"),
            (((1, 0), ("1", 1)), (1, 2), "'1'"),
        ],
        ids=["float-weights", "bool-weight", "float-entries", "string-entry"],
    )
    def test_rejects_non_rational_entries(self, matrix, weights, bad):
        with pytest.raises(ParseError, match=f"^not a rational: {re.escape(bad)}$"):
            recovery_map(matrix, weights)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(NonPositiveWeight, match="weights must be strictly positive"):
            recovery_map(((1, 0), (0, 1)), (1, 0))

    def test_int_entries_stay_exact(self):
        swap = ((0, 1), (1, 0))
        assert recovery_map(swap, (1, 2)) == ((0, F(1, 2)), (2, 0))
        assert all(type(x) is F for row in recovery_map(swap, (1, 2)) for x in row)

    def test_preserves_gibbs_distribution(self):
        rng = seeded(53)
        for _ in range(25):
            weights = random_state(rng, rng.randint(2, 5)).weights
            g = random_rational_gibbs_matrix(weights, rng)
            assert is_gibbs_stochastic(recovery_map(g, weights), weights)

    def test_zero_dissipation_erasure_recovers_input(self):
        # Joint uniform erasure with the matched two-level reservoir: the LP
        # witness has zero entropy production, so the reversal map undoes it.
        joint_init = make_state(("1/2", 0, "1/2", 0), (1, 2, 1, 2))
        joint_fin = make_state((0, 1, 0, 0), (1, 2, 1, 2))
        t = Transition(joint_init, joint_fin)
        assert abs(entropy_production(t)) <= 1e-12
        feasible, witness = lp_feasible(t)
        assert feasible
        recovered = apply(recovery_map(witness, t.weights), joint_fin.probs)
        assert recovered == joint_init.probs

    def test_recovery_on_measured_zero_dissipation_witnesses(self):
        rng = seeded(54)
        hits = 0
        for _ in range(60):
            t = random_transition(rng, rng.randint(2, 4), feasible_bias=1.0)
            if not coincide(curve_of(t.initial), curve_of(t.final)):
                continue
            feasible, witness = lp_feasible(t)
            assert feasible
            recovered = apply(recovery_map(witness, t.weights), t.final.probs)
            assert recovered == t.initial.probs
            hits += 1
        assert hits > 0


class TestRandomGibbsMap:
    def test_data_processing_spot_check(self):
        rng = seeded(55)
        for seed in range(30):
            dim = rng.randint(2, 4)
            p = random_state(rng, dim)
            weights = p.weights
            matrix = random_rational_gibbs_matrix(weights, rng)
            t = Transition(p, make_state(apply(matrix, p.probs), weights))
            assert entropy_production(t) >= -1e-9

    def test_rational_matrix_is_gibbs_stochastic(self):
        rng = seeded(56)
        for _ in range(30):
            dim = rng.randint(2, 5)
            weights = random_state(rng, dim).weights
            assert is_gibbs_stochastic(random_rational_gibbs_matrix(weights, rng), weights)


def test_random_state_rejects_empty_dimension():
    with pytest.raises(DimensionMismatch):
        random_state(seeded(0), 0)


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import thermomajor.cli
roots = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(roots - set(sys.stdlib_module_names) - {"thermomajor"}))
"""


def test_cli_imports_only_the_standard_library():
    proc = run_python("-c", IMPORT_PROBE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
