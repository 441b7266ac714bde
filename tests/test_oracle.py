"""LP feasibility oracle vs the exact curve criterion."""

import re
from collections.abc import Sequence
from fractions import Fraction

import pytest

from thermomajor.curves import coincide, curve_of, majorizes
from thermomajor import oracle
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


# The Fraction tableau the integer one replaced, verbatim but for its name:
# every pivot divides the pivot row, so each entry is a reduced Fraction.
def reference_phase1_simplex(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Minimize the total artificial slack of {x >= 0 : Ax = b}, for b >= 0.

    Returns (objective, x); the system is feasible iff the objective is 0.
    Bland's rule (smallest eligible column; ties in the ratio test broken by
    smallest basis variable) rules out cycling, so the loop terminates.
    """
    m, n = len(a), len(a[0])
    tableau = [list(row) for row in a]
    rhs = list(b)
    # Artificial i starts basic in row i.  Its column is not stored: once it
    # leaves the basis it never needs to return, since dropping it keeps the
    # optimum 0 exactly when {x >= 0 : Ax = b} is non-empty.
    basis = list(range(n, n + m))
    # Phase-I reduced costs with the all-artificial basis.
    reduced = [-sum(column) for column in zip(*tableau)]
    while True:
        j = next((k for k, cost in enumerate(reduced) if cost < 0), None)
        if j is None:
            break
        # The Phase-I objective is bounded below by 0, so a column with a
        # negative reduced cost always has a positive entry.
        i = min(
            (r for r in range(m) if tableau[r][j] > 0),
            key=lambda r: (rhs[r] / tableau[r][j], basis[r]),
        )
        pivot_row = tableau[i]
        pivot = pivot_row[j]
        pivot_row[:] = [x / pivot if x else x for x in pivot_row]
        rhs[i] /= pivot
        support = [k for k, x in enumerate(pivot_row) if x]
        for r, row in enumerate(tableau):
            factor = row[j]
            if r != i and factor:
                for k in support:
                    row[k] -= factor * pivot_row[k]
                rhs[r] -= factor * rhs[i]
        factor = reduced[j]
        for k in support:
            reduced[k] -= factor * pivot_row[k]
        basis[i] = j
    x = [Fraction(0)] * n
    for row, var in enumerate(basis):
        if var < n:
            x[var] = rhs[row]
    objective = sum((rhs[row] for row, var in enumerate(basis) if var >= n), Fraction(0))
    return objective, x


def lp_rows(t):
    """The LP ``lp_feasible`` solves, in Fractions: column sums, G g = g and
    G p = p', with G_ij laid out row-major."""
    n = t.dim
    rows, rhs = [], []
    for j in range(n):
        rows.append([F(int(k % n == j)) for k in range(n * n)])
        rhs.append(F(1))
    for vec, image in ((t.weights, t.weights), (t.initial.probs, t.final.probs)):
        for i in range(n):
            row = [F(0)] * (n * n)
            row[i * n : (i + 1) * n] = vec
            rows.append(row)
            rhs.append(image[i])
    return rows, rhs


class TestIntegerSimplex:
    def test_matches_the_fraction_tableau(self):
        """On 320 seeded LPs, 40 at each dimension 1..8, the integer tableau
        makes the Fraction tableau's pivots: the same objective and the same
        basic solution x, so ``lp_feasible`` returns the same witness."""
        rng = seeded(57)
        verdicts = []
        for index in range(320):
            t = random_transition(rng, index % 8 + 1)
            rows, rhs = lp_rows(t)
            expected = reference_phase1_simplex(rows, rhs)
            objective, x = oracle._phase1_simplex(rows, rhs)
            assert (objective, x) == expected
            assert all(type(v) is F for v in (objective, *x))
            n = t.dim
            feasible, witness = lp_feasible(t)
            assert feasible == (expected[0] == 0)
            if feasible:
                assert witness == tuple(tuple(x[i * n : (i + 1) * n]) for i in range(n))
            verdicts.append(feasible)
        assert 60 <= sum(verdicts) <= 260  # both verdicts, many times each

    def test_rows_of_ints_and_zero_rows(self):
        """Entries may be ints; a zero row with a zero rhs is no constraint."""
        rows = [[1, 1, 0], [0, 0, 0], [F(1, 2), 0, F(1, 3)]]
        rhs = [1, 0, F(1, 6)]
        assert oracle._phase1_simplex(rows, rhs) == reference_phase1_simplex(
            [[F(x) for x in row] for row in rows], [F(x) for x in rhs]
        )


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
