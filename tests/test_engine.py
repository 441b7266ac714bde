"""Qubit Carnot cycle: identities, certification, and the level table."""

import math

import pytest

from thermomajor.engine import (
    EngineSpec,
    excited_population,
    reservoir_level_table,
    run_carnot,
    stage_states,
)
from thermomajor.errors import InvalidTemperatures

from conftest import seeded


class TestEngineSpec:
    def test_reference_point(self):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        report = run_carnot(spec)
        assert report.eta == 0.5
        assert abs(report.q_h - (-0.1612)) <= 5e-4
        assert abs(report.w - 0.0806) <= 5e-4
        assert report.hot_step_certified and report.cold_step_certified

    def test_equal_temperatures_null_cycle(self):
        spec = EngineSpec.from_temperatures(1.0, 1.5, 1.5)
        report = run_carnot(spec)
        assert report.w == 0.0
        assert math.copysign(1.0, report.w) == 1.0
        assert report.eta == 0.0
        assert report.q_h == 0.0 and report.q_c == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidTemperatures):
            EngineSpec.from_temperatures(1.0, 1.0, 2.0)  # cold hotter than hot
        with pytest.raises(InvalidTemperatures):
            EngineSpec.from_temperatures(-1.0, 2.0, 1.0)
        with pytest.raises(InvalidTemperatures):
            EngineSpec.from_temperatures(1.0, -2.0, 1.0)


class TestCycleIdentities:
    def test_random_specs(self):
        rng = seeded(61)
        for _ in range(30):
            epsilon = rng.uniform(0.2, 3.0)
            t_cold = rng.uniform(0.3, 2.0)
            t_hot = t_cold * rng.uniform(1.05, 4.0)
            spec = EngineSpec.from_temperatures(epsilon, t_hot, t_cold)
            report = run_carnot(spec)
            assert report.eta == 1.0 - spec.beta_h / spec.beta_c
            assert abs(spec.beta_c * report.q_c + spec.beta_h * report.q_h) <= 1e-10
            assert abs(report.w + report.q_h + report.q_c) <= 1e-12

    def test_sign_conventions(self):
        # Heat is counted into the baths: a working engine drains the hot bath
        # (q_h < 0), dumps into the cold one (q_c > 0), and outputs work.
        spec = EngineSpec.from_temperatures(1.3, 3.0, 1.0)
        report = run_carnot(spec)
        assert report.w > 0
        assert report.q_h < 0
        assert report.q_c > 0
        assert report.p_h > report.p_c

    def test_certification_gap_is_small(self):
        spec = EngineSpec.from_temperatures(0.7, 2.5, 0.9)
        report = run_carnot(spec)
        assert report.approximation_gap <= 1e-6
        assert report.hot_reservoir is not None
        assert report.cold_reservoir is not None


class TestLevelTable:
    def test_first_cell_formula(self):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        p_c = excited_population(spec.beta_c, spec.epsilon)
        p_h = excited_population(spec.beta_h, spec.epsilon)
        c1, c2 = 0.8, 1.7
        table = reservoir_level_table(spec, c1, c2)
        row = table[0]
        assert row.probability == p_c * p_h
        expected = -math.log(c1 * p_c) / spec.beta_h - math.log(c2 * p_h) / spec.beta_c
        assert row.energies[0] == expected

    @pytest.mark.parametrize("c1, c2", [(0.0, 1.0), (1.0, -1.0)])
    def test_non_positive_constant_rejected(self, c1, c2):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        with pytest.raises(InvalidTemperatures, match="level-table constants must be positive"):
            reservoir_level_table(spec, c1, c2)

    def test_probabilities_cover_all_four_cells(self):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        table = reservoir_level_table(spec)
        assert len(table) == 4
        assert abs(sum(row.probability for row in table) - 1.0) <= 1e-12

    def test_symmetric_at_equal_temperatures(self):
        spec = EngineSpec.from_temperatures(1.0, 1.2, 1.2)
        table = reservoir_level_table(spec)
        # p_c == p_h: the two mixed rows become mirror images, so the first
        # stage energies agree.
        assert abs(table[1].energies[0] - table[2].energies[0]) <= 1e-12

    def test_offset_constant_shifts_one_column(self):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        base = reservoir_level_table(spec, 1.0, 1.0)
        shifted = reservoir_level_table(spec, 2.0, 1.0)
        deltas = [
            shifted[i].energies[0] - base[i].energies[0] for i in range(4)
        ]
        assert max(deltas) - min(deltas) <= 1e-12
        # work differences between stages are untouched
        for i in range(4):
            gap_base = base[i].energies[1] - base[i].energies[0]
            gap_shift = shifted[i].energies[1] - shifted[i].energies[0]
            assert abs(gap_base - gap_shift) <= 1e-12


class TestStageStates:
    def test_four_panels(self):
        spec = EngineSpec.from_temperatures(1.0, 2.0, 1.0)
        panels = stage_states(spec)
        assert len(panels) == 4
        # panels 1 and 3 are (rationalized) equilibria: single-slope curves
        from thermomajor.curves import curve_of, num_distinct_slopes
        from thermomajor.states import gibbs_of

        assert panels[0].probs == gibbs_of(panels[0]).probs
        assert panels[2].probs == gibbs_of(panels[2]).probs
        assert num_distinct_slopes(curve_of(panels[1])) == 2
        assert num_distinct_slopes(curve_of(panels[3])) == 2
