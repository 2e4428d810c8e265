from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from framerisk import (
    CostParameters,
    DamageScenario,
    DesignFactors,
    FrameGeometry,
    RiskModel,
    bending_collapse_cost,
    construction_cost,
    initial_damage_cost,
    local_pancake_cost,
    reference_cost,
    unit_beam_cost,
    unit_column_cost,
)

UNIT = DesignFactors(1.0, 1.0)


class TestReferenceCost:
    def test_reference_frame(self):
        assert reference_cost(FrameGeometry(8, 9, 6.0, 3.0)) == pytest.approx(600.0)

    def test_single_bay(self):
        assert reference_cost(FrameGeometry(1, 2, 1.0, 1.0)) == pytest.approx(3.0)

    def test_homogeneous_in_lengths(self):
        g = FrameGeometry(5, 7, 4.0, 2.5)
        g2 = FrameGeometry(5, 7, 8.0, 5.0)
        assert reference_cost(g2) == pytest.approx(2.0 * reference_cost(g), rel=1e-12)


class TestUnitCosts:
    def test_beam_reference_value(self, ref_design):
        c = CostParameters()
        assert unit_beam_cost(1.0, c, ref_design.b_sf, 8) == pytest.approx(9.49, abs=1e-3)

    def test_column_reference_value(self, ref_design):
        c = CostParameters()
        assert unit_column_cost(1.0, c, ref_design.r_sf, 8) == pytest.approx(8.2143359, abs=1e-6)

    def test_no_strengthening_counts_stories(self, ref_design):
        c = CostParameters(n_reinf_s=0)
        assert unit_beam_cost(1.7, c, ref_design.b_sf, 8) == pytest.approx(8.0)

    def test_free_steel(self, ref_design):
        c = CostParameters(alpha_b=0.0)
        assert unit_beam_cost(3.0, c, ref_design.b_sf, 8) == pytest.approx(8.0)

    def test_identity_strengthening(self):
        c = CostParameters(alpha_c=1.0, n_reinf_s=8)
        assert unit_column_cost(1.0, c, 1.0, 8) == pytest.approx(8.0)

    def test_affine_in_factor(self, ref_design):
        c = CostParameters()
        base = unit_column_cost(1.0, c, ref_design.r_sf, 8)
        double = unit_column_cost(2.0, c, ref_design.r_sf, 8)
        steel_share = c.n_reinf_s * c.alpha_c * ref_design.r_sf
        assert double - base == pytest.approx(steel_share, rel=1e-12)


class TestConstructionCost:
    def test_strengthened_reference(self, ref_scenario, ref_design):
        assert construction_cost(ref_scenario, ref_design, UNIT) == pytest.approx(1.129, abs=0.003)

    def test_normalization(self, ref_scenario, ref_design):
        bare = replace(ref_scenario, costs=CostParameters(n_reinf_s=0))
        assert construction_cost(bare, ref_design, UNIT) == pytest.approx(1.0, rel=1e-12)

    def test_optimized_point_value(self, ref_scenario, ref_design):
        # frozen from direct evaluation of the unit-cost expressions
        got = construction_cost(ref_scenario, ref_design, DesignFactors(0.9, 1.3))
        assert got == pytest.approx(1.12751865234375, rel=1e-10)

    def test_strictly_increasing_in_factors(self, ref_scenario, ref_design):
        rng = np.random.default_rng(43)
        for _ in range(100):
            lb, lc = rng.uniform(0.05, 4.0, size=2)
            base = construction_cost(ref_scenario, ref_design, DesignFactors(lb, lc))
            up_b = construction_cost(ref_scenario, ref_design, DesignFactors(lb + 1e-3, lc))
            up_c = construction_cost(ref_scenario, ref_design, DesignFactors(lb, lc + 1e-3))
            assert up_b > base
            assert up_c > base


class TestInitialDamageCost:
    def test_reference(self, ref_scenario):
        assert initial_damage_cost(ref_scenario) == pytest.approx(0.025, rel=1e-12)

    def test_no_damage(self, ref_scenario):
        scn = replace(ref_scenario, damage=DamageScenario(0, 0))
        assert initial_damage_cost(scn) == 0.0

    def test_column_only(self, ref_scenario):
        scn = replace(ref_scenario, damage=DamageScenario(1, 0))
        g = scn.geometry
        assert initial_damage_cost(scn) == pytest.approx(g.H / reference_cost(g), rel=1e-12)


class TestFailureCosts:
    def test_bending_saturates_at_frame_width(self, ref_scenario, ref_design):
        wide = bending_collapse_cost(ref_scenario, ref_design, 50)
        at_edge = bending_collapse_cost(ref_scenario, ref_design, ref_scenario.geometry.n_c)
        assert wide == pytest.approx(at_edge, rel=1e-12)

    def test_zero_multiplier(self, ref_scenario, ref_design):
        scn = replace(ref_scenario, costs=replace(ref_scenario.costs, k_ductile=1e-300))
        assert bending_collapse_cost(scn, ref_design, 1) == pytest.approx(0.0, abs=1e-290)

    def test_local_pancake_saturates_to_global(self, ref_scenario, ref_design):
        # once the min operators hit the frame edges the local cost equals
        # the global collapse cost exactly
        n_c = ref_scenario.geometry.n_c
        c_pg = RiskModel(ref_scenario, ref_design).c_pg
        saturated = local_pancake_cost(ref_scenario, ref_design, n_c - 2)
        assert saturated == pytest.approx(c_pg, rel=1e-12)

    def test_mode_cost_ordering(self, ref_scenario, ref_design):
        n0 = ref_scenario.damage.n_rc0
        c_b = bending_collapse_cost(ref_scenario, ref_design, n0)
        c_pl = local_pancake_cost(ref_scenario, ref_design, n0)
        c_pg = RiskModel(ref_scenario, ref_design).c_pg
        assert c_pg > c_pl > c_b > 0

    def test_local_pancake_bounded_by_global(self, ref_scenario, ref_design):
        c_pg = RiskModel(ref_scenario, ref_design).c_pg
        for n_fc in range(1, ref_scenario.geometry.n_c):
            assert local_pancake_cost(ref_scenario, ref_design, n_fc) <= c_pg + 1e-12

    def test_reference_global_value(self, ref_scenario, ref_design):
        assert RiskModel(ref_scenario, ref_design).c_pg == pytest.approx(45.15, abs=0.15)
