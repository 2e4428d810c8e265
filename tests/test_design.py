from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from framerisk import (
    DamageScenario,
    FrameGeometry,
    Scenario,
    design_members,
    design_nlc,
    nlc_member_design,
    parse_frame_token,
    size_members,
    strengthen_apm,
    validate,
    violations,
)

# Published strengthening factors: frame token -> r_sf per damage extent.
DAMAGE_TOKENS = ("1x1", "1x0", "2x1", "3x2")
R_SF_TABLE = {
    "16x4": (1.38, 1.42, 1.98, 2.47),
    "13x5": (1.29, 1.34, 1.87, 2.29),
    "11x6": (1.24, 1.29, 1.78, 2.17),
    "8x8": (1.15, 1.23, 1.66, 1.95),
    "6x11": (1.08, 1.17, 1.55, 1.74),
    "5x13": (1.04, 1.15, 1.48, 1.60),
    "4x16": (1.00, 1.13, 1.40, 1.40),
}
B_SF_ROW = (2.06, 2.06, 4.13, 6.19)


def scenario_for(frame: str, damage: str) -> Scenario:
    n_rc0, n_rs0 = (int(t) for t in damage.split("x"))
    return validate(
        Scenario(geometry=parse_frame_token(frame), damage=DamageScenario(n_rc0, n_rs0))
    )


def test_reference_sizing(ref_scenario):
    d = design_members(ref_scenario)
    assert d.b_y_nlc == pytest.approx(7.41, abs=0.05)
    assert d.r_c_nlc == pytest.approx(140.55, abs=0.05)
    assert d.b_y_0 == pytest.approx(15.3, abs=0.05)
    assert d.r_c_0 == pytest.approx(162.1, abs=0.05)


def test_tall_frame_column_requirement():
    geom = parse_frame_token("16x4")
    _, r_c = design_nlc(geom, Scenario().loads, 0.85)
    assert r_c == pytest.approx(252.9882353, abs=1e-3)


def test_strengthening_factor_table():
    for frame, expected_row in R_SF_TABLE.items():
        for damage, expected in zip(DAMAGE_TOKENS, expected_row):
            d = design_members(scenario_for(frame, damage))
            assert d.r_sf == pytest.approx(expected, abs=0.01), (frame, damage)


def test_beam_factor_row_geometry_independent():
    for damage, expected in zip(DAMAGE_TOKENS, B_SF_ROW):
        values = [design_members(scenario_for(frame, damage)).b_sf for frame in R_SF_TABLE]
        assert max(values) - min(values) < 1e-12
        assert values[0] == pytest.approx(expected, abs=0.01)


def test_low_frame_column_floor_binds():
    d = design_members(scenario_for("4x16", "1x1"))
    assert d.r_c_0 == pytest.approx(d.r_c_nlc, rel=1e-12)
    assert d.r_sf == pytest.approx(1.00, abs=1e-9)


def test_column_factor_never_below_one():
    rng = np.random.default_rng(31)
    for _ in range(200):
        geom = FrameGeometry(
            int(rng.integers(1, 30)), int(rng.integers(3, 25)),
            float(rng.uniform(3, 10)), float(rng.uniform(2, 5)),
        )
        damage = DamageScenario(int(rng.integers(1, min(4, geom.n_c - 1))), int(rng.integers(0, 3)))
        scn = Scenario(geometry=geom, damage=damage)
        if violations(scn):  # n_rs0 or the two strengthened stories above n_s
            continue
        d = design_members(scn)
        assert d.r_sf >= 1.0 - 1e-12


def test_factors_are_ratios(ref_scenario):
    # size_members divides the capacities it sizes; design_members adds only a warning
    d = size_members(ref_scenario)
    assert d.b_sf == d.b_y_0 / d.b_y_nlc
    assert d.r_sf == d.r_c_0 / d.r_c_nlc
    assert design_members(ref_scenario) == d


def test_no_initial_damage_is_a_domain_error(ref_scenario):
    for n_rc0 in (0, 8, math.nan, math.inf, -math.inf):  # n_c - 2 = 7 on the reference frame
        with pytest.raises(ValueError, match="n_rc0 must be in"):
            strengthen_apm(
                ref_scenario.geometry, ref_scenario.loads, DamageScenario(n_rc0, 0), 1.0, 140.55
            )


def test_weak_removal_combo_warns():
    # The removal condition has no floor against normal-condition beam
    # strength; a low phi_nlc makes the removal requirement undershoot it
    # (b_y_0 = 15.3 kNm against b_y_nlc = 31.5 kNm), which must be flagged.
    with pytest.warns(UserWarning, match="below the normal-condition"):
        d = design_members(validate(Scenario(phi_nlc=0.2)))
    assert d.b_y_0 == pytest.approx(15.3)
    assert d.b_y_nlc == pytest.approx(31.5)


def test_nlc_member_design(ref_scenario):
    d = nlc_member_design(ref_scenario)
    assert d.b_y_0 == d.b_y_nlc
    assert d.r_c_0 == d.r_c_nlc
    assert d.b_sf == d.r_sf == 1.0


def test_phi_bounds(ref_scenario):
    g, loads = ref_scenario.geometry, ref_scenario.loads
    for phi in (0.0, 1.2, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi must be in"):
            design_nlc(g, loads, phi)
        with pytest.raises(ValueError, match="phi must be in"):
            strengthen_apm(g, loads, ref_scenario.damage, phi, 140.55)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_sizing_arguments_out_of_range_are_value_errors(ref_scenario, bad):
    # max(r_c_nlc, nan) keeps r_c_nlc, so a NaN n_rs0 once sized the columns silently
    g, loads, damage = ref_scenario.geometry, ref_scenario.loads, ref_scenario.damage
    with pytest.raises(ValueError, match="r_c_nlc must be in"):
        strengthen_apm(g, loads, damage, 1.0, bad)
    with pytest.raises(ValueError, match="n_rs0 must be in"):
        strengthen_apm(g, loads, DamageScenario(1, bad), 1.0, 140.55)
    for name in ("d_n", "l_n"):
        bad_loads = replace(loads, **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be in"):
            design_nlc(g, bad_loads, 1.0)
        with pytest.raises(ValueError, match=f"{name} must be in"):
            strengthen_apm(g, bad_loads, damage, 1.0, 140.55)


def test_sizing_arguments_at_their_bounds_are_accepted(ref_scenario):
    g, loads = ref_scenario.geometry, ref_scenario.loads
    assert design_nlc(g, replace(loads, l_n=0.0), 1.0)[1] > 0.0
    for n_rs0 in (0, g.n_s):
        assert strengthen_apm(g, loads, DamageScenario(1, n_rs0), 1.0, 1e-300)[1] > 0.0
