from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from framerisk import (
    DAMAGE_VARIANTS,
    FRAME_CATALOG,
    BetaSet,
    CollapseMode,
    DesignFactors,
    FrameGeometry,
    RandomVarStats,
    Scenario,
    ValidationError,
    beta_damaged,
    beta_set,
    design_members,
    mechanics,
    minimize_total_cost,
    nlc_member_design,
    reliability_grid,
    unit_strengths,
    validate,
    violations,
)
from framerisk.reliability import MODE_FIELDS, _pf_float

UNIT = DesignFactors(1.0, 1.0)
OPTIMIZED = DesignFactors(0.9, 1.3)


def phi(x: float) -> float:
    """The standard normal CDF as the objective computes it, Phi(x) = pf(-x)."""
    return _pf_float(-x)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert phi(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_table_values(self):
        # frozen high-precision values of the standard normal CDF
        assert phi(-1.645) == pytest.approx(0.0499849055391214, abs=1e-4)
        assert phi(-1.96) == pytest.approx(0.0249978951482204, abs=1e-9)
        assert phi(-2.326) == pytest.approx(0.0100092753408677, abs=1e-9)
        assert phi(0.5) == pytest.approx(0.6914624612740131, abs=1e-9)
        assert phi(3.0) == pytest.approx(0.9986501019683699, abs=1e-9)

    def test_accuracy_against_independent_implementation(self):
        xs = np.linspace(-8.0, 8.0, 3203)
        worst = max(abs(phi(float(x)) - float(ndtr(x))) for x in xs)
        assert worst <= 1e-9

    def test_symmetry_sum(self):
        rng = np.random.default_rng(37)
        for x in rng.uniform(-8, 8, size=200):
            assert phi(float(x)) + phi(float(-x)) == pytest.approx(1.0, abs=1e-12)

    def test_clamped_tails(self):
        assert phi(-40.0) == 0.0
        assert phi(40.0) == 1.0


def cornell_beta(r: float, resistance: RandomVarStats, dead: RandomVarStats, live: RandomVarStats) -> float:
    """Second-moment index of R*r - D - L from the statistics themselves: the
    reference the library's index, formed from ``LoadModel.moments()``, is
    held to."""
    mean = r * resistance.mean - (dead.mean + live.mean)
    return mean / math.sqrt(r * r * resistance.std**2 + (dead.std**2 + live.std**2))


def index_at_strengths(scenario, r_beam, r_column, live):
    """``beta_set`` at unit factors for one beam and one column strength."""
    return beta_set(scenario, BetaSet(r_beam, r_column, r_column, r_beam), UNIT, live)


class TestCornellBeta:
    def test_reference_spot_values(self, ref_scenario):
        loads = ref_scenario.loads
        beam, col = loads.beam_resistance, loads.column_resistance
        assert cornell_beta(3.2941, beam, loads.dead, loads.live_50) == pytest.approx(2.76, abs=0.02)
        assert cornell_beta(1.70, beam, loads.dead, loads.live_apt) == pytest.approx(2.03, abs=0.02)
        assert cornell_beta(1.70, col, loads.dead, loads.live_apt) == pytest.approx(1.80, abs=0.02)
        assert index_at_strengths(ref_scenario, 3.2941, 1.70, "50yr").beta_b == cornell_beta(
            3.2941, beam, loads.dead, loads.live_50
        )
        at_apt = index_at_strengths(ref_scenario, 1.70, 1.70, "apt")
        assert at_apt.beta_b == cornell_beta(1.70, beam, loads.dead, loads.live_apt)
        assert at_apt.beta_pl == at_apt.beta_pg == cornell_beta(1.70, col, loads.dead, loads.live_apt)

    def test_degenerate_statistics_error(self, ref_scenario):
        # validate refuses every std zero; on a valid scenario with zero load
        # stds, a raw strength near 1e-170 squares to 0 in r*r*var_r
        zero = RandomVarStats(1.0, 0.0)
        loads = replace(ref_scenario.loads, beam_resistance=zero, column_resistance=zero, dead=zero, live_50=zero)
        with pytest.raises(ValidationError, match="must not all be zero"):
            index_at_strengths(replace(ref_scenario, loads=loads), 2.0, 2.0, "50yr")
        with pytest.raises(ValueError, match="degenerate"):
            index_at_strengths(zero_load_stds(ref_scenario), 1e-170, 1.0, "50yr")

    def test_preconditions(self, ref_scenario):
        with pytest.raises(ValueError, match="strengths must be positive"):
            index_at_strengths(ref_scenario, -1.0, 1.0, "50yr")
        with pytest.raises(ValueError, match="strengths must be positive"):
            beta_set(ref_scenario, BetaSet(1.0, 1.0, 0.0, 1.0), UNIT, "apt")
        loads = replace(ref_scenario.loads, beam_resistance=RandomVarStats(-1.0, 0.2))
        with pytest.raises(ValidationError, match=r"loads\.beam_resistance\.mean > 0 violated"):
            index_at_strengths(replace(ref_scenario, loads=loads), 1.0, 1.0, "50yr")
        with pytest.raises(ValueError, match="horizon"):
            index_at_strengths(ref_scenario, 1.0, 1.0, "10yr")


class TestBetaIntact:
    def test_strengthened_values(self, ref_scenario, ref_design):
        d = ref_design
        intact = beta_set(ref_scenario, unit_strengths(ref_scenario, d.b_y_0, d.r_c_0), UNIT, "50yr")
        assert intact.beta_pg == pytest.approx(2.85, abs=0.02)
        assert intact.beta_b == pytest.approx(4.50, abs=0.02)

    def test_local_pancake_rejected(self, ref_scenario, ref_design):
        # with no removed column there is no adjacent-column overload: the
        # intact frame has no local pancake index at either horizon
        d = ref_design
        for live in ("50yr", "apt"):
            assert beta_set(ref_scenario, unit_strengths(ref_scenario, d.b_y_0, d.r_c_0), UNIT, live).beta_pl is None


class TestBetaDamaged:
    def test_reference_values(self, ref_scenario, ref_design):
        gp = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.GLOBAL_PANCAKE)
        assert gp == pytest.approx(3.46, abs=0.02)
        pl = beta_damaged(ref_scenario, ref_design, OPTIMIZED, 1, 1, CollapseMode.LOCAL_PANCAKE)
        assert pl == pytest.approx(2.62, abs=0.02)
        cat = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.CATENARY)
        assert cat == pytest.approx(3.36, abs=0.02)

    @pytest.mark.parametrize("mode", list(CollapseMode))
    def test_no_lost_column_rejected(self, ref_scenario, ref_design, mode):
        # a damaged frame has lost a column; global pancake at n_rc = 0 would
        # be the intact frame's index under the wrong name
        with pytest.raises(ValueError, match="n_rc"):
            beta_damaged(ref_scenario, ref_design, UNIT, 0, 1, mode)

    def test_unknown_horizon_rejected(self, ref_scenario, ref_design):
        with pytest.raises(ValueError, match="horizon"):
            beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.BENDING, live="10yr")


def test_catenary_mode_uses_psi_even_when_objective_does_not(ref_scenario, ref_design):
    # the scenario excludes catenary from the cost objective, yet the
    # catenary-mode index must still reflect psi
    plain = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.BENDING)
    cat = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.CATENARY)
    assert cat > plain


def test_include_catenary_augments_bending(ref_scenario, ref_design):
    scn = replace(ref_scenario, include_catenary=True)
    plain = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.BENDING)
    augmented = beta_damaged(scn, ref_design, UNIT, 1, 1, CollapseMode.BENDING)
    cat = beta_damaged(ref_scenario, ref_design, UNIT, 1, 1, CollapseMode.CATENARY)
    assert augmented == pytest.approx(cat, rel=1e-12)
    assert augmented > plain


def test_beta_sets(ref_scenario, ref_design):
    d = ref_design
    intact = beta_set(ref_scenario, unit_strengths(ref_scenario, d.b_y_0, d.r_c_0), UNIT, "50yr")
    assert intact.beta_pl is None
    assert intact.beta_b == pytest.approx(4.50, abs=0.02)
    damaged = beta_set(ref_scenario, unit_strengths(ref_scenario, d.b_y_0, d.r_c_0, (1, 1)), UNIT, "apt")
    assert damaged.beta_pl == pytest.approx(1.80, abs=0.02)


def strength_at_factored_capacity(scn, b_y, r_c, factors, live, damage=None):
    """Each mode's index from its strength at the factored capacity, mode by
    mode: the path the unit-strength table replaces."""
    g, loads, lb, lc = scn.geometry, scn.loads, factors.lambda_b, factors.lambda_c
    live = loads.live_50 if live == "50yr" else loads.live_apt

    def beam(r):
        return cornell_beta(r, loads.beam_resistance, loads.dead, live)

    def column(r):
        return cornell_beta(r, loads.column_resistance, loads.dead, live)

    if damage is None:
        return {
            "beta_b": beam(mechanics.intact_bending_strength(g, lb * b_y, scn.bending_psi())),
            "beta_pg": column(mechanics.intact_pancake_strength(g, lc * r_c)),
            "beta_pl": None,
            "beta_cat": beam(mechanics.intact_bending_strength(g, lb * b_y, scn.psi)),
        }
    n_rc, n_rs = damage
    return {
        "beta_b": beam(mechanics.damaged_bending_strength(g, lb * b_y, n_rc, scn.bending_psi())),
        "beta_pg": column(mechanics.global_pancake_strength(g, lc * r_c, n_rc, n_rs)),
        "beta_pl": column(mechanics.local_pancake_strength(g, lc * r_c, n_rc, n_rs)),
        "beta_cat": beam(mechanics.damaged_bending_strength(g, lb * b_y, n_rc, scn.psi)),
    }


def assert_last_bits(got, want, where):
    if want is None:
        assert got in (None, ""), where
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where


@pytest.mark.parametrize("damage", DAMAGE_VARIANTS, ids=lambda d: f"{d.n_rc0}x{d.n_rs0}")
@pytest.mark.parametrize("frame", list(FRAME_CATALOG))
def test_indexes_match_strength_at_factored_capacity(frame, damage):
    # every index scales a unit-factor strength, which matches the strength at
    # the factored capacity up to the last bits; one frame also takes catenary
    # action into its bending mode
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame], damage=damage, include_catenary=frame == "8x8"))
    d = design_members(scn)
    dmg = (damage.n_rc0, damage.n_rs0)
    opt = minimize_total_cost(scn)
    for got, live, extent in ((opt.beta_intact, "50yr", None), (opt.beta_damaged, "apt", dmg)):
        want = strength_at_factored_capacity(scn, d.b_y_0, d.r_c_0, opt.factors, live, extent)
        for field, value in want.items():
            assert_last_bits(getattr(got, field), value, (live, field))
    fields = {"global_pancake": "beta_pg", "local_pancake": "beta_pl", "bending": "beta_b", "catenary": "beta_cat"}
    for factors in (opt.factors, OPTIMIZED, DesignFactors(0.3, 2.2), DesignFactors(2.5, 0.55)):
        _, rows = reliability_grid(scn, factors)
        for live, mode, *cells in rows:
            columns = (
                strength_at_factored_capacity(scn, d.b_y_nlc, d.r_c_nlc, UNIT, live),
                strength_at_factored_capacity(scn, d.b_y_0, d.r_c_0, UNIT, live),
                strength_at_factored_capacity(scn, d.b_y_0, d.r_c_0, UNIT, live, dmg),
                strength_at_factored_capacity(scn, d.b_y_0, d.r_c_0, factors, live, dmg),
            )
            for cell, want in zip(cells, columns):
                assert_last_bits(cell, want[fields[mode]], (factors, live, mode))


def test_beta_strictly_increasing_in_design_factor():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 1000:
        geom = FrameGeometry(
            int(rng.integers(1, 25)), int(rng.integers(3, 25)),
            float(rng.uniform(3, 10)), float(rng.uniform(2, 5)),
        )
        scn = Scenario(geometry=geom)
        if violations(scn):  # n_s = 1 is below the default two strengthened stories
            continue
        design = design_members(scn)
        lam = float(rng.uniform(0.1, 3.0))
        eps = 1e-4
        mode = (CollapseMode.BENDING, CollapseMode.LOCAL_PANCAKE, CollapseMode.GLOBAL_PANCAKE)[
            int(rng.integers(0, 3))
        ]
        lo = beta_damaged(scn, design, DesignFactors(lam, lam), 1, 1, mode)
        hi = beta_damaged(scn, design, DesignFactors(lam + eps, lam + eps), 1, 1, mode)
        assert hi > lo, (geom, lam, mode)
        checked += 1


def zero_load_stds(scenario):
    """``scenario`` with every load std 0 and the resistance stds kept, which ``validate`` accepts."""
    loads = scenario.loads
    return replace(scenario, loads=replace(
        loads,
        dead=RandomVarStats(loads.dead.mean, 0.0),
        live_50=RandomVarStats(loads.live_50.mean, 0.0),
        live_apt=RandomVarStats(loads.live_apt.mean, 0.0),
    ))


def test_degenerate_all_zero_stds_never_silent(ref_scenario, ref_design):
    d = ref_design
    loads = zero_load_stds(ref_scenario).loads
    degenerate = replace(ref_scenario, loads=replace(
        loads, beam_resistance=RandomVarStats(1.22, 0.0), column_resistance=RandomVarStats(1.20, 0.0),
    ))
    with pytest.raises(ValidationError, match="must not all be zero"):
        beta_set(degenerate, unit_strengths(degenerate, d.b_y_0, d.r_c_0), UNIT, "50yr")
    # the index's own guard, past validate: a raw strength whose square underflows
    valid = zero_load_stds(ref_scenario)
    tiny = unit_strengths(valid, 1e-170 * d.b_y_0, d.r_c_0)
    with pytest.raises(ValueError, match="degenerate"):
        beta_set(valid, tiny, UNIT, "50yr")


# Published reliability-index grid for the reference frame.  Keys are
# (live horizon, mode, design state); the two catenary cells of the
# optimized column are excluded here because they correspond to the
# catenary-included optimization (covered in test_optimize).
PUBLISHED_BETA_GRID = {
    ("apt", "gp", "nlc"): 3.56, ("apt", "gp", "str"): 3.82,
    ("apt", "gp", "dam"): 3.46, ("apt", "gp", "opt"): 3.93,
    ("apt", "pl", "dam"): 1.80, ("apt", "pl", "opt"): 2.62,
    ("apt", "b", "nlc"): 3.99, ("apt", "b", "str"): 5.10,
    ("apt", "b", "dam"): 2.03, ("apt", "b", "opt"): 1.61,
    ("apt", "cat", "nlc"): 4.42, ("apt", "cat", "str"): 5.31, ("apt", "cat", "dam"): 3.36,
    ("50yr", "gp", "nlc"): 2.46, ("50yr", "gp", "str"): 2.85,
    ("50yr", "gp", "dam"): 2.30, ("50yr", "gp", "opt"): 3.03,
    ("50yr", "pl", "dam"): -0.02, ("50yr", "pl", "opt"): 1.08,
    ("50yr", "b", "nlc"): 2.76, ("50yr", "b", "str"): 4.50,
    ("50yr", "b", "dam"): 0.06, ("50yr", "b", "opt"): -0.45,
    ("50yr", "cat", "nlc"): 3.43, ("50yr", "cat", "str"): 4.83, ("50yr", "cat", "dam"): 1.84,
}

_MODE = {
    "gp": CollapseMode.GLOBAL_PANCAKE,
    "pl": CollapseMode.LOCAL_PANCAKE,
    "b": CollapseMode.BENDING,
    "cat": CollapseMode.CATENARY,
}


def computed_reference_grid() -> dict[tuple[str, str, str], float]:
    scn = validate(Scenario())
    strengthened = design_members(scn)
    normal = nlc_member_design(scn)
    grid: dict[tuple[str, str, str], float] = {}
    for live in ("apt", "50yr"):
        intact = {
            "nlc": beta_set(scn, unit_strengths(scn, normal.b_y_0, normal.r_c_0), UNIT, live),
            "str": beta_set(scn, unit_strengths(scn, strengthened.b_y_0, strengthened.r_c_0), UNIT, live),
        }
        for mode_key, mode in _MODE.items():
            if mode is not CollapseMode.LOCAL_PANCAKE:
                for state, betas in intact.items():
                    grid[(live, mode_key, state)] = getattr(betas, MODE_FIELDS[mode])
            grid[(live, mode_key, "dam")] = beta_damaged(scn, strengthened, UNIT, 1, 1, mode, live)
            grid[(live, mode_key, "opt")] = beta_damaged(scn, strengthened, OPTIMIZED, 1, 1, mode, live)
    return grid


def test_full_reference_grid_against_published_values():
    grid = computed_reference_grid()
    assert len(PUBLISHED_BETA_GRID) == 26
    for key, expected in PUBLISHED_BETA_GRID.items():
        assert grid[key] == pytest.approx(expected, abs=0.02), key
