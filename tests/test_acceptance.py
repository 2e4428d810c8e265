"""Acceptance gate: one test per criterion, each reporting a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see the per-criterion
report lines for passing tests as well.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from framerisk import (
    CollapseMode,
    DesignFactors,
    FrameGeometry,
    RiskModel,
    Scenario,
    Series,
    annual_from_lifetime,
    beta_damaged,
    construction_cost,
    design_members,
    emit_csv,
    emit_svg,
    global_pancake_strength,
    intact_pancake_strength,
    minimize_total_cost,
    validate,
)
from framerisk.optimize import ALWAYS_STRENGTHEN, BRACKETED

from test_design import B_SF_ROW, DAMAGE_TOKENS, R_SF_TABLE, scenario_for
from test_reliability import PUBLISHED_BETA_GRID, computed_reference_grid


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_member_sizing(ref_scenario):
    d = design_members(ref_scenario)
    checks = {
        "B_y_nlc": (d.b_y_nlc, 7.41),
        "R_c_nlc": (d.r_c_nlc, 140.55),
        "B_y_0": (d.b_y_0, 15.3),
        "R_c_0": (d.r_c_0, 162.1),
    }
    ok = all(abs(got - want) <= 0.05 for got, want in checks.values())
    detail = ", ".join(f"{k}={got:.4f} (want {want} +/- 0.05)" for k, (got, want) in checks.items())
    report(1, ok, f"member sizing: {detail}")


def test_criterion_2_strengthening_factor_table():
    worst = 0.0
    n_checked = 0
    for frame, row in R_SF_TABLE.items():
        for damage, want in zip(DAMAGE_TOKENS, row):
            got = design_members(scenario_for(frame, damage)).r_sf
            worst = max(worst, abs(got - want))
            n_checked += 1
    for damage, want in zip(DAMAGE_TOKENS, B_SF_ROW):
        got = design_members(scenario_for("8x8", damage)).b_sf
        worst = max(worst, abs(got - want))
        n_checked += 1
    report(2, worst <= 0.01, f"{n_checked} strengthening factors, worst |err| = {worst:.4f} (tol 0.01)")


def test_criterion_3_reliability_grid():
    grid = computed_reference_grid()
    worst = max(abs(grid[key] - want) for key, want in PUBLISHED_BETA_GRID.items())
    report(
        3,
        worst <= 0.02,
        f"{len(PUBLISHED_BETA_GRID)} reliability indexes at lambda=(1,1)/(0.9,1.3), worst |err| = {worst:.4f} (tol 0.02)",
    )


def test_criterion_4_construction_cost_impact(ref_scenario, ref_design):
    got = construction_cost(ref_scenario, ref_design, DesignFactors(1.0, 1.0))
    report(4, abs(got - 1.129) <= 0.003, f"C_const(1,1) = {got:.4f} (want 1.129 +/- 0.003)")


def test_criterion_5_reference_optimum(ref_optimum):
    lam = ref_optimum.factors
    model = RiskModel(validate(Scenario()))
    grid = model.evaluate_grid(np.linspace(0.05, 5.0, 300), np.linspace(0.05, 5.0, 300))
    grid_min = float(grid.min())
    ok = (
        abs(lam.lambda_b - 0.9) <= 0.1
        and abs(lam.lambda_c - 1.3) <= 0.1
        and ref_optimum.c_te <= grid_min + 1e-3 * grid_min
    )
    report(
        5,
        ok,
        f"lambda* = ({lam.lambda_b:.3f}, {lam.lambda_c:.3f}) (want (0.9, 1.3) +/- 0.1), "
        f"C_TE* = {ref_optimum.c_te:.6f} vs 300x300 grid min {grid_min:.6f}",
    )


def test_criterion_6_thresholds(threshold_low, threshold_tall, threshold_catenary):
    ok_low = threshold_low.status == BRACKETED and 0.025 <= threshold_low.p_th <= 0.10
    ok_tall = threshold_tall.status == BRACKETED and 3e-4 <= threshold_tall.p_th <= 3e-3
    if threshold_catenary.status == BRACKETED:
        ok_cat = threshold_catenary.p_th < 1e-5
        cat_desc = f"p_th = {threshold_catenary.p_th:.2e}"
    else:
        ok_cat = threshold_catenary.status == ALWAYS_STRENGTHEN
        cat_desc = threshold_catenary.status
    report(
        6,
        ok_low and ok_tall and ok_cat,
        f"low 4x16 p_th = {threshold_low.p_th:.4f} (want [0.025, 0.10]); "
        f"tall 16x4 p_th = {threshold_tall.p_th:.2e} (want [3e-4, 3e-3]); "
        f"catenary reference: {cat_desc} (want < 1e-5 or always-strengthen)",
    )


def test_criterion_7_annual_conversion():
    got = annual_from_lifetime(0.1)
    report(7, abs(got - 2.1e-3) <= 1e-5, f"annual(0.1) = {got:.6e} (want 2.1e-3 +/- 1e-5)")


def test_criterion_8_property_suites(tmp_path, ref_scenario, ref_design):
    problems: list[str] = []

    # (a) global pancake reduces to the intact expression at zero damage
    rng = np.random.default_rng(71)
    for _ in range(1000):
        geom = FrameGeometry(
            int(rng.integers(1, 40)), int(rng.integers(3, 30)),
            float(rng.uniform(2, 12)), float(rng.uniform(2, 6)),
        )
        r_c = float(rng.uniform(1.0, 500.0))
        n_rs = int(rng.integers(0, geom.n_s + 1))
        a = global_pancake_strength(geom, r_c, 0, n_rs)
        b = intact_pancake_strength(geom, r_c)
        if abs(a - b) > 1e-12 * abs(b):
            problems.append(f"reduction identity failed for {geom}")
            break

    # (b) reliability index strictly increasing in the design factor
    for _ in range(1000):
        lam = float(rng.uniform(0.1, 3.0))
        mode = (CollapseMode.BENDING, CollapseMode.LOCAL_PANCAKE, CollapseMode.GLOBAL_PANCAKE)[
            int(rng.integers(0, 3))
        ]
        lo = beta_damaged(ref_scenario, ref_design, DesignFactors(lam, lam), 1, 1, mode)
        hi = beta_damaged(ref_scenario, ref_design, DesignFactors(lam + 1e-4, lam + 1e-4), 1, 1, mode)
        if not hi > lo:
            problems.append(f"beta not increasing at lambda={lam}, mode={mode}")
            break

    # (c) objective floor and monotonicity in the damage probability
    model = RiskModel(ref_scenario, ref_design)
    for _ in range(100):
        lb, lc = rng.uniform(0.05, 4.0, size=2)
        if model.evaluate(lb, lc) < model.construction(lb, lc):
            problems.append(f"C_TE < C_const at ({lb:.3f}, {lc:.3f})")
            break
    for _ in range(25):
        lb, lc = rng.uniform(0.2, 2.5, size=2)
        ps = np.sort(rng.uniform(0.0, 1.0, size=4))
        vals = [
            RiskModel(replace(ref_scenario, p_ld=float(p)), ref_design).evaluate(lb, lc) for p in ps
        ]
        if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
            problems.append("C_TE decreasing in p_ld")
            break

    # (d) the damage branch never exceeds the global collapse cost
    for _ in range(200):
        lb, lc = rng.uniform(0.05, 5.0, size=2)
        if model.damage_branch(lb, lc) > model.c_pg + 1e-12:
            problems.append("damage branch exceeded global collapse cost")
            break

    # (e) emitters are deterministic
    rows = [(i, float(i) * 0.37) for i in range(10)]
    a1 = emit_csv(tmp_path / "a1.csv", ["i", "v"], rows).read_bytes()
    a2 = emit_csv(tmp_path / "a2.csv", ["i", "v"], rows).read_bytes()
    series = [Series("s", [1e-4, 1e-2, 1.0], [1.0, 2.0, 1.5])]
    emit_svg(series, tmp_path / "s1.svg", log_x=True)
    emit_svg(series, tmp_path / "s2.svg", log_x=True)
    if a1 != a2:
        problems.append("CSV emitter not deterministic")
    if (tmp_path / "s1.svg").read_bytes() != (tmp_path / "s2.svg").read_bytes():
        problems.append("SVG emitter not deterministic")

    report(8, not problems, "property suites (reduction identity, beta monotone, cost bounds, "
           f"emitter determinism): {problems or 'all hold'}")


def test_criterion_9_optimal_factor_trends(tall_optima, threshold_tall):
    lam_high = tall_optima[1.0].factors.lambda_c
    lam_low = tall_optima[1e-3].factors.lambda_c
    ok_trend = lam_high > lam_low

    # the optimal bending index must cross zero exactly once on the bracket
    scn = validate(Scenario(geometry=FrameGeometry(16, 5)))
    betas = []
    for p in np.logspace(-6, 0, 9):
        result = minimize_total_cost(replace(scn, p_ld=float(p)))
        betas.append(result.beta_damaged.beta_b)
    signs = [b > 0 for b in betas]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok_cross = crossings == 1 and threshold_tall.status == BRACKETED
    report(
        9,
        ok_trend and ok_cross,
        f"tall frame lambda_c*(p=1) = {lam_high:.3f} > lambda_c*(p=1e-3) = {lam_low:.3f}; "
        f"beta_b* sign changes on the bracket: {crossings} (want exactly 1)",
    )
