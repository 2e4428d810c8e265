from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from framerisk import (
    FRAME_CATALOG,
    CostParameters,
    DamageScenario,
    FrameGeometry,
    OptimizationError,
    RandomVarStats,
    RiskModel,
    Scenario,
    design_members,
    minimize_total_cost,
    nlc_member_design,
    threshold_probability,
    validate,
)
from framerisk import optimize
from framerisk.optimize import ALWAYS_STRENGTHEN, BRACKETED, NEVER_STRENGTHEN


def test_reference_optimum_location(ref_optimum):
    assert ref_optimum.factors.lambda_b == pytest.approx(0.9, abs=0.1)
    assert ref_optimum.factors.lambda_c == pytest.approx(1.3, abs=0.1)


def test_reference_optimum_regression(ref_optimum):
    # frozen from the deterministic multi-start search
    assert ref_optimum.c_te == pytest.approx(1.1670280153211121, rel=1e-6)


def test_reference_optimum_beats_grid(ref_optimum):
    scn = validate(Scenario())
    model = RiskModel(scn)
    grid = model.evaluate_grid(np.linspace(0.05, 3.0, 200), np.linspace(0.05, 3.0, 200))
    grid_min = float(grid.min())
    # frozen once from the same deterministic grid
    assert grid_min == pytest.approx(1.167048819806452, rel=1e-9)
    assert ref_optimum.c_te <= grid_min + 1e-12


def test_never_worse_than_unit_design(ref_optimum, ref_scenario, ref_design):
    assert ref_optimum.c_te <= RiskModel(ref_scenario, ref_design).evaluate(1.0, 1.0) + 1e-9


def test_determinism(ref_scenario, ref_design):
    a = minimize_total_cost(ref_scenario, ref_design)
    b = minimize_total_cost(ref_scenario, ref_design)
    assert a.factors == b.factors
    assert a.c_te == b.c_te
    assert a.starts_used == b.starts_used == 25


def test_reference_solve_evaluation_count(monkeypatch, ref_scenario, ref_design):
    # deterministic work count of the reference solve (25 start checks plus
    # the simplex evaluations): a change to the search path fails here
    # even when the optimum still rounds to the same printed digits
    calls = 0
    evaluate = RiskModel.evaluate

    def counted(self, lambda_b, lambda_c):
        nonlocal calls
        calls += 1
        return evaluate(self, lambda_b, lambda_c)

    monkeypatch.setattr(RiskModel, "evaluate", counted)
    result = minimize_total_cost(ref_scenario, ref_design)
    assert calls == 2092
    assert result.starts_used == 25
    # the run record reports the same calls and every start converging
    assert result.evaluations == calls
    assert result.converged_starts == 25


def test_reference_threshold_counts(monkeypatch, ref_scenario, ref_design):
    # deterministic work counts of the reference threshold search: objective
    # calls summed over its probes, and those the frame's memo answered
    calls = 0
    evaluate = RiskModel.evaluate

    def counted(self, lambda_b, lambda_c):
        nonlocal calls
        calls += 1
        return evaluate(self, lambda_b, lambda_c)

    monkeypatch.setattr(RiskModel, "evaluate", counted)
    result = threshold_probability(ref_scenario, ref_design)
    assert calls == result.evaluations == 26024
    assert result.memo_hits == 9387
    # a solve handed no model keeps no memo (one kept for a lone search
    # answered only the 28 points it revisits)
    assert minimize_total_cost(ref_scenario, ref_design).memo_hits == 0


def test_reference_normal_cdf_counts(monkeypatch, ref_scenario, ref_design):
    # failure probabilities (math.erfc calls) computed by the reference solve
    # and threshold search: a bound of the float kernel that stops cutting
    # its chain walk short fails here, though the bits and calls hold
    calls = 0
    erfc = math.erfc

    def counted(x):
        nonlocal calls
        calls += 1
        return erfc(x)

    monkeypatch.setattr(math, "erfc", counted)
    minimize_total_cost(ref_scenario, ref_design)
    assert calls == 12607
    calls = 0
    threshold_probability(ref_scenario, ref_design)
    assert calls == 87883


def threshold_bits(result):
    def factors(opt):
        return opt.factors.lambda_b.hex(), opt.factors.lambda_c.hex()

    p_th = None if result.p_th is None else result.p_th.hex()
    return (result.status, p_th, result.g_low.hex(), result.g_high.hex(),
            factors(result.optimum_low), factors(result.optimum_high), result.evaluations)


@pytest.mark.parametrize("frame", list(FRAME_CATALOG))
def test_shared_model_threshold_matches_fresh_models(monkeypatch, frame):
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame]))
    shared = threshold_probability(scn)
    solve = optimize.minimize_total_cost
    # every probe builds its own model, as before the probes shared one
    monkeypatch.setattr(optimize, "minimize_total_cost", lambda scenario, model: solve(scenario))
    fresh = threshold_probability(scn)
    assert threshold_bits(shared) == threshold_bits(fresh)
    assert shared.memo_hits > fresh.memo_hits


def test_view_evaluate_matches_fresh_model(ref_scenario, ref_design):
    points = np.random.default_rng(11).uniform(0.05, 5.0, size=(30, 2)).tolist()
    view = RiskModel(ref_scenario, ref_design)
    for p_ld in (1e-6, 1e-3, 0.1, 1.0):
        view = view.at(p_ld)  # shares the memo of the views before it
        fresh = RiskModel(replace(ref_scenario, p_ld=p_ld), ref_design)
        for lb, lc in points + points[:10]:
            assert view.evaluate(lb, lc).hex() == fresh.evaluate(lb, lc).hex()
        assert view.memo_hits == (10 if p_ld == 1e-6 else 40)
    assert view.p_ld == 1.0


def test_memo_lives_as_long_as_its_solve(ref_scenario, ref_design):
    model = RiskModel(ref_scenario, ref_design)
    for _ in range(3):
        model.evaluate(0.9, 1.3)
    # a model a caller builds keeps no memo, whatever it is used for
    assert model.memo_hits == 0 and model._memo is None
    first = minimize_total_cost(ref_scenario, ref_design, model=model)
    second = minimize_total_cost(ref_scenario, ref_design, model=model)
    assert model._memo is None
    assert (second.evaluations, second.memo_hits) == (first.evaluations, first.memo_hits) == (2092, 28)
    # a view passed in lends its memo, which then answers a repeated solve
    view = model.at(ref_scenario.p_ld)
    minimize_total_cost(ref_scenario, ref_design, model=view)
    again = minimize_total_cost(ref_scenario, ref_design, model=view)
    assert again.memo_hits == again.evaluations
    assert again.c_te.hex() == first.c_te.hex()


def test_optimum_betas_reported(ref_optimum):
    assert ref_optimum.beta_damaged.beta_b == pytest.approx(1.61, abs=0.05)
    assert ref_optimum.beta_damaged.beta_pl == pytest.approx(2.62, abs=0.05)
    assert ref_optimum.beta_damaged.beta_pg == pytest.approx(3.93, abs=0.05)
    assert ref_optimum.converged


def test_separable_limit_matches_1d_scans():
    # with no threat and no strengthening cost the objective separates into
    # two monotone terms, so the optimum rides the upper factor clamp
    scn = validate(
        Scenario(p_ld=0.0, costs=CostParameters(alpha_b=0.0, alpha_c=0.0, n_reinf_s=0))
    )
    design = design_members(scn)
    result = minimize_total_cost(scn, design)
    model = RiskModel(scn, design)
    lams = np.linspace(0.05, 5.0, 400)
    scan_b = [model.evaluate(l, result.factors.lambda_c) for l in lams]
    scan_c = [model.evaluate(result.factors.lambda_b, l) for l in lams]
    assert result.factors.lambda_b == pytest.approx(5.0, abs=1e-2)
    assert result.factors.lambda_c == pytest.approx(5.0, abs=1e-2)
    assert result.c_te <= min(scan_b) + 1e-12
    assert result.c_te <= min(scan_c) + 1e-12


def random_scenarios(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        n_s = int(rng.integers(2, 18))
        n_c = int(rng.integers(4, 18))
        L = float(rng.uniform(4.0, 8.0))
        geom = FrameGeometry(n_s, n_c, L, L / 2.0)
        damage = DamageScenario(int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        if damage.n_rc0 > n_c - 2:
            continue
        k_d = float(rng.uniform(10.0, 50.0))
        costs = CostParameters(
            alpha_b=float(rng.uniform(0.3, 0.9)),
            alpha_c=float(rng.uniform(0.3, 0.9)),
            k_ductile=k_d,
            k_brittle=2.0 * k_d,
            n_reinf_s=int(rng.integers(1, min(4, n_s + 1))),
        )
        scn = Scenario(geometry=geom, damage=damage, costs=costs, p_ld=float(rng.uniform(1e-3, 1.0)))
        out.append(validate(scn))
    return out


def test_optimizer_matches_brute_force_on_random_scenarios():
    for scn in random_scenarios(10, seed=67):
        design = design_members(scn)
        result = minimize_total_cost(scn, design)
        model = RiskModel(scn, design)
        grid = model.evaluate_grid(np.linspace(0.05, 5.0, 300), np.linspace(0.05, 5.0, 300))
        grid_min = float(grid.min())
        assert abs(result.c_te - grid_min) <= 1e-3 * grid_min
        assert result.c_te <= grid_min + 1e-9


def test_optimal_bending_index_monotone_in_threat(ref_scenario, ref_design):
    ps = np.logspace(-4, 0, 20)
    betas = []
    for p in ps:
        result = minimize_total_cost(replace(ref_scenario, p_ld=float(p)), ref_design)
        betas.append(result.beta_damaged.beta_b)
    assert all(b >= a - 1e-9 for a, b in zip(betas, betas[1:]))


@pytest.mark.parametrize("frame", list(FRAME_CATALOG))
def test_optimal_cost_does_not_fall_as_threat_rises(frame):
    # c_te* = min over the factors of A + p_ld * B with B >= 0, so the global
    # minimum cannot fall as p_ld rises; the multistart must keep that exactly
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame]))
    model = RiskModel(scn).at(scn.p_ld)  # one model and memo for the frame
    costs = [
        minimize_total_cost(validate(replace(scn, p_ld=p)), model=model).c_te
        for p in np.logspace(-6.0, 0.0, 13).tolist()
    ]
    assert all(b >= a for a, b in zip(costs, costs[1:])), costs


def test_all_starts_nonfinite_raises(ref_scenario):
    broken = replace(
        ref_scenario,
        loads=replace(ref_scenario.loads, beam_resistance=RandomVarStats(float("nan"), 0.2)),
    )
    with pytest.raises(OptimizationError):
        minimize_total_cost(broken)


def test_no_initial_damage_rejected(ref_scenario):
    # validate rejects n_rc0 = 0; a model built on a design passed in does not
    scn = replace(ref_scenario, damage=DamageScenario(0, 0))
    with pytest.raises(ValueError, match="n_rc0"):
        minimize_total_cost(scn, nlc_member_design(scn))


class TestThresholds:
    def test_low_frame(self, threshold_low):
        assert threshold_low.status == BRACKETED
        assert 0.025 <= threshold_low.p_th <= 0.10

    def test_tall_frame(self, threshold_tall):
        assert threshold_tall.status == BRACKETED
        assert 3e-4 <= threshold_tall.p_th <= 3e-3

    def test_catenary_reference(self, threshold_catenary):
        if threshold_catenary.status == BRACKETED:
            assert threshold_catenary.p_th < 1e-5
        else:
            assert threshold_catenary.status == ALWAYS_STRENGTHEN

    def test_bracket_endpoints_reported(self, threshold_low):
        assert threshold_low.g_low < 0 < threshold_low.g_high

    def test_status_values(self, threshold_low, threshold_catenary):
        assert {threshold_low.status, threshold_catenary.status} <= {
            BRACKETED,
            ALWAYS_STRENGTHEN,
            NEVER_STRENGTHEN,
        }


def test_catenary_optimum_reproduces_published_indexes():
    # with catenary included at the reference threat level, the optimizer
    # lands where the published catenary-row indexes of the optimized design
    # were reported (apt 1.81, 50-year -0.21)
    scn = validate(Scenario(include_catenary=True))
    result = minimize_total_cost(scn)
    assert result.beta_damaged.beta_cat == pytest.approx(1.81, abs=0.02)
    assert result.factors.lambda_b == pytest.approx(0.63, abs=0.05)
    from framerisk import beta_damaged
    from framerisk.mechanics import CollapseMode

    design = design_members(scn)
    beta_cat_50 = beta_damaged(
        scn, design, result.factors, 1, 1, CollapseMode.CATENARY, live="50yr"
    )
    assert beta_cat_50 == pytest.approx(-0.21, abs=0.02)
