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
    RiskModel,
    Scenario,
    design_members,
    minimize_total_cost,
    nlc_member_design,
    threshold_probability,
    validate,
)
from framerisk import optimize
from framerisk.model import MAX_FACTOR
from framerisk.optimize import ALWAYS_STRENGTHEN, BRACKETED, LOG10_P_RANGE, LOG10_P_TOL, NEVER_STRENGTHEN


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


def test_determinism(ref_scenario):
    a = minimize_total_cost(ref_scenario)
    b = minimize_total_cost(ref_scenario)
    assert a.factors == b.factors
    assert a.c_te == b.c_te
    assert a.starts_used == b.starts_used == 25


@pytest.fixture
def kernel_runs(monkeypatch):
    """Runs of the objective's float kernel on models built from here: each
    run unpacks the initial extent's row of the chain once, and a memo hit
    none."""
    runs = [0]

    class Counted(tuple):
        def __iter__(self):
            runs[0] += 1
            return super().__iter__()

    init = RiskModel.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._chain = (Counted(self._chain[0]), *self._chain[1:])

    monkeypatch.setattr(RiskModel, "__init__", counted_init)
    return runs


def test_reference_solve_evaluation_count(kernel_runs, ref_scenario):
    # deterministic work count of the reference solve (25 start checks plus
    # the simplex evaluations): a change to the search path fails here
    # even when the optimum still rounds to the same printed digits
    result = minimize_total_cost(ref_scenario)
    assert result.evaluations == 2092
    assert result.starts_used == 25
    # a lone solve keeps no memo, so every objective call runs the kernel
    assert kernel_runs[0] == result.evaluations - result.memo_hits == 2092
    assert result.converged_starts == 25


def test_reference_threshold_counts(kernel_runs, ref_scenario):
    # deterministic work counts of the reference threshold search: objective
    # calls summed over its probes, and those the frame's memo answered
    result = threshold_probability(ref_scenario)
    assert result.evaluations == 26024
    assert result.memo_hits == 9387
    # the memo answers a call or the kernel runs, never both
    assert kernel_runs[0] == result.evaluations - result.memo_hits == 16637
    # a solve handed no model keeps no memo (one kept for a lone search
    # answered only the 28 points it revisits)
    assert minimize_total_cost(ref_scenario).memo_hits == 0


def test_reference_normal_cdf_counts(monkeypatch, ref_scenario):
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
    minimize_total_cost(ref_scenario)
    assert calls == 12607
    calls = 0
    threshold_probability(ref_scenario)
    assert calls == 87883


def threshold_bits(result):
    p_th = None if result.p_th is None else result.p_th.hex()
    return result.status, p_th, [(x.hex(), *probe_bits(opt)) for x, opt in result.probes], result.evaluations


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


def solve_bits(result):
    return result.c_te.hex(), result.factors.lambda_b.hex(), result.factors.lambda_c.hex()


def probe_bits(result):
    # a solve's factors, cost and every conditional index of its optimum
    return (*solve_bits(result), *(None if beta is None else beta.hex() for beta in result.beta_damaged))


def test_second_solve_on_a_model_is_all_memo_hits(ref_scenario, ref_design):
    model = RiskModel(ref_scenario, ref_design)
    first = minimize_total_cost(ref_scenario, model=model)
    # a lone search revisits 28 of its points
    assert (first.evaluations, first.memo_hits) == (2092, 28)
    second = minimize_total_cost(ref_scenario, model=model)
    assert second.memo_hits == second.evaluations == 2092
    assert solve_bits(second) == solve_bits(first)


def test_scalar_and_grid_entry_points_leave_the_memo_empty(ref_scenario, ref_design):
    model = RiskModel(ref_scenario, ref_design)
    model.evaluate(0.9, 1.3)
    model.breakdown(0.9, 1.3)
    model.damage_branch(0.9, 1.3)
    model.objective(model.p_ld, None, optimize.FACTOR_BOUNDS)(0.9, 1.3)
    model.evaluate_grid(np.linspace(0.05, 5.0, 7), np.linspace(0.05, 5.0, 5))
    assert model.memo == {}


# in and out of FACTOR_BOUNDS, on them, and not finite
FACTOR_POINTS = [0.9, 1.3, 0.05, 5.0, 0.01, 7.5, 0.0, -1.0, math.nan, math.inf, -math.inf]


def test_bounded_objective_is_evaluate_at_clamped_factors(ref_scenario, ref_design):
    model = RiskModel(ref_scenario, ref_design)
    memo = {}
    objective = model.objective(model.p_ld, memo, optimize.FACTOR_BOUNDS)
    for lb in FACTOR_POINTS:
        for lc in FACTOR_POINTS:
            clamped = model.evaluate(optimize._clamp(lb), optimize._clamp(lc)).hex()
            assert objective(lb, lc).hex() == clamped
            assert objective(lb, lc).hex() == clamped  # from the memo


def test_unbounded_objective_is_breakdown_total(ref_scenario, ref_design):
    # default bounds pass every factor through, NaN and infinities included;
    # breakdown takes factors in [FACTOR_BOUNDS[0], MAX_FACTOR], and NaN
    model = RiskModel(ref_scenario, ref_design)
    objective = model.objective(model.p_ld)
    for lb in FACTOR_POINTS:
        for lc in FACTOR_POINTS:
            if all(math.isnan(x) or optimize.FACTOR_BOUNDS[0] <= x <= MAX_FACTOR for x in (lb, lc)):
                assert objective(lb, lc).hex() == model.breakdown(lb, lc).total.hex()
            else:
                assert isinstance(objective(lb, lc), float)
                with pytest.raises(ValueError, match=r"design factors must be in \[0.05, 1e\+06\]"):
                    model.breakdown(lb, lc)


def test_objective_memo_holds_p_ld_free_parts(ref_scenario, ref_design):
    # one memo serves objectives at every p_ld: it holds the kernel's terms
    # (normal, branch), from which a hit adds up the total at its own p_ld
    model, memo = RiskModel(ref_scenario, ref_design), {}
    points = np.random.default_rng(3).uniform(0.05, 5.0, size=(20, 2)).tolist()
    for p_ld in (1e-6, 0.1, 1.0):
        objective = model.objective(p_ld, memo, optimize.FACTOR_BOUNDS)
        at_p_ld = RiskModel(replace(ref_scenario, p_ld=p_ld), ref_design)
        for lb, lc in points:
            assert objective(lb, lc).hex() == at_p_ld.breakdown(lb, lc).total.hex()
    assert len(memo) == len(points)
    for (lb, lc), parts in memo.items():
        cost = model.breakdown(lb, lc)
        assert parts == (cost.normal_loading, cost.damage_branch)


@pytest.mark.parametrize("order", ["rising", "falling"])
def test_solves_sharing_a_memo_match_fresh_models(ref_scenario, ref_design, order):
    p_lds = [1e-6, 1e-3, 0.1, 1.0]
    model = RiskModel(ref_scenario, ref_design)
    for p_ld in p_lds if order == "rising" else p_lds[::-1]:
        scn = replace(ref_scenario, p_ld=p_ld)
        shared = minimize_total_cost(scn, model=model)
        fresh = minimize_total_cost(scn)  # its own model, no memo
        assert solve_bits(shared) == solve_bits(fresh)
        assert shared.evaluations == fresh.evaluations
        assert shared.memo_hits > fresh.memo_hits == 0
    # a model's own p_ld never changes, whatever p_ld its memo served
    assert model.p_ld == ref_scenario.p_ld


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
    result = minimize_total_cost(scn)
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
        result = minimize_total_cost(scn)
        model = RiskModel(scn, design)
        grid = model.evaluate_grid(np.linspace(0.05, 5.0, 300), np.linspace(0.05, 5.0, 300))
        grid_min = float(grid.min())
        assert abs(result.c_te - grid_min) <= 1e-3 * grid_min
        assert result.c_te <= grid_min + 1e-9


def test_optimal_bending_index_monotone_in_threat(ref_scenario):
    ps = np.logspace(-4, 0, 20)
    betas = []
    for p in ps:
        result = minimize_total_cost(replace(ref_scenario, p_ld=float(p)))
        betas.append(result.beta_damaged.beta_b)
    assert all(b >= a - 1e-9 for a, b in zip(betas, betas[1:]))


@pytest.mark.parametrize("frame", list(FRAME_CATALOG))
def test_optimal_cost_does_not_fall_as_threat_rises(frame):
    # c_te* = min over the factors of A + p_ld * B with B >= 0, so the global
    # minimum cannot fall as p_ld rises; the multistart must keep that exactly
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame]))
    model = RiskModel(scn)  # one model and memo for the frame
    costs = [
        minimize_total_cost(validate(replace(scn, p_ld=p)), model=model).c_te
        for p in np.logspace(-6.0, 0.0, 13).tolist()
    ]
    assert all(b >= a for a, b in zip(costs, costs[1:])), costs


def test_all_starts_nonfinite_raises(ref_scenario, monkeypatch):
    # validate rejects every scenario whose objective is not finite, so the
    # failure is injected past it, as the exit-3 CLI tests inject theirs
    monkeypatch.setattr(RiskModel, "objective", lambda model, *args: lambda lb, lc: math.nan)
    with pytest.raises(OptimizationError):
        minimize_total_cost(ref_scenario)


def test_design_enters_only_through_the_model(ref_scenario, ref_design):
    # a design passed where a model is expected fails at the call, not later
    with pytest.raises(TypeError):
        minimize_total_cost(ref_scenario, ref_design)
    with pytest.raises(TypeError):
        threshold_probability(ref_scenario, ref_design)


def test_no_initial_damage_rejected(ref_scenario):
    # validate rejects n_rc0 = 0, and so does the model build, on a design
    # passed in too
    scn = replace(ref_scenario, damage=DamageScenario(0, 0))
    with pytest.raises(ValueError, match="n_rc0"):
        minimize_total_cost(scn, model=RiskModel(scn, nlc_member_design(scn)))


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
        (_, low), (_, high) = threshold_low.probes[:2]
        assert low.beta_damaged.beta_b < 0 < high.beta_damaged.beta_b

    def test_probes_and_bracket_recorded(self, ref_scenario):
        result = threshold_probability(ref_scenario)
        assert result.status == BRACKETED and len(result.probes) == 12
        assert (result.probes[0][0], result.probes[1][0]) == LOG10_P_RANGE
        beta_b = {x: opt.beta_damaged.beta_b for x, opt in result.probes}
        g_low, g_high = beta_b[LOG10_P_RANGE[0]], beta_b[LOG10_P_RANGE[1]]
        lo, hi = result.bracket
        assert 0.0 < hi - lo <= LOG10_P_TOL
        assert result.p_th == 10.0 ** (0.5 * (lo + hi))
        # the bracket ends are probes, with the signs of the range ends
        assert (beta_b[lo] < 0.0, beta_b[hi] < 0.0) == (g_low < 0.0, g_high < 0.0)
        # each bisection probe is the midpoint of the bracket before it
        bracket = LOG10_P_RANGE
        for x, opt in result.probes[2:]:
            assert x == 0.5 * (bracket[0] + bracket[1])
            below = opt.beta_damaged.beta_b < 0.0
            bracket = (x, bracket[1]) if below == (g_low < 0.0) else (bracket[0], x)
        assert bracket == result.bracket
        # the counts are the probes' own, summed
        assert result.evaluations == sum(opt.evaluations for _, opt in result.probes)
        assert result.memo_hits == sum(opt.memo_hits for _, opt in result.probes)

    def test_every_probe_is_a_fresh_solve(self, ref_scenario):
        # each probe keeps the solve at its exact p_ld = 10**log10_p, bit for
        # bit what a solve on a fresh model finds there
        result = threshold_probability(ref_scenario)
        assert len(result.probes) == 12
        for x, opt in result.probes:
            fresh = minimize_total_cost(replace(ref_scenario, p_ld=10.0**x))
            assert probe_bits(opt) == probe_bits(fresh)

    def test_unbracketed_search_keeps_the_range(self, threshold_catenary):
        assert threshold_catenary.status == ALWAYS_STRENGTHEN
        assert threshold_catenary.bracket == LOG10_P_RANGE
        assert tuple(x for x, _ in threshold_catenary.probes) == LOG10_P_RANGE

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
