from __future__ import annotations

import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from framerisk import (
    DAMAGE_VARIANTS,
    FRAME_CATALOG,
    CollapseMode,
    CostParameters,
    DamageScenario,
    DesignFactors,
    FrameGeometry,
    RiskModel,
    Scenario,
    beta_intact,
    beta_set,
    construction_cost,
    design_members,
    initial_damage_cost,
    nlc_member_design,
    scenario_from_dict,
    unit_strengths,
    validate,
)
from framerisk.optimize import FACTOR_BOUNDS
from framerisk.reliability import LIVE_APT, _moment_index, _pf_float
from framerisk.risk import _first_max

UNIT = DesignFactors(1.0, 1.0)
OPTIMIZED = DesignFactors(0.9, 1.3)


def stage_row(scenario, design, factors, n_fc):
    """Trace row of the chain stage at ``n_fc`` failed columns."""
    model = RiskModel(scenario, design)
    return model.trace(factors)[model.stages.index(n_fc)]


def total(scenario, design, factors):
    return RiskModel(scenario, design).evaluate(factors.lambda_b, factors.lambda_c)


class TestModeProbabilities:
    def test_local_pancake_at_unit_factors(self, ref_scenario, ref_design):
        p_pl = stage_row(ref_scenario, ref_design, UNIT, 1).p_pl
        # Phi(-1.80) from the published index, CDF table value 0.0359303
        assert p_pl == pytest.approx(0.0359303, abs=2e-3)

    def test_bending_at_optimized_factors(self, ref_scenario, ref_design):
        p_b = stage_row(ref_scenario, ref_design, OPTIMIZED, 1).p_b
        # Phi(-1.61) = 0.0536989
        assert p_b == pytest.approx(0.0536989, abs=2e-3)

    def test_huge_margin_drives_probabilities_to_zero(self, ref_scenario, ref_design):
        # beta saturates near mu_R/sigma_R because resistance uncertainty
        # scales with strength, so the probabilities floor out tiny but
        # positive; the CDF itself clamps exactly (see test_reliability)
        row = stage_row(ref_scenario, ref_design, DesignFactors(50.0, 50.0), 1)
        assert row.p_b < 1e-8
        assert row.p_pl < 1e-7
        assert row.p_pg < 1e-7


class TestStageExpectedCost:
    def test_vanishing_probabilities_vanish_the_cost(self, ref_scenario, ref_design):
        value = stage_row(ref_scenario, ref_design, DesignFactors(50.0, 50.0), 1).stage_expected_cost
        assert value == pytest.approx(0.0, abs=1e-4)

    def test_later_stage_keeps_local_cost_unweighted(self, ref_scenario, ref_design):
        model = RiskModel(ref_scenario, ref_design)
        idx = model.stages.index(3)
        value = model.trace(DesignFactors(5.0, 5.0))[idx].stage_expected_cost
        # with all probabilities driven to ~0 only the bare local term is left
        *_, c_pl = model._chain[idx]
        assert value == pytest.approx(c_pl, rel=1e-9)

    def test_tie_breaks_to_first_mode(self):
        value, tag = _first_max(2.0, 2.0, 2.0)
        assert value == 2.0
        assert tag == "bending"
        _, tag = _first_max(1.0, 3.0, 3.0)
        assert tag == "local_pancake"

    def test_nan_local_term_keeps_the_kernel_order(self):
        # max(t_b, max(t_pl, t_pg)) as the kernel has it: t_pg does not top
        # a NaN t_pl, and the NaN does not top bending
        assert _first_max(1.0, math.nan, 3.0) == (1.0, "bending")
        assert max(1.0, max(math.nan, 3.0)) == 1.0


class TestTotalExpectedCost:
    def test_no_threat_no_strengthening_limit(self, ref_scenario):
        scn = replace(ref_scenario, p_ld=0.0, costs=CostParameters(n_reinf_s=0))
        design = design_members(scn)
        got = total(scn, design, UNIT)
        k_d, k_b = scn.costs.k_ductile, scn.costs.k_brittle
        pf_b = 0.5 * math.erfc(beta_intact(scn, design, UNIT, CollapseMode.BENDING) / math.sqrt(2))
        pf_pg = 0.5 * math.erfc(
            beta_intact(scn, design, UNIT, CollapseMode.GLOBAL_PANCAKE) / math.sqrt(2)
        )
        assert got == pytest.approx(1.0 + k_d * pf_b + k_b * pf_pg, rel=1e-12)

    def test_probability_upper_bound(self, ref_scenario, ref_design):
        rng = np.random.default_rng(47)
        for _ in range(50):
            lb, lc = rng.uniform(0.05, 4.0, size=2)
            factors = DesignFactors(lb, lc)
            c_const = construction_cost(ref_scenario, ref_design, factors)
            c_11 = construction_cost(ref_scenario, ref_design, UNIT)
            c_pg = RiskModel(ref_scenario, ref_design).c_pg
            c_id = initial_damage_cost(ref_scenario)
            k_d = ref_scenario.costs.k_ductile
            bound = c_const + k_d * c_11 + c_pg + ref_scenario.p_ld * (c_id + c_pg)
            assert total(ref_scenario, ref_design, factors) <= bound + 1e-12

    def test_never_below_construction(self, ref_scenario, ref_design):
        rng = np.random.default_rng(53)
        for _ in range(100):
            factors = DesignFactors(*rng.uniform(0.05, 4.0, size=2))
            assert total(ref_scenario, ref_design, factors) >= construction_cost(
                ref_scenario, ref_design, factors
            )

    def test_nondecreasing_in_damage_probability(self, ref_scenario, ref_design):
        rng = np.random.default_rng(59)
        for _ in range(25):
            factors = DesignFactors(*rng.uniform(0.2, 2.5, size=2))
            ps = np.sort(rng.uniform(0.0, 1.0, size=5))
            vals = [
                total(replace(ref_scenario, p_ld=float(p)), ref_design, factors)
                for p in ps
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_damage_branch_bounded_by_global_collapse(self, ref_scenario, ref_design):
        model = RiskModel(ref_scenario, ref_design)
        rng = np.random.default_rng(61)
        for _ in range(200):
            lb, lc = rng.uniform(0.05, 5.0, size=2)
            assert model.damage_branch(lb, lc) <= model.c_pg + 1e-12

    def test_continuity_along_a_segment(self, ref_scenario, ref_design):
        # refining the sampling must shrink the largest step proportionally;
        # a genuine discontinuity would leave it unchanged
        model = RiskModel(ref_scenario, ref_design)

        def max_jump(n: int) -> float:
            lams = np.linspace(0.1, 3.0, n)
            vals = np.array([model.evaluate(l, 0.4 + 0.5 * l) for l in lams])
            return float(np.abs(np.diff(vals)).max())

        coarse, fine = max_jump(2000), max_jump(4000)
        assert fine <= 0.6 * coarse

    def test_empty_chain_single_stage(self):
        scn = validate(Scenario(geometry=FrameGeometry(3, 4), damage=DamageScenario(1, 1)))
        design = design_members(scn)
        model = RiskModel(scn, design)
        assert model.stages == [1]
        assert math.isfinite(total(scn, design, UNIT))

    @pytest.mark.parametrize("n_rc0", [0, 8])  # the reference frame has n_c = 9
    def test_build_needs_a_chain(self, n_rc0):
        # validate rejects both, and so does the build, before it sizes a
        # design or a stage: on a design passed in and on its own sizing
        scn = Scenario(damage=DamageScenario(n_rc0, 0))
        rule = re.escape("1 <= n_rc0 <= n_c - 2")
        with pytest.raises(ValueError, match=rule):
            RiskModel(scn, nlc_member_design(scn))
        with pytest.raises(ValueError, match=rule):
            RiskModel(scn)
        assert RiskModel(replace(scn, damage=DamageScenario(7, 0))).stages == [7]

    @pytest.mark.parametrize("factors", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_factor_gives_nan_objective(self, ref_scenario, ref_design, factors):
        model = RiskModel(ref_scenario, ref_design)
        assert math.isnan(model.evaluate(*factors))
        assert math.isnan(model.breakdown(*factors).total)
        # the walk's max keeps the kernel's NaN handling: a NaN lambda_b gives
        # a NaN branch, a NaN lambda_c alone the initial extent's bending term
        assert unpruned(model, *factors)[0].hex() == kernel_parts(model, *factors)[1].hex()

    @pytest.mark.parametrize("catenary", [False, True])
    @pytest.mark.parametrize(
        "frame, damage", [((8, 9), (1, 1)), ((16, 5), (3, 2)), ((4, 17), (2, 1)), ((3, 4), (1, 0))]
    )
    def test_breakdown_adds_up_to_evaluate(self, frame, damage, catenary):
        geometry, damage = FrameGeometry(*frame), DamageScenario(*damage)
        scn = validate(Scenario(geometry=geometry, damage=damage, include_catenary=catenary))
        model = RiskModel(scn)
        rng = np.random.default_rng(67)
        for lb, lc in rng.uniform(0.05, 4.0, size=(40, 2)):
            cost = model.breakdown(lb, lc)
            assert cost.total == model.evaluate(lb, lc)
            assert cost.construction == model.construction(lb, lc)
            assert cost.initial_damage == model.c_id
            assert cost.damage_branch == model.damage_branch(lb, lc)
            damage = cost.initial_damage + cost.damage_branch
            assert cost.total == cost.construction + cost.normal_loading + scn.p_ld * damage

    def test_breakdown_normal_loading_term(self, ref_scenario, ref_design):
        # the intact frame's two failure modes at the 50-year horizon, priced
        # at the ductile and brittle multiples of the unit-factor construction
        cost = RiskModel(ref_scenario, ref_design).breakdown(0.9, 1.3)
        c_11 = construction_cost(ref_scenario, ref_design, UNIT)
        k_d, k_b = ref_scenario.costs.k_ductile, ref_scenario.costs.k_brittle
        pf_b = 0.5 * math.erfc(beta_intact(ref_scenario, ref_design, OPTIMIZED, CollapseMode.BENDING) / math.sqrt(2))
        pf_pg = 0.5 * math.erfc(
            beta_intact(ref_scenario, ref_design, OPTIMIZED, CollapseMode.GLOBAL_PANCAKE) / math.sqrt(2)
        )
        assert cost.normal_loading == pytest.approx(c_11 * (k_d * pf_b + k_b * pf_pg), rel=1e-12)

    def test_matches_model_evaluate(self, ref_scenario, ref_design):
        model = RiskModel(ref_scenario, ref_design)
        assert total(ref_scenario, ref_design, OPTIMIZED) == model.evaluate(0.9, 1.3)
        # the objective is construction, normal-loading failure and the
        # damage branch, whose maximum the trace rows expose
        rows = model.trace(OPTIMIZED)
        assert max(r.expected_cost for r in rows) == model.damage_branch(0.9, 1.3)


def assert_grid_equals_evaluate(model, lb, lc):
    grid = model.evaluate_grid(lb, lc)
    assert grid.shape == (len(lb), len(lc))
    for i, b in enumerate(lb.tolist()):
        for j, c in enumerate(lc.tolist()):
            assert grid[i, j] == model.evaluate(b, c), (b, c)


def test_vectorized_grid_matches_scalar(ref_scenario, ref_design):
    assert_grid_equals_evaluate(RiskModel(ref_scenario, ref_design), np.linspace(0.1, 4.0, 23), np.linspace(0.1, 4.0, 19))


@pytest.mark.parametrize("catenary", [False, True])
@pytest.mark.parametrize("damage", DAMAGE_VARIANTS, ids=lambda d: f"{d.n_rc0}x{d.n_rs0}")
@pytest.mark.parametrize("frame", list(FRAME_CATALOG))
def test_grid_matches_scalar_on_every_catalog_frame(frame, damage, catenary):
    # the grid's batched Phi is the kernel's 0.5 * math.erfc(beta / sqrt 2),
    # so every point has the bits of evaluate, over the optimizer's bounds
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame], damage=damage, include_catenary=catenary))
    assert_grid_equals_evaluate(RiskModel(scn), np.geomspace(*FACTOR_BOUNDS, 13), np.linspace(*FACTOR_BOUNDS, 11))


def unpruned(model, lb, lc):
    """Damage branch, normal-loading term and objective with every chain
    stage walked: the largest trace row, the intact frame's two failure
    probabilities at the 50-year horizon, and the objective's sum."""
    branch = max(row.expected_cost for row in model.trace(DesignFactors(lb, lc)))
    mu_l, var_l = model.mu_l50, model.var_l50
    pf_b = _pf_float(_moment_index(model.a_b50 * lb, model.mu_rb, model.var_rb, mu_l, var_l, math.sqrt))
    pf_pg = _pf_float(_moment_index(model.a_pg50 * lc, model.mu_rc, model.var_rc, mu_l, var_l, math.sqrt))
    normal = model.c_nlc_bending * pf_b + model.c_pg * pf_pg
    return branch, normal, model.construction(lb, lc) + normal + model.p_ld * (model.c_id + branch)


def kernel_parts(model, lb, lc):
    """``(normal, branch)`` as the objective's float kernel computes them:
    the memo entry of one call of an unbounded objective."""
    memo = {}
    model.objective(model.p_ld, memo)(lb, lc)
    (parts,) = memo.values()
    return parts


def assert_kernel_matches_unpruned_walk(model, lb, lc):
    branch, normal, objective = unpruned(model, lb, lc)
    kernel_normal, kernel_branch = kernel_parts(model, lb, lc)
    assert kernel_branch.hex() == branch.hex()
    assert kernel_normal.hex() == normal.hex()
    assert model.evaluate(lb, lc).hex() == objective.hex()


def stage_phis(model, lb, lc):
    """Failure probabilities (``math.erfc`` calls) the float kernel of an
    objective computes in each chain stage it reads, in chain order.  A
    later stage left with one, its ``p_pl``, was cut by the bound in the
    stage; one with two or three is complete.  Each row of the chain is
    swapped for a generator that notes the count of calls so far when the
    kernel unpacks it."""
    chain, erfc, calls, marks = model._chain, math.erfc, [0], []

    def marked(stage):
        marks.append(calls[0])
        yield from stage

    def counted_erfc(x):
        calls[0] += 1
        return erfc(x)

    model._chain = [marked(stage) for stage in chain]
    math.erfc = counted_erfc
    try:
        model.objective(model.p_ld)(lb, lc)
    finally:
        model._chain, math.erfc = chain, erfc
    counts = [end - start for start, end in zip(marks, [*marks[1:], calls[0]])]
    # the normal-loading pair comes first and the initial extent is complete:
    # a helper that misses the kernel's stages fails here, not in silence
    assert marks[0] == 2 and counts[0] == 3, (marks, counts)
    return counts


def walked_stages(model, lb, lc):
    """Chain stages the objective's float kernel reads before it stops."""
    return len(stage_phis(model, lb, lc))


def tied_cap(reach, best):
    """The largest cap whose bound ``reach * cap`` equals ``best``, if any:
    written to ``model._cap``, objectives built from there read it."""
    cap = best / reach
    while reach * cap > best:
        cap = math.nextafter(cap, 0.0)
    while reach * math.nextafter(cap, math.inf) <= best:
        cap = math.nextafter(cap, math.inf)
    return cap if reach * cap == best else None


@pytest.fixture
def falling_bending(monkeypatch):
    """A 4x16 model whose bending costs, ``1e3 / n_fc``, fall along the
    chain, as no physical chain's do."""
    monkeypatch.setattr("framerisk.costs.bending_collapse_cost", lambda scenario, design, j: 1e3 / j)
    return RiskModel(validate(Scenario(geometry=FRAME_CATALOG["4x16"])))


class TestEarlyExit:
    @pytest.mark.parametrize("catenary", [False, True])
    @pytest.mark.parametrize("damage", DAMAGE_VARIANTS, ids=lambda d: f"{d.n_rc0}x{d.n_rs0}")
    @pytest.mark.parametrize("frame", list(FRAME_CATALOG))
    def test_matches_unpruned_walk(self, frame, damage, catenary):
        base = validate(Scenario(geometry=FRAME_CATALOG[frame], damage=damage, include_catenary=catenary))
        design = design_members(base)
        rng = np.random.default_rng(2022)
        stopped = 0
        for p_ld in (1e-6, 1e-3, 0.1, 1.0):
            model = RiskModel(replace(base, p_ld=p_ld), design)
            # the kernel reads the strength table's own floats
            intact = unit_strengths(base, design.b_y_0, design.r_c_0)
            assert (model.a_b50, model.a_pg50) == (intact.beta_b, intact.beta_pg)
            for j, stage in zip(model.stages, model._chain, strict=True):
                table = unit_strengths(base, design.b_y_0, design.r_c_0, (j, damage.n_rs0))
                assert stage[:3] == (table.beta_b, table.beta_pl, table.beta_pg)
            for lb, lc in rng.uniform(0.05, 5.0, size=(40, 2)).tolist():
                assert_kernel_matches_unpruned_walk(model, lb, lc)
                stopped += walked_stages(model, lb, lc) < len(model.stages)
        if len(model.stages) > 1:
            assert stopped > 0  # the exit is taken, not only harmless

    def test_one_cap_while_costs_fall(self, falling_bending):
        # On physical chains costs never fall, so the one cap is also the
        # largest cost of the stages from any later one on.  Bending costs
        # that fall along the chain make it the cost of stage 1 alone: the
        # kernel keeps the unpruned bits under this looser bound.
        model = falling_bending
        later = [max(stage[3:]) for stage in model._chain[1:]]
        assert model._cap == max(0.0, model.c_pg, *later) == later[0] == 1e3 / 3
        assert all(a > b for a, b in zip(later, later[1:]))
        walked = set()
        for lb, lc in np.random.default_rng(11).uniform(0.05, 5.0, size=(200, 2)).tolist():
            assert_kernel_matches_unpruned_walk(model, lb, lc)
            walked.add(walked_stages(model, lb, lc))
        assert {1, len(model.stages)} < walked  # exits at the start, in the chain and none

    def test_exit_on_a_tied_bound(self):
        # Each bound compares reach * cap with the best stage cost so far, by
        # ``<=``: after the initial extent with the reach past it, and in a
        # later stage k with the reach into it, once its p_pl is known.
        # Raise the cap to the largest value at which the bound of the check
        # that stopped the walk ties the best cost: no earlier check fires on
        # a larger cap, so the walk stops at the same place; one ulp more
        # walks on, and both keep the unpruned bits.
        scn = validate(Scenario(geometry=FRAME_CATALOG["4x16"]))
        model = RiskModel(scn)
        cap0 = model._cap
        ties = {}
        for lb, lc in np.random.default_rng(5).uniform(0.05, 5.0, size=(200, 2)).tolist():
            rows, phis = model.trace(DesignFactors(lb, lc)), stage_phis(model, lb, lc)
            k = len(phis) - 1  # the stage whose check ran last
            if (k > 0) in ties or (phis[k] > 1 if k else len(rows) == 1):
                continue  # walked on past its check, or no stage after it
            best = max(row.expected_cost for row in rows[: k or 1])
            cap = tied_cap(rows[k].chain_probability if k else rows[0].p_pl, best)
            if cap is not None:
                ties[k > 0] = lb, lc, k, cap
            if len(ties) == 2:
                break
        else:
            pytest.fail("no exit of each kind whose bound can tie the best stage cost")
        for lb, lc, k, cap in ties.values():
            assert cap >= cap0
            model._cap = cap
            phis = stage_phis(model, lb, lc)
            assert len(phis) == k + 1 and (k == 0 or phis[k] == 1)  # stopped at the same check
            assert_kernel_matches_unpruned_walk(model, lb, lc)
            model._cap = math.nextafter(cap, math.inf)
            phis = stage_phis(model, lb, lc)
            assert phis[k] > 1 if k else len(phis) > 1  # completes stage k, or reads stage 1
            assert_kernel_matches_unpruned_walk(model, lb, lc)

    def test_next_stage_ends_the_walk_on_a_later_tie(self, falling_bending):
        # No bound runs after a later stage k - 1.  Where one, the reach past
        # stage k - 1 times the cap, would tie the best cost, stage k's own
        # check, with the reach into stage k (at most the reach past k - 1),
        # ends the walk after one more Phi, its p_pl, with the unpruned bits.
        # Lower the cap to such a tie at a point where the walk completes
        # stage k, whose best cost the stages before k already have.  Catalog
        # chains have no such point (their best stage is the initial extent
        # or the last one), so the costs here fall.  A lower cap can fire an
        # earlier check, so the point is one where every check before stage k
        # walks on.
        model = falling_bending
        cap0 = model._cap

        def tie(lb, lc):
            rows, phis = model.trace(DesignFactors(lb, lc)), stage_phis(model, lb, lc)
            costs = [row.expected_cost for row in rows]
            for k in range(2, len(phis)):  # stage k complete, stage k - 1 a later one
                best = max(costs[:k])
                cap = tied_cap(rows[k - 1].chain_probability, best)
                if phis[k] == 1 or cap is None or max(costs[k:]) > best:
                    continue
                # the bound of each check before stage k's on the lowered cap:
                # the initial extent's with the reach past it, stage j's with
                # the reach into it, each against the best cost before it
                bounds = [rows[0].p_pl * cap] + [rows[j].chain_probability * cap for j in range(1, k)]
                if all(bound > max(costs[: j or 1]) for j, bound in enumerate(bounds)):
                    return k, cap
            return None

        for lb, lc in np.random.default_rng(5).uniform(0.05, 5.0, size=(200, 2)).tolist():
            if found := tie(lb, lc):
                k, cap = found
                break
        else:
            pytest.fail("no walk through a later stage whose best cost the stages before it have")
        assert cap < cap0
        model._cap = cap
        phis = stage_phis(model, lb, lc)
        assert len(phis) == k + 1 and phis[k] == 1  # reached stage k and stopped at its p_pl
        assert_kernel_matches_unpruned_walk(model, lb, lc)

    def test_computed_bending_matches_unpruned_walk(self):
        # with ductile collapse dearer than brittle, c_b > c_pl at every later
        # stage, so bending can top a later stage and the kernel computes its
        # probability there; no catalog frame gets this far
        scn = validate(Scenario(costs=CostParameters(k_ductile=5.0, k_brittle=2.0)))
        design = design_members(scn)
        rng = np.random.default_rng(2022)
        bending = 0
        for p_ld in (1e-6, 1e-3, 0.1, 1.0):
            model = RiskModel(replace(scn, p_ld=p_ld), design)
            assert all(c_b > c_pl for *_, c_b, c_pl in model._chain[1:])
            for lb, lc in rng.uniform(0.05, 5.0, size=(40, 2)).tolist():
                assert_kernel_matches_unpruned_walk(model, lb, lc)
                bending += 3 in stage_phis(model, lb, lc)[1:]
        assert bending > 0


class TestProgressionTrace:
    def test_reference_chain_layout(self, ref_scenario, ref_design):
        rows = RiskModel(ref_scenario, ref_design).trace(UNIT)
        assert [r.n_fc for r in rows] == [1, 3, 5, 7]
        assert rows[0].chain_probability == 1.0
        assert rows[0].pairwise_weight == 1.0
        assert rows[0].reach_probability == 1.0

    def test_chain_weights_consistent(self, ref_scenario, ref_design):
        rows = RiskModel(ref_scenario, ref_design).trace(OPTIMIZED)
        reach = 1.0
        prev_pl = None
        for row in rows:
            assert row.reach_probability == pytest.approx(reach, rel=1e-12)
            if prev_pl is not None:
                assert row.chain_probability == pytest.approx(reach * row.p_pl, rel=1e-12)
                assert row.pairwise_weight == pytest.approx(prev_pl * row.p_pl, rel=1e-12)
            reach *= row.p_pl
            prev_pl = row.p_pl

    def test_objective_uses_trace_terms(self):
        # breakdown reads the kernel, and the largest expected cost of the
        # trace rows has the bits of its branch, on every catalog frame and
        # damage variant, at unit and optimized factors and at the corners
        # of the optimizer's bounds
        lo, hi = FACTOR_BOUNDS
        for geometry, damage, catenary in product(FRAME_CATALOG.values(), DAMAGE_VARIANTS, (False, True)):
            model = RiskModel(validate(Scenario(geometry=geometry, damage=damage, include_catenary=catenary)))
            for lb, lc in ((1.0, 1.0), (0.9, 1.3), (lo, lo), (lo, hi), (hi, lo), (hi, hi)):
                rows, cost = model.trace(DesignFactors(lb, lc)), model.breakdown(lb, lc)
                case = geometry, damage, catenary, lb, lc
                assert cost.damage_branch == model.damage_branch(lb, lc) == max(r.expected_cost for r in rows), case
                assert cost.total == model.evaluate(lb, lc), case

    @pytest.mark.parametrize("catenary", [False, True])
    @pytest.mark.parametrize("frame", list(FRAME_CATALOG))
    def test_probabilities_are_beta_set_at_the_apt_horizon(self, frame, catenary):
        # trace and beta_set form their indexes by one routine, so each row's
        # probabilities have the bits of beta_set on that stage's strengths
        scn = validate(Scenario(geometry=FRAME_CATALOG[frame], include_catenary=catenary))
        model = RiskModel(scn)
        for factors in (UNIT, OPTIMIZED, DesignFactors(*FACTOR_BOUNDS), DesignFactors(3.1, 0.07)):
            for row, strengths in zip(model.trace(factors), model.stage_strengths, strict=True):
                betas = beta_set(scn, strengths, factors, LIVE_APT)
                want = (_pf_float(betas.beta_b), _pf_float(betas.beta_pl), _pf_float(betas.beta_pg))
                assert [p.hex() for p in (row.p_b, row.p_pl, row.p_pg)] == [p.hex() for p in want], factors

    def test_zero_variance_is_a_data_error(self):
        # all load stds zero: at a factor of 1e-200 r*r*var_r underflows, and
        # trace, like beta_set, reports the zero variance as a ValueError
        zero = {"mean": 1.0, "std": 0.0}
        scn = scenario_from_dict({"loads": {"dead": zero, "live_apt": zero, "live_50": zero}})
        model, tiny = RiskModel(scn), DesignFactors(1e-200, 1e-200)
        with pytest.raises(ValueError, match="degenerate"):
            model.trace(tiny)
        with pytest.raises(ValueError, match="degenerate"):
            beta_set(scn, model.stage_strengths[0], tiny, LIVE_APT)

    def test_failure_costs_constant_across_design_points(self, ref_scenario, ref_design):
        low = RiskModel(ref_scenario, ref_design).trace(DesignFactors(0.3, 0.3))
        high = RiskModel(ref_scenario, ref_design).trace(DesignFactors(2.5, 2.5))
        for a, b in zip(low, high):
            assert a.c_b == b.c_b
            assert a.c_pl == b.c_pl
            assert a.c_pg == b.c_pg

    def test_strengthened_plateau_below_normal_frame(self, ref_scenario):
        strengthened_rows = RiskModel(ref_scenario, design_members(ref_scenario)).trace(UNIT)
        normal_scn = replace(ref_scenario, costs=CostParameters(n_reinf_s=0))
        normal_rows = RiskModel(normal_scn, nlc_member_design(normal_scn)).trace(UNIT)
        for s_row, n_row in zip(strengthened_rows, normal_rows):
            assert s_row.expected_cost < n_row.expected_cost

    def test_dominant_mode_reported(self, ref_scenario, ref_design):
        rows = RiskModel(ref_scenario, ref_design).trace(UNIT)
        assert all(r.dominant_mode in ("bending", "local_pancake", "global_pancake") for r in rows)
        # at the initial extent of the strengthened frame the weighted local
        # pancake term is the largest
        assert rows[0].dominant_mode == "local_pancake"
