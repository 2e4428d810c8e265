from __future__ import annotations

import copy
import math
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
    construction_cost,
    design_members,
    global_pancake_cost,
    initial_damage_cost,
    nlc_member_design,
    unit_strengths,
    validate,
)
from framerisk.optimize import FACTOR_BOUNDS
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
            c_pg = global_pancake_cost(ref_scenario, ref_design)
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

    def test_model_without_a_chain(self):
        # validate rejects n_rc0 = 0 and strengthening cannot size it, but a
        # model with the normal design builds: no chain stage, a zero branch
        scn = Scenario(damage=DamageScenario(0, 0))
        model = RiskModel(scn, nlc_member_design(scn))
        assert model.stages == [] and model._pairs == ()
        assert model.trace(UNIT) == []
        lb, lc = np.geomspace(*FACTOR_BOUNDS, 9), np.linspace(*FACTOR_BOUNDS, 7)
        objective = model.objective(scn.p_ld, {}, FACTOR_BOUNDS)
        for b in lb.tolist():
            for c in lc.tolist():
                cost = model.breakdown(b, c)
                assert model.damage_branch(b, c) == cost.damage_branch == 0.0
                assert kernel_parts(model, b, c) == (cost.normal_loading, 0.0)
                written_out = model.construction(b, c) + cost.normal_loading + scn.p_ld * (model.c_id + 0.0)
                assert model.evaluate(b, c).hex() == cost.total.hex() == written_out.hex()
                assert objective(b, c).hex() == written_out.hex()
        assert_grid_equals_evaluate(model, lb, lc)

    @pytest.mark.parametrize("factors", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_factor_gives_nan_objective(self, ref_scenario, ref_design, factors):
        model = RiskModel(ref_scenario, ref_design)
        assert math.isnan(model.evaluate(*factors))
        assert math.isnan(model.breakdown(*factors).total)
        # the walk's max keeps the kernel's NaN handling: a NaN lambda_b gives
        # a NaN branch, a NaN lambda_c alone the initial extent's bending term
        assert model.damage_branch(*factors).hex() == kernel_parts(model, *factors)[1].hex()

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
    """Damage branch and objective with every chain stage walked: the
    largest trace row plus the objective's own sum."""
    branch = max((row.expected_cost for row in model.trace(DesignFactors(lb, lc))), default=0.0)
    normal = model.breakdown(lb, lc).normal_loading
    return branch, model.construction(lb, lc) + normal + model.p_ld * (model.c_id + branch)


def kernel_parts(model, lb, lc):
    """``(normal, branch)`` as the objective's float kernel computes them:
    with the construction coefficients and ``c_id`` zeroed, the memo entry
    ``(A, B)`` it stores is ``(0.0 + normal, 0.0 + branch)``, which has their
    bits (at a NaN factor ``normal`` is NaN either way)."""
    bare, memo = copy.copy(model), {}
    bare.const_0 = bare.const_b = bare.const_c = bare.c_id = 0.0
    bare.objective(model.p_ld, memo)(lb, lc)
    ((normal, branch),) = memo.values()
    return normal, branch


def assert_kernel_matches_unpruned_walk(model, lb, lc):
    branch, objective = unpruned(model, lb, lc)
    normal, kernel_branch = kernel_parts(model, lb, lc)
    assert kernel_branch.hex() == branch.hex()
    assert normal.hex() == model.breakdown(lb, lc).normal_loading.hex()
    assert model.evaluate(lb, lc).hex() == objective.hex()


def kernel_caps(model):
    """The caps of the pairs: ``caps[0]`` bounds the stages after the
    initial extent, ``caps[k]`` for ``k >= 1`` stage ``k`` and those after it."""
    return [cap for _, cap in model._pairs]


def with_caps(model, caps):
    """Rewrite the caps of the pairs; objectives built from here read them."""
    model._pairs = tuple(zip(model._chain, caps, strict=True))


def stage_phis(model, lb, lc):
    """Failure probabilities (``math.erfc`` calls) the float kernel of an
    objective computes in each chain stage it reads, in chain order.  A
    later stage left with one, its ``p_pl``, was cut by the bound in the
    stage; one with two or three is complete.  Each pair is swapped for a
    generator that notes the count of calls so far when the kernel unpacks
    it."""
    pairs, erfc, calls, marks = model._pairs, math.erfc, [0], []

    def marked(pair):
        marks.append(calls[0])
        yield from pair

    def counted_erfc(x):
        calls[0] += 1
        return erfc(x)

    model._pairs = [marked(pair) for pair in pairs]
    math.erfc = counted_erfc
    try:
        model.objective(model.p_ld)(lb, lc)
    finally:
        model._pairs, math.erfc = pairs, erfc
    counts = [end - start for start, end in zip(marks, [*marks[1:], calls[0]])]
    # the normal-loading pair comes first and the initial extent is complete:
    # a helper that misses the kernel's stages fails here, not in silence
    assert marks[0] == 2 and counts[0] == 3, (marks, counts)
    return counts


def walked_stages(model, lb, lc):
    """Chain stages the objective's float kernel reads before it stops."""
    return len(stage_phis(model, lb, lc))


def tied_cap(reach, best):
    """The largest cap whose bound ``reach * cap`` equals ``best``, if any."""
    cap = best / reach
    while reach * cap > best:
        cap = math.nextafter(cap, 0.0)
    while reach * math.nextafter(cap, math.inf) <= best:
        cap = math.nextafter(cap, math.inf)
    return cap if reach * cap == best else None


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
            for j, (stage, _) in zip(model.stages, model._pairs, strict=True):
                table = unit_strengths(base, design.b_y_0, design.r_c_0, (j, damage.n_rs0))
                assert stage[:3] == (table.beta_b, table.beta_pl, table.beta_pg)
            for lb, lc in rng.uniform(0.05, 5.0, size=(40, 2)).tolist():
                assert_kernel_matches_unpruned_walk(model, lb, lc)
                stopped += walked_stages(model, lb, lc) < len(model.stages)
        if len(model.stages) > 1:
            assert stopped > 0  # the exit is taken, not only harmless

    def test_pairs_hold_the_chain_and_its_caps(self, monkeypatch):
        # On physical chains costs rise along the chain and every cap is the
        # same, so a cap read one stage off would pass.  Bending costs that
        # fall along the chain make each suffix cap differ.
        monkeypatch.setattr("framerisk.costs.bending_collapse_cost", lambda scenario, design, j: 1e3 / j)
        model = RiskModel(validate(Scenario(geometry=FRAME_CATALOG["4x16"])))
        assert tuple(stage for stage, _ in model._pairs) == model._chain
        # suffix[k] is the largest of 0, c_pg and every stage cost from stage k on
        costs = [0.0, model.c_pg]
        suffix = [max(costs + [c for stage in model._chain[k:] for c in stage[3:]]) for k in range(len(model.stages))]
        assert len(set(suffix[1:])) == len(suffix) - 1
        # the initial extent's cap bounds the stages after it, a later
        # stage's cap that stage and those after it
        assert kernel_caps(model) == [suffix[1], *suffix[1:]]

    def test_exit_on_a_tied_bound(self):
        # Each bound compares reach * cap with the best stage cost so far, by
        # ``<=``: after the initial extent with the reach past it, and in a
        # later stage k with the reach into it, once its p_pl is known.
        # Raise the cap of the check that stopped the walk to the largest
        # value at which the bound ties the best cost: the walk stops at the
        # same place, one ulp more walks on, and both keep the unpruned bits.
        scn = validate(Scenario(geometry=FRAME_CATALOG["4x16"]))
        model = RiskModel(scn)
        caps = kernel_caps(model)
        ties = {}
        for lb, lc in np.random.default_rng(5).uniform(0.05, 5.0, size=(200, 2)).tolist():
            rows, phis = model.trace(DesignFactors(lb, lc)), stage_phis(model, lb, lc)
            k = len(phis) - 1  # the pair whose check ran last
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
            assert cap >= caps[k]
            with_caps(model, [*caps[:k], cap, *caps[k + 1 :]])
            phis = stage_phis(model, lb, lc)
            assert len(phis) == k + 1 and (k == 0 or phis[k] == 1)  # stopped at the same check
            assert_kernel_matches_unpruned_walk(model, lb, lc)
            with_caps(model, [*caps[:k], math.nextafter(cap, math.inf), *caps[k + 1 :]])
            phis = stage_phis(model, lb, lc)
            assert phis[k] > 1 if k else len(phis) > 1  # completes stage k, or reads stage 1
            assert_kernel_matches_unpruned_walk(model, lb, lc)
        with_caps(model, caps)

    def test_next_stage_ends_the_walk_on_a_later_tie(self):
        # No bound runs after a later stage k - 1.  Where one, reach past
        # stage k - 1 times cap[k], would tie the best cost, stage k's own
        # check, with the reach into stage k (at most the reach past k - 1),
        # ends the walk after one more Phi, its p_pl, with the unpruned bits.
        # A catalog chain never meets such a tie: past the initial extent its
        # caps are all c_pg.  Lower cap[k] to it at a point where the walk
        # completes stage k, whose best cost the stages before k already have.
        model = RiskModel(validate(Scenario(geometry=FRAME_CATALOG["6x11"], damage=DamageScenario(1, 1))))
        caps = kernel_caps(model)
        def tie(lb, lc):
            rows, phis = model.trace(DesignFactors(lb, lc)), stage_phis(model, lb, lc)
            for k in range(2, len(phis)):  # stage k complete, stage k - 1 a later one
                best = max(row.expected_cost for row in rows[:k])
                cap = tied_cap(rows[k - 1].chain_probability, best)
                if phis[k] > 1 and cap is not None and max(row.expected_cost for row in rows[k:]) <= best:
                    return rows, k, best, cap
            return None

        for lb, lc in np.random.default_rng(5).uniform(0.05, 5.0, size=(200, 2)).tolist():
            if found := tie(lb, lc):
                rows, k, best, cap = found
                break
        else:
            pytest.fail("no walk through a later stage whose best cost the stages before it have")
        assert cap < caps[k] and rows[k - 1].chain_probability * cap == best
        with_caps(model, [*caps[:k], cap, *caps[k + 1 :]])
        phis = stage_phis(model, lb, lc)
        assert len(phis) == k + 1 and phis[k] == 1
        assert_kernel_matches_unpruned_walk(model, lb, lc)
        with_caps(model, caps)

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
        # breakdown reduces the trace rows: its branch is their largest
        # expected cost and its total has the bits of evaluate, on every
        # catalog frame and damage variant, at unit and optimized factors
        # and at the corners of the optimizer's bounds
        lo, hi = FACTOR_BOUNDS
        for geometry, damage, catenary in product(FRAME_CATALOG.values(), DAMAGE_VARIANTS, (False, True)):
            model = RiskModel(validate(Scenario(geometry=geometry, damage=damage, include_catenary=catenary)))
            for lb, lc in ((1.0, 1.0), (0.9, 1.3), (lo, lo), (lo, hi), (hi, lo), (hi, hi)):
                rows, cost = model.trace(DesignFactors(lb, lc)), model.breakdown(lb, lc)
                case = geometry, damage, catenary, lb, lc
                assert cost.damage_branch == model.damage_branch(lb, lc) == max(r.expected_cost for r in rows), case
                assert cost.total == model.evaluate(lb, lc), case

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
