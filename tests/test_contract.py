"""The library contract: every pipeline entry point that takes a scenario
validates it, once per instance, and the scalar entry points and the grid
take design factors only in ``[FACTOR_BOUNDS[0], MAX_FACTOR]``.  Each
scenario here is built straight from the dataclasses, never through
``scenario_from_dict``."""

from __future__ import annotations

import math
import pickle
import warnings
from dataclasses import astuple, replace

import pytest

from framerisk import (
    FRAME_CATALOG,
    CollapseMode,
    CostParameters,
    DesignFactors,
    LoadModel,
    MemberDesign,
    RandomVarStats,
    RiskModel,
    Scenario,
    ValidationError,
    beta_damaged,
    beta_set,
    construction_cost,
    design_members,
    minimize_total_cost,
    model as model_module,
    nlc_member_design,
    threshold_probability,
    unit_strengths,
    validate,
)
from framerisk.model import FACTOR_BOUNDS, MAX_FACTOR
from framerisk.reliability import LIVE_APT
from framerisk.studies import StudyDefinition, reliability_grid, run_study, trace_table

_REF = Scenario()

# Each of these reached no error, or a ZeroDivisionError, through the
# dataclasses before every entry point validated its scenario.
UNEVALUABLE = {
    "p_ld above 1": replace(_REF, p_ld=2.0),
    "factored strength squared overflows": replace(_REF, phi_apm=1e-160),
    "an index's variance underflows": replace(_REF, loads=LoadModel(d_n=1.1e-284, l_n=2.5e-261)),
    "L squared vanishes": replace(_REF, geometry=replace(_REF.geometry, L=6e-300)),
}

# A design and strengths of the reference scenario: sizing an unevaluable
# scenario may raise ZeroDivisionError before the entry point under test runs.
_REF_DESIGN = design_members(_REF)
_REF_DAMAGED = unit_strengths(_REF, _REF_DESIGN.b_y_0, _REF_DESIGN.r_c_0, (1, 1))
UNIT = DesignFactors(1.0, 1.0)

ENTRY_POINTS = {
    "RiskModel": RiskModel,
    "trace_table": trace_table,
    "reliability_grid": lambda scenario: reliability_grid(scenario, UNIT),
    "minimize_total_cost": minimize_total_cost,
    "threshold_probability": threshold_probability,
    "design_members": design_members,
    "nlc_member_design": nlc_member_design,
    "construction_cost": lambda scenario: construction_cost(scenario, _REF_DESIGN, UNIT),
    "beta_set": lambda scenario: beta_set(scenario, _REF_DAMAGED, UNIT, LIVE_APT),
    "beta_damaged": lambda scenario: beta_damaged(scenario, _REF_DESIGN, UNIT, 1, 1, CollapseMode.BENDING),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("scenario", UNEVALUABLE.values(), ids=UNEVALUABLE.keys())
def test_entry_points_refuse_unvalidated_scenarios(scenario, entry):
    with pytest.raises(ValidationError):
        entry(replace(scenario))  # a fresh instance, so no earlier call has seen it


def test_a_model_of_another_frame_is_refused():
    low = RiskModel(Scenario(geometry=FRAME_CATALOG["4x16"]))
    for search in (minimize_total_cost, threshold_probability):
        with pytest.raises(ValueError, match="another scenario"):
            search(Scenario(), model=low)


def test_the_solve_validates_the_scenario_it_is_handed_with_a_model():
    model = RiskModel(Scenario())
    with pytest.raises(ValidationError, match="p_ld"):
        minimize_total_cost(replace(_REF, p_ld=2.0), model=model)


@pytest.mark.parametrize("search", [minimize_total_cost, threshold_probability])
def test_a_model_lends_its_sizing_and_table_only_to_its_own_scenario(search):
    # a scenario that differs from the model's in p_ld alone takes its sizing
    # and tables and is still validated; one that differs elsewhere is
    # refused untouched
    model = RiskModel(Scenario())
    own = vars(model.scenario)["_derived"]
    at_p_ld = replace(_REF, p_ld=2.0)
    with pytest.raises(ValidationError, match="p_ld"):
        search(at_p_ld, model=model)
    assert vars(at_p_ld)["_derived"].tables is own.tables
    lent = replace(_REF, p_ld=0.5)
    search(lent, model=model)
    record = vars(lent)["_derived"]
    assert record.valid and record.sizing is own.sizing and record.tables is own.tables
    other = replace(_REF, psi=5.0)
    with pytest.raises(ValueError, match="another scenario"):
        search(other, model=model)
    assert "_derived" not in vars(other)


@pytest.mark.parametrize(
    "variant",
    [
        replace(_REF, include_catenary=0),
        replace(_REF, geometry=replace(_REF.geometry, n_s=8.0)),
        replace(_REF, costs=replace(_REF.costs, n_reinf_s=2.0)),
    ],
    ids=["include_catenary=0", "n_s=8.0", "n_reinf_s=2.0"],
)
@pytest.mark.parametrize("search", [minimize_total_cost, threshold_probability])
def test_a_p_ld_variant_of_another_type_is_validated_in_full(search, variant):
    # equal to the model's scenario under == at its p_ld, so the model is
    # its own, but a field's type breaks its rule
    variant = replace(variant, p_ld=0.5)
    assert replace(variant, p_ld=_REF.p_ld) == _REF
    with pytest.raises(ValidationError, match="must be"):
        search(variant, model=RiskModel(Scenario()))


def test_a_model_at_another_p_ld_is_accepted_and_solves_as_a_fresh_one():
    scenario = Scenario(p_ld=0.01)
    lent = minimize_total_cost(scenario, model=RiskModel(replace(scenario, p_ld=0.5)))
    fresh = minimize_total_cost(scenario)
    assert lent.c_te.hex() == fresh.c_te.hex()
    assert lent.factors == fresh.factors
    assert (lent.beta_damaged, lent.beta_intact) == (fresh.beta_damaged, fresh.beta_intact)
    assert (lent.starts_used, lent.evaluations, lent.converged_starts) == (
        fresh.starts_used, fresh.evaluations, fresh.converged_starts)


def test_a_model_on_another_design_of_the_scenario_is_accepted():
    scenario = Scenario()
    model = RiskModel(scenario, nlc_member_design(scenario))
    assert model.scenario is scenario
    assert math.isfinite(minimize_total_cost(replace(scenario, p_ld=1e-3), model=model).c_te)


@pytest.mark.parametrize("design", [
    MemberDesign(1, 1, 1, 1, math.nan, 1),  # evaluated to nan; a solve on it raised OptimizationError
    MemberDesign(*[1e300] * 6),  # evaluated to 5.8e300, every probability 0.5
    MemberDesign(1, 0.0, 1, 1, 1, 1),
], ids=["nan", "1e300", "zero"])
def test_a_handed_in_design_is_held_to_the_sizing_rules(design):
    with pytest.raises(ValidationError, match="capacities|unit strengths"):
        RiskModel(Scenario(), design)


def test_a_validation_error_survives_pickling():
    error = ValidationError(["p_ld out of range", "psi bad"])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is ValidationError
    assert copy.violations == error.violations
    assert str(copy) == str(error) == "p_ld out of range; psi bad"


def test_validate_runs_the_rules_once_per_instance(monkeypatch):
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return original(scenario)

    original = model_module.violations
    monkeypatch.setattr(model_module, "violations", counted)
    scenario = Scenario()
    assert validate(scenario) is scenario and validate(scenario) is scenario
    RiskModel(scenario)
    reliability_grid(scenario, DesignFactors(1.0, 1.0))
    trace_table(scenario)
    assert len(calls) == 1
    validate(replace(scenario))  # a new instance is checked anew
    assert len(calls) == 2


def test_a_sweep_validates_each_point_once(monkeypatch, tmp_path):
    # each point's solve takes the point's own validated scenario, not a copy at its p_ld
    calls = []
    original = model_module.violations
    monkeypatch.setattr(model_module, "violations", lambda scenario: calls.append(scenario) or original(scenario))
    _, rows = run_study(StudyDefinition(Scenario(), (("p_ld", (1e-3, 1e-2, 0.1)),), tmp_path))
    assert len(rows) == len(calls) == 3


def test_a_failed_validation_is_not_remembered():
    scenario = replace(_REF, p_ld=2.0)
    for _ in range(2):
        with pytest.raises(ValidationError):
            validate(scenario)
    assert not vars(scenario)["_derived"].valid


# -- the factor rule -----------------------------------------------------------

ZERO_STD = Scenario(loads=LoadModel(dead=RandomVarStats(1.0, 0.0), live_apt=RandomVarStats(1.0, 0.0),
                                    live_50=RandomVarStats(1.0, 0.0)))
OUT_OF_RANGE = [(1e-200, 1e-200), (1e300, 1.0), (1.0, 1e300), (-1.0, 1.0), (0.0, 1.0),
                (math.nextafter(FACTOR_BOUNDS[0], 0.0), 1.0), (1.0, math.nextafter(MAX_FACTOR, math.inf)),
                (math.inf, 1.0), (1.0, -math.inf)]


@pytest.mark.parametrize("scenario", [_REF, ZERO_STD], ids=["reference", "zero load stds"])
@pytest.mark.parametrize("factors", OUT_OF_RANGE)
def test_factors_out_of_range_are_value_errors(scenario, factors):
    model = RiskModel(scenario)
    for call in (model.evaluate, model.breakdown, model.damage_branch, lambda b, c: model.evaluate_grid([b], [c])):
        with pytest.raises(ValueError, match="design factors must be"):
            call(*factors)
    with pytest.raises(ValueError):
        model.trace(DesignFactors(*factors))
    with pytest.raises(ValueError):
        beta_set(scenario, model.table.stage_strengths[0], DesignFactors(*factors), LIVE_APT)


@pytest.mark.parametrize("scenario", [_REF, ZERO_STD], ids=["reference", "zero load stds"])
@pytest.mark.parametrize("factors", [(FACTOR_BOUNDS[0], FACTOR_BOUNDS[0]), (MAX_FACTOR, MAX_FACTOR),
                                     (FACTOR_BOUNDS[0], MAX_FACTOR), (1.0, 1.0)])
def test_factors_at_the_ends_of_the_range_are_finite(scenario, factors):
    model = RiskModel(scenario)
    assert all(math.isfinite(term) for term in astuple(model.breakdown(*factors)))
    assert model.evaluate(*factors) == model.breakdown(*factors).total
    assert model.evaluate_grid([factors[0]], [factors[1]])[0, 0] == model.evaluate(*factors)
    rows = model.trace(DesignFactors(*factors))
    assert all(math.isfinite(value) for row in rows for value in row if type(value) is float)
    assert all(math.isfinite(beta) for beta in beta_set(scenario, model.table.stage_strengths[0],
                                                        DesignFactors(*factors), LIVE_APT))


@pytest.mark.parametrize("lambda_b, lambda_c", [
    ([1e-200, 1.0, 1e300], [1e-200, 1.0]),  # every load std zero: an index divides by zero below the range
    ([0.05, 1e300], [1.0, 1e6]),  # returned 2.3e299 at 1e300
    ([1.0, 2.0], [0.05, math.nan, 1e6, 0.0]),
])
def test_grid_factors_out_of_range_are_refused_before_any_arithmetic(lambda_b, lambda_c):
    model = RiskModel(ZERO_STD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail here
        with pytest.raises(ValueError, match="design factors must be"):
            model.evaluate_grid(lambda_b, lambda_c)


@pytest.mark.parametrize("scenario", [_REF, ZERO_STD], ids=["reference", "zero load stds"])
def test_a_nan_grid_factor_gives_a_nan_row_and_the_rest_as_evaluate(scenario):
    model, ends = RiskModel(scenario), [FACTOR_BOUNDS[0], 1.0, MAX_FACTOR]
    grid = model.evaluate_grid([FACTOR_BOUNDS[0], math.nan, MAX_FACTOR], ends)
    assert all(math.isnan(value) for value in grid[1])
    assert [grid[i, j] for i in (0, 2) for j in range(3)] == [model.evaluate(b, c) for b in ends[::2] for c in ends]
    assert all(math.isnan(value) for value in model.evaluate_grid(ends, [1.0, math.nan])[:, 1])


@pytest.mark.parametrize("k_ductile, k_brittle, p_ld, accepted", [
    (1.5e308, 1.5e308, 0.1, False),  # the two normal-loading terms add up beyond float range
    (5e307, 5e307, 0.1, True),
    (1.0, 8.5e307, 1.0, False),  # the normal-loading term and, at p_ld = 1, the damage branch
    (1.0, 7e307, 1.0, True),
])
def test_the_largest_total_expected_cost_must_be_finite(k_ductile, k_brittle, p_ld, accepted):
    # every failure cost is finite; at the low end of the factor range each
    # is weighted by a probability near 1
    scenario = replace(_REF, costs=CostParameters(k_ductile=k_ductile, k_brittle=k_brittle), p_ld=p_ld)
    if accepted:
        assert math.isfinite(RiskModel(scenario).evaluate(FACTOR_BOUNDS[0], FACTOR_BOUNDS[0]))
    else:
        with pytest.raises(ValidationError, match="total expected cost at factors up to"):
            validate(scenario)
