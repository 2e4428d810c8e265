"""The numbers a scenario's builds share: its sizing and, per design, the
strengths, chain costs and construction costs of :func:`risk.precomputed`.
They are computed once per scenario instance and kept on it, so a build
that reads them equals a build from scratch, models of one scenario keep
their own state, and the dataclass's own behaviour does not see them."""

from __future__ import annotations

import pickle
import sys
from collections import Counter
from dataclasses import asdict, astuple, replace

import pytest

from framerisk import (
    FRAME_CATALOG,
    DamageScenario,
    DesignFactors,
    FrameGeometry,
    RiskModel,
    Scenario,
    design_members,
    nlc_member_design,
    validate,
)
from framerisk import costs, design, reliability
from framerisk.risk import precomputed
from framerisk.studies import _CURVE_P_GRID, _scenario_task, reliability_grid, trace_table

SCENARIOS = {
    "reference": Scenario(),
    "catenary": Scenario(include_catenary=True),
    "4x16, 2x1": Scenario(geometry=FRAME_CATALOG["4x16"], damage=DamageScenario(2, 1)),
    "one stage": Scenario(geometry=FrameGeometry(4, 4), damage=DamageScenario(1, 1)),
}


def _attributes(model: RiskModel) -> dict:
    return {name: value for name, value in vars(model).items() if name != "memo"}


@pytest.mark.parametrize("own_design", [True, False], ids=["own design", "nlc_member_design"])
@pytest.mark.parametrize("scenario", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_build_from_the_table_equals_a_fresh_build(scenario, own_design):
    scn = validate(replace(scenario))  # fills the table of the scenario's own sizing
    pick = design_members if own_design else nlc_member_design
    first, again = RiskModel(scn, pick(scn)), RiskModel(scn, pick(scn))
    assert again.table is first.table  # read from the scenario, not rebuilt
    fresh = replace(scn)
    model = RiskModel(fresh, pick(fresh))
    assert model.table is not first.table
    assert _attributes(again) == _attributes(model) == _attributes(first)
    if scenario is SCENARIOS["one stage"]:
        assert list(model.stages) == [1]


def test_a_model_holds_its_numbers_under_the_table_s_names():
    model = RiskModel(Scenario())
    assert set(vars(model)) == {"scenario", "design", "moments", "table", "p_ld", "memo", "c_pg", "stages"}
    assert model.moments == model.scenario.loads.moments()
    assert model.table is precomputed(model.scenario, model.design)
    assert model.c_pg is model.table.c_pg and model.stages is model.table.stages


def test_models_of_one_scenario_keep_their_own_state():
    scn = validate(Scenario())
    a, b = RiskModel(scn), RiskModel(scn)
    assert a.memo is not b.memo and a.table is b.table
    table = b.table
    # as the tests that watch the kernel's reads of the chain do
    a.table = a.table._replace(chain=[iter(stage) for stage in a.table.chain])
    a.memo[1.0, 1.0] = (0.0, 0.0)
    assert b.table is table and b.memo == {}
    assert RiskModel(scn).table is table


def test_each_number_is_computed_once(monkeypatch):
    counts = Counter()
    for module, name in (
        (reliability, "unit_strengths"),
        (costs, "bending_collapse_cost"),
        (costs, "local_pancake_cost"),
        (costs, "construction_coefficients"),
        (design, "design_nlc"),
    ):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        # every module that bound the function by name
        for mod in [m for key, m in sys.modules.items() if key.startswith("framerisk")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    scn = validate(Scenario(geometry=FRAME_CATALOG["4x16"]))
    sizing = design_members(scn)
    RiskModel(scn, sizing).evaluate(1.0, 1.0)
    trace_table(scn, sizing, DesignFactors(1.0, 1.0))
    reliability_grid(scn, DesignFactors(1.2, 0.8))
    stages = len(scn.chain_stages())
    assert stages == 8
    assert counts == {
        "unit_strengths": 2 + stages,
        "bending_collapse_cost": stages,
        "local_pancake_cost": stages,
        "construction_coefficients": 1,
        "design_nlc": 1,
    }
    # the threshold search's probes and the curve solves it did not probe
    # are other instances at other p_ld: they take the model scenario's
    # sizing and table and compute none of these again
    before = counts.copy()
    th, solves = _scenario_task((scn, _CURVE_P_GRID, True))
    assert len(th.probes) > 2 and len(solves) == len(_CURVE_P_GRID)
    assert counts == before


def test_the_store_is_not_part_of_the_dataclass():
    scn, twin = Scenario(), Scenario()
    before = (hash(scn), repr(scn), asdict(scn), astuple(scn))
    validate(scn)
    RiskModel(scn, nlc_member_design(scn))
    assert set(vars(scn)) - set(vars(twin)) == {"_valid", "_sizing", "_precomputed"}
    assert scn == twin
    assert (hash(scn), repr(scn), asdict(scn), astuple(scn)) == before
    assert (hash(twin), repr(twin), asdict(twin), astuple(twin)) == before
    assert vars(replace(scn)).keys() == vars(twin).keys()
    assert pickle.loads(pickle.dumps(scn)) == scn
