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
from framerisk.studies import reliability_grid, trace_table

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
    assert again._chain is first._chain  # read from the table, not rebuilt
    fresh = replace(scn)
    model = RiskModel(fresh, pick(fresh))
    assert model._chain is not first._chain
    assert _attributes(again) == _attributes(model) == _attributes(first)
    if scenario is SCENARIOS["one stage"]:
        assert model.stages == [1]


def test_models_of_one_scenario_keep_their_own_state():
    scn = validate(Scenario())
    a, b = RiskModel(scn), RiskModel(scn)
    assert a.memo is not b.memo and a.stages is not b.stages
    chain, stages = b._chain, list(b.stages)
    # as the tests that watch the kernel's reads of the chain do
    a._chain = [iter(stage) for stage in a._chain]
    a.memo[1.0, 1.0] = (0.0, 0.0)
    a.stages.append(99)
    assert b._chain is chain and b.memo == {} and b.stages == stages
    assert RiskModel(scn)._chain is chain


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
