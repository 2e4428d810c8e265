from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from framerisk import (
    FrameGeometry,
    LoadModel,
    Scenario,
    ValidationError,
    annual_from_lifetime,
    scenario_from_dict,
    validate,
    violations,
)
from framerisk.model import _RANGES, _TYPED_FIELDS


def test_reference_scenario_is_valid(ref_scenario):
    assert violations(ref_scenario) == []
    assert validate(ref_scenario) is ref_scenario
    # idempotent
    assert validate(validate(ref_scenario)) is ref_scenario


def test_single_column_frame_rejected():
    bad = replace(Scenario(), geometry=FrameGeometry(8, 1))
    found = violations(bad)
    assert any("n_c" in v for v in found)
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert "n_c" in str(err.value)


def test_psi_out_of_range_rejected():
    bad = replace(Scenario(), psi=5.0)
    assert any("psi" in v for v in violations(bad))
    with pytest.raises(ValidationError):
        validate(bad)


def test_all_violations_collected_at_once():
    bad = replace(Scenario(), geometry=FrameGeometry(0, 1, -1.0, 3.0), psi=9.0, p_ld=2.0)
    found = violations(bad)
    assert len(found) >= 5
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert err.value.violations == found


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"include_catenary": "no"}, "include_catenary must be a boolean"),
        ({"include_catenary": 1}, "include_catenary must be a boolean"),
        ({"p_ld": 10**400}, "p_ld must be a finite number"),
        ({"geometry": FrameGeometry(10**400, 9)}, "geometry.n_s must be an integer"),
    ],
    ids=["catenary 'no'", "catenary 1", "p_ld beyond float range", "n_s beyond float range"],
)
def test_wrongly_typed_field_rejected(changes, message):
    with pytest.raises(ValidationError, match=message):
        validate(replace(Scenario(), **changes))


def test_damage_extent_bounds():
    scn = Scenario()
    assert violations(replace(scn, damage=replace(scn.damage, n_rc0=8)))  # n_c - 2 = 7
    assert violations(replace(scn, damage=replace(scn.damage, n_rs0=9)))
    assert not violations(replace(scn, damage=replace(scn.damage, n_rc0=7)))


# One violating document per row of the range table, then the two rules
# that join fields; each must give exactly its rule's message.
_RANGE_CASES = {
    "geometry.n_s": ({"geometry": {"n_s": 0}}, "geometry.n_s >= 1 violated (geometry.n_s=0)"),
    "geometry.n_c": ({"geometry": {"n_c": 1001}}, "2 <= geometry.n_c <= 1000 violated (geometry.n_c=1001)"),
    "geometry.L": ({"geometry": {"L": 0.0}}, "geometry.L > 0 violated (geometry.L=0.0)"),
    "geometry.H": ({"geometry": {"H": -3.0}}, "geometry.H > 0 violated (geometry.H=-3.0)"),
    "loads.d_n": ({"loads": {"d_n": -1.0}}, "loads.d_n >= 0 violated (loads.d_n=-1.0)"),
    "loads.l_n": ({"loads": {"l_n": -1.0}}, "loads.l_n >= 0 violated (loads.l_n=-1.0)"),
    **{
        f"loads.{name}.std": ({"loads": {name: {"mean": 1.0, "std": -0.1}}},
                              f"loads.{name}.std >= 0 violated (loads.{name}.std=-0.1)")
        for name in ("dead", "live_apt", "live_50", "beam_resistance", "column_resistance")
    },
    **{
        f"loads.{name}.mean": ({"loads": {name: {"mean": 0.0, "std": 0.2}}},
                               f"loads.{name}.mean > 0 violated (loads.{name}.mean=0.0)")
        for name in ("beam_resistance", "column_resistance")
    },
    "damage.n_rs0": ({"damage": {"n_rs0": 9}},
                     "0 <= damage.n_rs0 <= geometry.n_s violated (damage.n_rs0=9, geometry.n_s=8)"),
    "costs.alpha_b": ({"costs": {"alpha_b": 1.5}}, "0 <= costs.alpha_b <= 1 violated (costs.alpha_b=1.5)"),
    "costs.alpha_c": ({"costs": {"alpha_c": -0.1}}, "0 <= costs.alpha_c <= 1 violated (costs.alpha_c=-0.1)"),
    "costs.k_ductile": ({"costs": {"k_ductile": 0.0}}, "costs.k_ductile > 0 violated (costs.k_ductile=0.0)"),
    "costs.k_brittle": ({"costs": {"k_brittle": -40.0}}, "costs.k_brittle > 0 violated (costs.k_brittle=-40.0)"),
    "costs.n_reinf_s": ({"costs": {"n_reinf_s": 9}},
                        "0 <= costs.n_reinf_s <= geometry.n_s violated (costs.n_reinf_s=9, geometry.n_s=8)"),
    "p_ld": ({"p_ld": 1.5}, "0 <= p_ld <= 1 violated (p_ld=1.5)"),
    "psi": ({"psi": 4.5}, "0 <= psi <= 4 violated (psi=4.5)"),
    "phi_nlc": ({"phi_nlc": 0.0}, "0 < phi_nlc <= 1 violated (phi_nlc=0.0)"),
    "phi_apm": ({"phi_apm": 1.5}, "0 < phi_apm <= 1 violated (phi_apm=1.5)"),
    "n_rc0 leaves two columns": ({"damage": {"n_rc0": 8}}, "1 <= n_rc0 <= n_c - 2 violated (n_rc0=8, n_c=9)"),
    "loads both zero": (
        {"loads": {"d_n": 0.0, "l_n": 0.0}}, "nominal loads must not both be zero (members would have no size)"
    ),
}


def test_range_table_rows_are_scalar_fields_with_a_case():
    # a bounding field is walked before the field it bounds, so its type is
    # known when the bound is read
    names = [name for name, _, _ in _TYPED_FIELDS]
    assert set(_RANGES) <= set(names) and set(_RANGES) <= set(_RANGE_CASES)
    for name, (_, high, _) in _RANGES.items():
        if isinstance(high, str):
            assert names.index(high) < names.index(name)


@pytest.mark.parametrize("doc, message", _RANGE_CASES.values(), ids=_RANGE_CASES.keys())
def test_each_range_rule_gives_its_message(doc, message):
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert message in err.value.violations


SIZING = "b_y_nlc, r_c_nlc, b_y_0, r_c_0 must be finite and positive"
MOMENTS = "load and resistance means and variances must be finite"
STRENGTHS = "unit strengths up to .* must keep every reliability index's mean and variance finite"
COSTS = "failure costs k_ductile and k_brittle times the unit-factor construction cost"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"psi": 1.0, "phi_apm": 2.2250738585072014e-308}, SIZING),
        ({"loads": {"l_n": 1e150}, "phi_nlc": 1e-300}, SIZING),
        ({"geometry": {"L": 6e-300}}, SIZING),
        ({"geometry": {"L": 1e200}}, SIZING),
        ({"geometry": {"L": 0.1}, "phi_apm": 1e-308, "loads": {"d_n": 1e-10, "l_n": 1e-10}}, SIZING),
        ({"loads": {"d_n": 1e200, "l_n": 1e200}}, MOMENTS),
        ({"loads": {"beam_resistance": {"mean": 1.22, "std": 10**200}}}, MOMENTS),
        ({"phi_apm": 1e-160}, STRENGTHS),
        ({"loads": {"beam_resistance": {"mean": 1e305, "std": 0.2}}}, STRENGTHS),
        ({"costs": {"k_ductile": 1e130}, "phi_apm": 1e-224}, COSTS),
    ],
    ids=[
        "b_y_0 overflows",
        "b_y_nlc overflows",
        "L squared vanishes",
        "L squared overflows",
        "b_sf overflows",
        "load variances overflow",
        "integer std squared overflows",
        "factored strength squared overflows",
        "factored strength times resistance mean overflows",
        "failure cost overflows",
    ],
)
def test_sizing_that_overflows_or_vanishes_rejected(doc, message):
    # each range rule holds, but the member sizing, its ratios, the moments
    # RiskModel reads, the factored strengths of an index or the failure
    # costs are not finite (and positive)
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(doc)


def test_default_load_statistics():
    loads = LoadModel(d_n=2.0, l_n=4.0)
    assert loads.dead.mean == pytest.approx(2.1)
    assert loads.dead.std == pytest.approx(0.21)
    assert loads.live_apt.mean == pytest.approx(1.0)
    assert loads.live_apt.std == pytest.approx(0.55)
    assert loads.live_50.mean == pytest.approx(4.0)
    assert loads.live_50.std == pytest.approx(1.0)
    assert loads.beam_resistance.mean == pytest.approx(1.22)
    assert loads.beam_resistance.std == pytest.approx(0.20)
    assert loads.column_resistance.mean == pytest.approx(1.20)
    assert loads.column_resistance.std == pytest.approx(0.22)
    # distribution families are metadata only
    assert loads.live_apt.dist == "gamma"
    assert loads.live_50.dist == "gumbel"


def test_annual_from_lifetime_values():
    # frozen from -ln(1 - p)/50 evaluated at high precision
    assert annual_from_lifetime(0.1) == pytest.approx(2.1072103131565260e-3, rel=1e-12)
    assert annual_from_lifetime(0.05) == pytest.approx(1.0258658877510107e-3, rel=1e-12)
    assert annual_from_lifetime(0.0) == 0.0


def test_annual_from_lifetime_domain():
    with pytest.raises(ValueError):
        annual_from_lifetime(1.0)
    with pytest.raises(ValueError):
        annual_from_lifetime(-0.01)
    with pytest.raises(ValueError):
        annual_from_lifetime(1.5)


def test_annual_from_lifetime_monotone_and_bounded_below():
    rng = np.random.default_rng(20240811)
    ps = np.sort(rng.uniform(0.0, 0.999999, size=500))
    vals = [annual_from_lifetime(p) for p in ps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= p / 50.0 for v, p in zip(vals, ps))
    assert math.isclose(annual_from_lifetime(1e-9), 1e-9 / 50.0, rel_tol=1e-6)
