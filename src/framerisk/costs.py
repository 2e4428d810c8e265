"""Normalized construction, strengthening and failure costs.

Beams and columns carry unit cost per meter, so the un-strengthened frame
costs exactly its total member length ``C_REF`` and every cost here is
reported as a fraction of that.  Strengthening scales the steel share
(``alpha``) of the strengthened stories by the design factor times the
strengthening factor.  Failure costs are proportional to the impacted frame
area and are always evaluated at unit design factors, so they stay constant
during optimization.
"""

from __future__ import annotations

from .design import MemberDesign
from .model import CostParameters, DesignFactors, FrameGeometry, Scenario, validate


def reference_cost(geom: FrameGeometry) -> float:
    """Total member length of the frame (beams plus columns), the
    normalization constant for every other cost."""
    return geom.L * geom.n_s * (geom.n_c - 1) + geom.H * geom.n_s * geom.n_c


def unit_beam_cost(lambda_b: float, costs: CostParameters, b_sf: float, n_s: int) -> float:
    """Per-meter beam cost factor summed over all stories: plain stories
    count 1 each, strengthened stories scale the steel share by
    lambda_b * b_sf."""
    strengthened = lambda_b * costs.alpha_b * b_sf + (1.0 - costs.alpha_b)
    return (n_s - costs.n_reinf_s) + costs.n_reinf_s * strengthened


def unit_column_cost(lambda_c: float, costs: CostParameters, r_sf: float, n_s: int) -> float:
    """Column analogue of :func:`unit_beam_cost`."""
    strengthened = lambda_c * costs.alpha_c * r_sf + (1.0 - costs.alpha_c)
    return (n_s - costs.n_reinf_s) + costs.n_reinf_s * strengthened


def construction_coefficients(scenario: Scenario, design: MemberDesign) -> tuple[float, float, float]:
    """Coefficients ``(c0, cb, cc)`` of the normalized construction cost
    ``c0 + cb * lambda_b + cc * lambda_c``, which is affine in the design
    factors: ``c0`` is the cost at zero factors, ``cb``/``cc`` the slopes of
    the strengthened steel share."""
    g, c = scenario.geometry, scenario.costs
    c_ref = reference_cost(g)
    beams = g.L * (g.n_c - 1)
    cols = g.H * g.n_c
    fixed_beams = unit_beam_cost(0.0, c, design.b_sf, g.n_s)
    fixed_cols = unit_column_cost(0.0, c, design.r_sf, g.n_s)
    c0 = (beams * fixed_beams + cols * fixed_cols) / c_ref
    cb = beams * c.n_reinf_s * c.alpha_b * design.b_sf / c_ref
    cc = cols * c.n_reinf_s * c.alpha_c * design.r_sf / c_ref
    return c0, cb, cc


def construction_cost(scenario: Scenario, design: MemberDesign, factors: DesignFactors) -> float:
    """Total construction cost of the validated scenario, normalized; equals 1 with no strengthening."""
    c0, cb, cc = construction_coefficients(validate(scenario), design)
    return c0 + cb * factors.lambda_b + cc * factors.lambda_c


def initial_damage_cost(scenario: Scenario) -> float:
    """Cost of the triggering damage itself: two beam runs per damaged
    story plus the removed column height."""
    g, dm = scenario.geometry, scenario.damage
    return (2.0 * g.L * dm.n_rs0 + g.H * dm.n_rc0) / reference_cost(g)


def bending_collapse_cost(scenario: Scenario, design: MemberDesign, n_fc: int) -> float:
    """Ductile bending collapse over n_fc + 1 bays (full height), capped at
    the frame width.  Evaluated at unit design factors."""
    g, c = scenario.geometry, scenario.costs
    beams = unit_beam_cost(1.0, c, design.b_sf, g.n_s)
    cols = unit_column_cost(1.0, c, design.r_sf, g.n_s)
    extent = min(n_fc + 1, g.n_c - 1) * g.L * beams + min(n_fc, g.n_c) * g.H * cols
    return c.k_ductile / reference_cost(g) * extent


def local_pancake_cost(scenario: Scenario, design: MemberDesign, n_fc: int) -> float:
    """Brittle local pancake collapse: two bays wider than the bending
    mechanism, saturating exactly at the global collapse cost."""
    g, c = scenario.geometry, scenario.costs
    beams = unit_beam_cost(1.0, c, design.b_sf, g.n_s)
    cols = unit_column_cost(1.0, c, design.r_sf, g.n_s)
    extent = min(n_fc + 3, g.n_c - 1) * g.L * beams + min(n_fc + 2, g.n_c) * g.H * cols
    return c.k_brittle / reference_cost(g) * extent

