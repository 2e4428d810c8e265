"""Member sizing: normal loading condition and alternate-path strengthening.

``design_nlc`` sizes beams and columns for ordinary gravity design
(1.2D + 1.6L).  ``strengthen_apm`` re-sizes them so the frame can bridge over
the discretionary element removal (1.2D + 0.5L), keeping the
normal-condition column strength as a floor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .model import DamageScenario, FrameGeometry, LoadModel, Scenario, _derived, validate


@dataclass(frozen=True)
class MemberDesign:
    """Required member capacities before and after strengthening.

    ``b_y_nlc``/``r_c_nlc`` come from normal-condition design, ``b_y_0`` and
    ``r_c_0`` from the element-removal condition.  ``b_sf`` and ``r_sf`` are
    the resulting strengthening factors (ratios of the two).
    """

    b_y_nlc: float  # beam plastic moment, normal condition (kNm)
    r_c_nlc: float  # column crushing capacity, normal condition (kN)
    b_y_0: float  # beam plastic moment after strengthening (kNm)
    r_c_0: float  # column capacity after strengthening (kN)
    b_sf: float
    r_sf: float


def design_nlc(geom: FrameGeometry, loads: LoadModel, phi: float) -> tuple[float, float]:
    """Required beam moment (kNm) and column capacity (kN) under normal
    loading, i.e. the intact-frame strength equations inverted at the
    factored design load."""
    if not 0 < phi <= 1:
        raise ValueError(f"phi must be in (0, 1], got {phi}")
    q = 1.2 * loads.d_n + 1.6 * loads.l_n  # factored load, 1.2D + 1.6L
    b_y = geom.L**2 / (16.0 * phi) * q
    r_c = geom.L * geom.n_s * (geom.n_c - 1) / (phi * geom.n_c) * q
    return b_y, r_c


def strengthen_apm(
    geom: FrameGeometry,
    loads: LoadModel,
    damage: DamageScenario,
    phi: float,
    r_c_nlc: float,
) -> tuple[float, float]:
    """Required capacities for bridging over the removed elements.

    Beams must carry the removal-condition load over the damaged span; the
    columns adjacent to the removal must carry the redistributed load, but
    never less than their normal-condition requirement.
    """
    if not 0 < phi <= 1:
        raise ValueError(f"phi must be in (0, 1], got {phi}")
    if damage.n_rc0 < 1:
        raise ValueError("strengthening requires n_rc0 >= 1; size with design_nlc instead")
    if damage.n_rc0 > geom.n_c - 2:
        raise ValueError(f"n_rc0 must leave two intact columns (n_rc0={damage.n_rc0}, n_c={geom.n_c})")
    q = 1.2 * loads.d_n + 0.5 * loads.l_n  # factored load, 1.2D + 0.5L
    b_y_0 = damage.n_rc0 * geom.L**2 / (4.0 * phi) * q
    share = 2.0 - (geom.n_c - 1) / geom.n_c + damage.n_rc0 * (1.0 - damage.n_rs0 / geom.n_s)
    r_c_0 = max(r_c_nlc, geom.L * geom.n_s / phi * share * q)
    return b_y_0, r_c_0


def size_members(scenario: Scenario) -> MemberDesign:
    """NLC design, strengthening for the scenario's damage, and their ratios,
    sized once per scenario instance and kept in its record (see
    :class:`Scenario`), as :func:`risk.precomputed` keeps the numbers built on it."""
    record = _derived(scenario)
    if record.sizing is None:
        b_y_nlc, r_c_nlc = design_nlc(scenario.geometry, scenario.loads, scenario.phi_nlc)
        b_y_0, r_c_0 = strengthen_apm(scenario.geometry, scenario.loads, scenario.damage, scenario.phi_apm, r_c_nlc)
        record.sizing = MemberDesign(b_y_nlc, r_c_nlc, b_y_0, r_c_0, b_y_0 / b_y_nlc, r_c_0 / r_c_nlc)
    return record.sizing


def design_members(scenario: Scenario) -> MemberDesign:
    """:func:`size_members` of the validated scenario, warning where the strengthened beam is the weaker."""
    design = size_members(validate(scenario))
    if design.b_y_0 < design.b_y_nlc:
        # The removal condition has no floor at the normal-condition beam
        # strength.  L cancels from b_y_0/b_y_nlc =
        # 4 n_rc0 (phi_nlc/phi_apm) (1.2d + 0.5l)/(1.2d + 1.6l), so whatever
        # the bay length this binds only for phi_nlc/phi_apm < 0.8/n_rc0.
        warnings.warn(
            f"strengthened beam requirement {design.b_y_0:.4g} kNm is below the "
            f"normal-condition requirement {design.b_y_nlc:.4g} kNm",
            stacklevel=2,
        )
    return design


def nlc_member_design(scenario: Scenario) -> MemberDesign:
    """Design of the un-strengthened (normal) frame, expressed in the same
    record so downstream code can evaluate both frames uniformly; the scenario is validated."""
    b_y_nlc, r_c_nlc = design_nlc(validate(scenario).geometry, scenario.loads, scenario.phi_nlc)
    return MemberDesign(b_y_nlc, r_c_nlc, b_y_nlc, r_c_nlc, 1.0, 1.0)
